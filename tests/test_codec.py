import json
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ancillary_pricing.codec import decode, from_doc, to_doc
from ancillary_pricing.core import CategoricalFeature, EncodingSchema, NumericFeature
from ancillary_pricing.simulator import MarketSpec, SubMarket

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, width=64)
names = st.text(max_size=8)
unit = st.floats(min_value=0.0, max_value=1.0)


def _through_json(cls, obj):
    return from_doc(cls, json.loads(json.dumps(to_doc(obj))))


@st.composite
def sub_markets(draw, weight: float) -> SubMarket:
    lo, hi = sorted((draw(unit), draw(unit)))
    code = st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=3, max_size=3)
    return SubMarket(
        name=draw(names),
        markets=tuple(draw(st.lists(st.tuples(code, code), min_size=1, max_size=4))),
        weight=weight,
        wtp_log_mean=draw(finite),
        wtp_log_std=draw(st.floats(min_value=0.0, max_value=5.0)),
        dtd_slope=draw(finite),
        los_window=(lo, hi),
        los_bonus=draw(finite),
        group_slope=draw(finite),
        pcs_slope=draw(finite),
        popularity=draw(finite),
        popularity_slope=draw(finite),
    )


@st.composite
def market_specs(draw) -> MarketSpec:
    raw = draw(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=4))
    weights = [w / sum(raw) for w in raw]
    return MarketSpec(
        sub_markets=tuple(draw(sub_markets(w)) for w in weights),
        static_price=draw(st.floats(min_value=0.01, max_value=1e6)),
        target_base_conversion=draw(unit),
        dtd_max=draw(st.integers(1, 400)),
        los_max=draw(st.integers(1, 60)),
        one_way_share=draw(unit),
        booking_class_bumps=draw(st.dictionaries(names, finite, max_size=4)),
    )


schemas = st.builds(
    EncodingSchema,
    numeric=st.lists(st.builds(NumericFeature, names, finite, positive, st.booleans()),
                     max_size=5).map(tuple),
    categorical=st.lists(st.builds(CategoricalFeature, names,
                                   st.lists(names, max_size=5).map(tuple)),
                         max_size=5).map(tuple),
)


@settings(max_examples=60, deadline=None)
@given(market_specs())
def test_market_spec_round_trips_through_json(spec):
    assert _through_json(MarketSpec, spec) == spec


@settings(max_examples=60, deadline=None)
@given(schemas)
def test_encoding_schema_round_trips_through_json(schema):
    assert _through_json(EncodingSchema, schema) == schema


@dataclass(frozen=True)
class _Sample:
    pair: tuple[float, int]
    arrays: list[np.ndarray]
    rows: dict[str, tuple[float, ...]]
    note: str | None = None


def test_arrays_keep_shape_and_values_bit_for_bit():
    rng = np.random.default_rng(0)
    obj = _Sample(pair=(0.1, 2), arrays=[rng.normal(size=(3, 4)), rng.normal(size=5)],
                  rows={"a": (1.5, -2.25)})
    again = _through_json(_Sample, obj)
    assert again.pair == obj.pair and again.rows == obj.rows and again.note is None
    for a, b in zip(again.arrays, obj.arrays):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_given_fields_are_not_read_from_the_document():
    doc = to_doc(_Sample(pair=(1.0, 1), arrays=[], rows={}))
    assert from_doc(_Sample, doc, note="given").note == "given"


def test_key_that_is_no_field_is_refused_by_name():
    doc = to_doc(_Sample(pair=(1.0, 1), arrays=[], rows={}))
    doc["nots"] = "a misspelled note"
    with pytest.raises(ValueError, match="_Sample has no field 'nots'"):
        from_doc(_Sample, doc)


@pytest.mark.parametrize("edit,error", [
    (lambda d: d.pop("pair"), KeyError),
    (lambda d: d.update(pair=[1.0, 2, 3]), ValueError),
    (lambda d: d.update(pair="1.0,2"), TypeError),
    (lambda d: d.update(rows=[]), TypeError),
    (lambda d: d.update(note=5), TypeError),
    (lambda d: d.update(rows={"a": ["1.5"]}), TypeError),
    (lambda d: d["arrays"].append({"shape": [2, 2], "data": [1.0]}), ValueError),
])
def test_malformed_document_raises(edit, error):
    doc = to_doc(_Sample(pair=(1.0, 1), arrays=[], rows={}))
    edit(doc)
    with pytest.raises(error):
        from_doc(_Sample, doc)


@pytest.mark.parametrize("hint,value", [
    (float, "1.5"), (float, True), (float, None), (str, 5), (str, ["a"]), (bool, 1),
    (bool, "true"), (dict, []), (dict, None), (str | None, {}), (tuple[dict, ...], [1]),
])
def test_value_of_another_kind_is_refused(hint, value):
    with pytest.raises(TypeError, match="expected"):
        decode(hint, value)
