import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ancillary_pricing.core import (
    CategoricalFeature,
    PriceGrid,
    Quote,
    PolicyTag,
    encode,
    encode_matrix,
    fit_schema,
    snap_to_grid,
)
from ancillary_pricing.errors import (
    AllFeaturesDegenerate,
    EmptyDataset,
    SchemaMismatch,
)


def column_names(schema) -> list[str]:
    """The name of each column ``encode`` writes, in order."""
    cols: list[str] = []
    for f in schema.numeric:
        cols.append(f.name)
        if f.optional:
            cols.append(f"{f.name}__missing")
    for f in schema.categorical:
        cols.extend(f"{f.name}={lvl}" for lvl in f.levels)
        cols.append(f"{f.name}=<unknown>")
    return cols


class TestFitSchema:
    def test_two_point_stats(self, make_session):
        sessions = [make_session(days_to_departure=1), make_session(days_to_departure=3)]
        schema = fit_schema(sessions)
        feat = next(f for f in schema.numeric if f.name == "days_to_departure")
        assert feat.mean == 2.0
        assert feat.std == 1.0

    def test_constant_feature_excluded(self, make_session):
        sessions = [make_session(days_to_departure=1, length_of_stay=5),
                    make_session(days_to_departure=3, length_of_stay=5)]
        schema = fit_schema(sessions)
        assert "length_of_stay" not in {f.name for f in schema.numeric}

    def test_categorical_levels_plus_unknown(self, make_session):
        sessions = [make_session(days_to_departure=1, booking_class="A"),
                    make_session(days_to_departure=3, booking_class="B")]
        schema = fit_schema(sessions)
        feat = next(f for f in schema.categorical if f.name == "booking_class")
        assert feat.levels == ("A", "B")
        # 3 one-hot columns: A, B, unknown
        assert sum(1 for c in column_names(schema) if c.startswith("booking_class=")) == 3

    def test_too_few_sessions(self, make_session):
        with pytest.raises(EmptyDataset):
            fit_schema([make_session()])
        with pytest.raises(EmptyDataset):
            fit_schema([])

    def test_all_degenerate(self, make_session):
        a = make_session(booking_class="A")
        b = make_session(booking_class="B")  # only a categorical varies
        with pytest.raises(AllFeaturesDegenerate):
            fit_schema([a, b])

    def test_mixed_type_extra_feature_rejected(self, make_session):
        sessions = [make_session(days_to_departure=1, extra_features={"ch": 1.0}),
                    make_session(days_to_departure=3, extra_features={"ch": "web"})]
        with pytest.raises(SchemaMismatch):
            fit_schema(sessions)


class TestEncode:
    def test_mean_value_encodes_to_zero(self, make_session):
        sessions = [make_session(days_to_departure=1), make_session(days_to_departure=3)]
        schema = fit_schema(sessions)
        vec = encode(make_session(days_to_departure=2), schema)
        assert vec[0] == 0.0

    def test_unseen_level_hits_unknown_bucket(self, make_session):
        sessions = [make_session(days_to_departure=1, booking_class="A"),
                    make_session(days_to_departure=3, booking_class="B")]
        schema = fit_schema(sessions)
        cols = column_names(schema)
        vec = encode(make_session(booking_class="Z"), schema)
        assert vec[cols.index("booking_class=A")] == 0.0
        assert vec[cols.index("booking_class=B")] == 0.0
        assert vec[cols.index("booking_class=<unknown>")] == 1.0

    def test_encode_is_deterministic(self, make_session):
        sessions = [make_session(days_to_departure=d, price_comparison_score=d * 0.1)
                    for d in range(5)]
        schema = fit_schema(sessions)
        s = make_session(days_to_departure=2)
        v1 = encode(s, schema)
        v2 = encode(s, schema)
        assert np.array_equal(v1, v2)

    def test_missing_optional_numeric_sets_flag(self, make_session):
        sessions = [make_session(days_to_departure=1, extra_features={"pop": 1.0}),
                    make_session(days_to_departure=3, extra_features={"pop": 3.0}),
                    make_session(days_to_departure=5)]
        schema = fit_schema(sessions)
        cols = column_names(schema)
        assert "pop__missing" in cols
        vec = encode(make_session(), schema)
        assert vec[cols.index("pop")] == 0.0
        assert vec[cols.index("pop__missing")] == 1.0
        vec2 = encode(make_session(extra_features={"pop": 2.0}), schema)
        assert vec2[cols.index("pop")] == 0.0  # 2.0 is the fitted mean
        assert vec2[cols.index("pop__missing")] == 0.0

    def test_required_extra_feature_missing_raises(self, make_session):
        sessions = [make_session(days_to_departure=1, extra_features={"pop": 1.0}),
                    make_session(days_to_departure=3, extra_features={"pop": 3.0})]
        schema = fit_schema(sessions)
        with pytest.raises(SchemaMismatch):
            encode(make_session(), schema)

    def test_encode_row_has_schema_dim(self, make_session):
        sessions = [make_session(days_to_departure=1), make_session(days_to_departure=3)]
        schema = fit_schema(sessions)
        vec = encode(make_session(), schema)
        assert vec.shape == (schema.dim,)
        assert vec.dtype == np.float64

    def test_repeated_level_sets_its_first_column(self, make_session):
        schema = fit_schema([make_session(days_to_departure=1), make_session(days_to_departure=3)])
        cat = CategoricalFeature("booking_class", ("A", "B", "A"))
        schema = dataclasses.replace(schema, categorical=(cat,))
        vec = encode(make_session(booking_class="A"), schema)
        assert vec[-4:].tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_encode_matrix_shape(self, make_session):
        sessions = [make_session(days_to_departure=d) for d in range(4)]
        schema = fit_schema(sessions)
        mat = encode_matrix(sessions, schema)
        assert mat.shape == (4, schema.dim)


class TestSnapToGrid:
    def test_nearest(self, grid3):
        assert snap_to_grid(11.0, grid3) == 0

    def test_equidistant_tie_goes_lower(self, grid3):
        assert snap_to_grid(15.0, grid3) == 0

    def test_clamped_above(self, grid3):
        assert snap_to_grid(99.0, grid3) == 2

    def test_clamped_below(self, grid3):
        assert snap_to_grid(0.5, grid3) == 0


_grids = st.lists(
    st.floats(min_value=0.01, max_value=1e4, allow_nan=False, allow_infinity=False),
    min_size=2, max_size=8, unique=True,
).map(lambda xs: PriceGrid(tuple(sorted(xs))))


@given(grid=_grids, data=st.data())
@settings(max_examples=200)
def test_snap_round_trip(grid, data):
    i = data.draw(st.integers(min_value=0, max_value=len(grid) - 1))
    assert snap_to_grid(grid.prices[i], grid) == i


@given(grid=_grids,
       price=st.floats(min_value=0.0, max_value=2e4, allow_nan=False, allow_infinity=False))
@settings(max_examples=200)
def test_snap_within_half_widest_gap(grid, price):
    clamped = grid.clamp(price)
    snapped = grid.prices[snap_to_grid(price, grid)]
    widest = max(b - a for a, b in zip(grid.prices, grid.prices[1:]))
    assert abs(snapped - clamped) <= widest / 2 + 1e-12


class TestTypes:
    def test_grid_rejects_descending(self):
        with pytest.raises(ValueError):
            PriceGrid((30.0, 20.0))

    def test_grid_rejects_single_point(self):
        with pytest.raises(ValueError):
            PriceGrid((30.0,))

    def test_grid_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PriceGrid((0.0, 10.0))

    @pytest.mark.parametrize("prices", [(30.0, float("nan"), 50.0), (30.0, float("inf")),
                                        (float("nan"), 30.0), (float("-inf"), 30.0)])
    def test_grid_rejects_non_finite(self, prices):
        with pytest.raises(ValueError, match="finite"):
            PriceGrid(prices)

    def test_session_invariants(self, make_session):
        with pytest.raises(ValueError):
            make_session(price_offered=0.0)
        with pytest.raises(ValueError):
            make_session(group_size=0)
        with pytest.raises(ValueError):
            make_session(purchased=2)
        with pytest.raises(ValueError):
            make_session(length_of_stay=-1)

    @pytest.mark.parametrize("price", [float("nan"), float("inf"), float("-inf")])
    def test_session_rejects_non_finite_price(self, make_session, price):
        with pytest.raises(ValueError, match="finite"):
            make_session(price_offered=price)

    def test_quote_validation(self):
        with pytest.raises(ValueError):
            Quote(recommended_price=10.0, policy_tag=PolicyTag.HUMAN,
                  purchase_prob_estimate=1.5)
        with pytest.raises(ValueError):
            Quote(recommended_price=-1.0, policy_tag=PolicyTag.HUMAN)

    @pytest.mark.parametrize("price", [float("nan"), float("inf")])
    def test_quote_refuses_a_non_finite_price(self, price):
        with pytest.raises(ValueError, match="finite"):
            Quote(recommended_price=price, policy_tag=PolicyTag.HUMAN)

    def test_quote_to_dict_keeps_the_reply_key_order(self):
        q = Quote(recommended_price=30.0, policy_tag=PolicyTag.APP_LM,
                  purchase_prob_estimate=0.25, model_version="gnb:abc")
        assert list(q.to_dict().items()) == [
            ("recommended_price", 30.0), ("policy", "APP_LM"),
            ("model_version", "gnb:abc"), ("purchase_prob", 0.25)]
        bare = Quote(recommended_price=30.0, policy_tag=PolicyTag.HUMAN)
        assert list(bare.to_dict()) == ["recommended_price", "policy", "model_version"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_encode_rejects_non_finite(self, make_session, bad):
        schema = fit_schema([make_session(price_comparison_score=0.1),
                             make_session(price_comparison_score=0.5)])
        with pytest.raises(ValueError, match="feature vector contains non-finite values"):
            encode(make_session(price_comparison_score=bad), schema)

    def test_encode_row_immutable(self, make_session):
        schema = fit_schema([make_session(days_to_departure=1),
                             make_session(days_to_departure=3)])
        vec = encode(make_session(), schema)
        with pytest.raises(ValueError):
            vec[0] = 9.0
