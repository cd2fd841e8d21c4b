import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ancillary_pricing import checkpoint
from ancillary_pricing.checkpoint import (
    FORMAT_VERSION,
    MODEL_CLASSES,
    PricingBundle,
    load_checkpoint,
    save_checkpoint,
)
from ancillary_pricing.codec import decode, from_doc, to_doc
from ancillary_pricing.core import (
    CategoricalFeature,
    EncodingSchema,
    PriceGrid,
    encode_dataset,
    encode_matrix,
    fit_schema,
)
from ancillary_pricing.errors import ChecksumMismatch, ConfigError, UnsupportedVersion
from ancillary_pricing.gnb import fit_gnb, fit_gnbc
from ancillary_pricing.mlp import MlpDemandModel, TrainConfig, train_app
from ancillary_pricing.policies import LogisticMapParams, RandomDiscountParams
from ancillary_pricing.pricing_net import DnnClModel, train_dnncl
from ancillary_pricing.simulator import default_market_spec, export_sessions

GRID = PriceGrid((30.0, 35.0, 40.0, 45.0, 50.0))
LOGISTIC = LogisticMapParams(max_price=50.0, shape=12.0, midpoint=0.35)


@pytest.fixture(scope="module")
def trained():
    spec = default_market_spec()
    noise = RandomDiscountParams(10.0, 6.0, spec.static_price)
    sessions = export_sessions(spec, 400, seed=1, price_noise=noise, grid=GRID)
    schema = fit_schema(sessions)
    dataset = encode_dataset(sessions, schema, GRID)
    config = TrainConfig(epochs=2, seed=0, batch_size=32)
    bundles = {
        "gnb": PricingBundle("gnb", schema, GRID, fit_gnb(dataset),
                             logistic=LOGISTIC, p_ref=GRID.p_max),
        "gnbc": PricingBundle("gnbc", schema, GRID, fit_gnbc(dataset, k=3, seed=0),
                              logistic=LOGISTIC, p_ref=GRID.p_max),
        "app_dnn": PricingBundle(
            "app_dnn", schema, GRID,
            MlpDemandModel(mlp=train_app(dataset, hidden=(8,), config=config).model,
                           p_max=GRID.p_max)),
        "dnn_cl": PricingBundle(
            "dnn_cl", schema, GRID,
            train_dnncl(dataset, GRID, hidden=(8,), config=config).model),
    }
    probes = sessions[:60]
    return bundles, schema, probes


@pytest.mark.parametrize("model_type", ["gnb", "gnbc", "app_dnn", "dnn_cl"])
def test_round_trip_identical_quotes(trained, tmp_path, model_type):
    bundles, schema, probes = trained
    bundle = bundles[model_type]
    path = tmp_path / f"{model_type}.ckpt.json"
    save_checkpoint(bundle, path)
    loaded = load_checkpoint(path)

    rng = np.random.default_rng(0)
    before = [bundle.policy().quote(s, rng).recommended_price for s in probes]
    after = [loaded.policy().quote(s, rng).recommended_price for s in probes]
    assert before == after


@pytest.mark.parametrize("model_type", ["gnb", "gnbc", "app_dnn"])
def test_round_trip_identical_posteriors(trained, tmp_path, model_type):
    bundles, schema, probes = trained
    bundle = bundles[model_type]
    path = tmp_path / f"{model_type}.ckpt.json"
    save_checkpoint(bundle, path)
    loaded = load_checkpoint(path)
    feats = encode_matrix(probes, schema)
    for price in (32.0, 41.0, 50.0):
        prices = np.full(len(feats), price)
        assert (bundle.model.predict_proba_rows(feats, prices).tobytes()
                == loaded.model.predict_proba_rows(feats, prices).tobytes())


def test_corrupted_parameter_rejected(trained, tmp_path):
    bundles, _, _ = trained
    path = tmp_path / "gnb.ckpt.json"
    save_checkpoint(bundles["gnb"], path)
    doc = json.loads(path.read_text())
    doc["params"]["mean1"]["data"][0] += 1e-9
    path.write_text(json.dumps(doc))
    with pytest.raises(ChecksumMismatch):
        load_checkpoint(path)


def test_future_version_rejected(trained, tmp_path):
    bundles, _, _ = trained
    path = tmp_path / "gnb.ckpt.json"
    save_checkpoint(bundles["gnb"], path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 2
    path.write_text(json.dumps(doc))
    with pytest.raises(UnsupportedVersion):
        load_checkpoint(path)


def test_checkpoint_that_is_not_an_object_rejected(tmp_path):
    path = tmp_path / "list.ckpt.json"
    path.write_text("[]")
    with pytest.raises(ChecksumMismatch):
        load_checkpoint(path)


def test_loaded_version_string(trained, tmp_path):
    bundles, _, _ = trained
    path = tmp_path / "dnn.ckpt.json"
    checksum = save_checkpoint(bundles["dnn_cl"], path)
    loaded = load_checkpoint(path)
    assert loaded.version == f"dnn_cl:{checksum[:12]}"


def test_gnb_bundle_requires_logistic(trained):
    bundles, schema, _ = trained
    with pytest.raises(ConfigError):
        PricingBundle("gnb", schema, GRID, bundles["gnb"].model)


def test_policy_names_follow_model_type(trained):
    bundles, _, _ = trained
    assert bundles["gnb"].policy().name == "APP-LM"
    assert bundles["app_dnn"].policy().name == "APP-DES"
    assert bundles["dnn_cl"].policy().name == "DNN-CL"


def oracle_load(path) -> PricingBundle:
    """The loader before it checked a saved file's bytes: parse the file,
    then re-serialise the payload to check its checksum."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ChecksumMismatch(f"checkpoint is not valid JSON: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ChecksumMismatch(f"checkpoint is not UTF-8: {exc.reason}") from exc
    if not isinstance(doc, dict):
        raise ChecksumMismatch("checkpoint is not a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"checkpoint format {version!r}, expected {FORMAT_VERSION}")
    stored = doc.pop("checksum", None)
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    actual = hashlib.sha256(canonical.encode()).hexdigest()
    if stored != actual:
        raise ChecksumMismatch("checkpoint checksum does not match its contents")

    try:
        model_type = doc["model_type"]
        model_cls = MODEL_CLASSES[model_type]
        grid = PriceGrid(decode(tuple[float, ...], doc["grid"]))
        hyper = decode(dict, doc.get("hyperparameters", {}))
        given = {"grid": grid} if model_cls is DnnClModel else {}
        return PricingBundle(
            model_type=model_type,
            schema=from_doc(EncodingSchema, doc["schema"]),
            grid=grid,
            model=from_doc(model_cls, doc["params"], **given),
            logistic=decode(LogisticMapParams | None, hyper.get("logistic")),
            p_ref=decode(float | None, hyper.get("p_ref")),
            version=f"{model_type}:{actual[:12]}",
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"checkpoint {path} verifies but does not decode: "
                          f"{type(exc).__name__}: {exc}") from exc


def outcome(load, path):
    """What ``load(path)`` gives: the bundle's document, or the type and
    message of what it raised."""
    try:
        return to_doc(load(path))
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("model_type", ["gnb", "gnbc", "app_dnn", "dnn_cl"])
def test_saved_checkpoint_loads_without_re_serialising(trained, tmp_path, monkeypatch,
                                                       model_type):
    path = tmp_path / f"{model_type}.ckpt.json"
    save_checkpoint(trained[0][model_type], path)
    expected = oracle_load(path)

    def refuse(payload):
        raise AssertionError("a saved checkpoint was re-serialised")

    monkeypatch.setattr(checkpoint, "_canonical", refuse)
    loaded = load_checkpoint(path)
    assert loaded.version == expected.version
    assert to_doc(loaded) == to_doc(expected)


def _spaced_level(bundle: PricingBundle) -> PricingBundle:
    market, *rest = bundle.schema.categorical
    levels = ("AUS DEN", *market.levels[1:])
    schema = dataclasses.replace(bundle.schema, categorical=(
        CategoricalFeature(market.name, levels), *rest))
    return dataclasses.replace(bundle, schema=schema)


@pytest.mark.parametrize("layout,checked_as_saved", [
    ("json-dumps", True), ("indent-4", True), ("crlf", False), ("spaced-level", False),
])
def test_other_layouts_of_a_checkpoint_still_load(trained, tmp_path, monkeypatch,
                                                  layout, checked_as_saved):
    """Any layout of a valid document loads as before. Spaces and newlines
    alone keep it in the saved layout; a CR, or a space inside a string,
    sends it to the parse-then-re-serialise check."""
    bundle = trained[0]["gnbc"]
    path = tmp_path / "gnbc.ckpt.json"
    save_checkpoint(_spaced_level(bundle) if layout == "spaced-level" else bundle, path)
    doc = json.loads(path.read_text())
    if layout == "json-dumps":
        path.write_text(json.dumps(doc))
    elif layout == "indent-4":
        path.write_text(json.dumps(doc, indent=4))
    elif layout == "crlf":
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    expected = oracle_load(path)
    calls, canonical = [], checkpoint._canonical
    monkeypatch.setattr(checkpoint, "_canonical",
                        lambda payload: calls.append(1) or canonical(payload))
    assert to_doc(load_checkpoint(path)) == to_doc(expected)
    assert (calls == []) == checked_as_saved


def test_checkpoint_with_a_byte_order_mark_is_not_valid_json(trained, tmp_path):
    path = tmp_path / "gnb.ckpt.json"
    save_checkpoint(trained[0]["gnb"], path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    with pytest.raises(ChecksumMismatch, match="not valid JSON"):
        load_checkpoint(path)
    assert outcome(load_checkpoint, path) == outcome(oracle_load, path)


_EDITS = st.tuples(st.sampled_from(["overwrite", "insert", "delete"]),
                   st.integers(min_value=0), st.integers(0, 255))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edit=_EDITS)
def test_one_byte_edit_loads_as_the_oracle_or_the_saved_bundle(trained, tmp_path, edit):
    """Overwrite, insert or delete one byte of a saved checkpoint: the
    loader raises what the oracle raises or returns what it returns. It
    may load the saved bundle where the oracle refuses only when the edit
    adds or removes a space or a newline, and never returns another bundle."""
    op, at, byte = edit
    path = tmp_path / "gnbc.ckpt.json"
    save_checkpoint(trained[0]["gnbc"], path)
    saved, saved_bundle = path.read_bytes(), outcome(oracle_load, path)
    at %= len(saved) + (op == "insert")
    old = saved[at:at + 1] if op != "insert" else b""
    new = bytes([byte]) if op != "delete" else b""
    path.write_bytes(saved[:at] + new + saved[at + (op != "insert"):])
    got, expected = outcome(load_checkpoint, path), outcome(oracle_load, path)
    if got != expected:
        assert got == saved_bundle
        assert {old, new} - {b""} <= {b" ", b"\n"}, (op, at, byte)
    assert not isinstance(got, dict) or got == saved_bundle


def test_space_inside_a_string_loads_the_saved_bundle(trained, tmp_path):
    """The one way the loader and the oracle part: a space added inside a
    string changes the document, so the oracle refuses it, but the bytes
    checked are the saved ones, so the loader returns the saved bundle."""
    path = tmp_path / "gnbc.ckpt.json"
    save_checkpoint(trained[0]["gnbc"], path)
    saved = oracle_load(path)
    path.write_bytes(path.read_bytes().replace(b'"JFK-LHR"', b'"JFK- LHR"'))
    with pytest.raises(ChecksumMismatch, match="does not match"):
        oracle_load(path)
    assert to_doc(load_checkpoint(path)) == to_doc(saved)
