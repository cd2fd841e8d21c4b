import json

import numpy as np
import pytest

from ancillary_pricing.checkpoint import (
    PricingBundle,
    load_checkpoint,
    save_checkpoint,
)
from ancillary_pricing.core import PriceGrid, encode_dataset, encode_matrix, fit_schema
from ancillary_pricing.errors import ChecksumMismatch, ConfigError, UnsupportedVersion
from ancillary_pricing.gnb import fit_gnb, fit_gnbc
from ancillary_pricing.mlp import MlpDemandModel, TrainConfig, train_app
from ancillary_pricing.policies import LogisticMapParams, RandomDiscountParams
from ancillary_pricing.pricing_net import train_dnncl
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
    for row in feats:
        for price in (32.0, 41.0, 50.0):
            assert (bundle.model.predict_proba(row, price)
                    == loaded.model.predict_proba(row, price))


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
