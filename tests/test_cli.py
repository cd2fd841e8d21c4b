import hashlib
import json
from pathlib import Path

import pytest

from ancillary_pricing.cli import cli
from ancillary_pricing.session_io import read_sessions, session_to_dict
from ancillary_pricing.simulator import (
    default_market_spec,
    export_sessions,
    market_spec_to_doc,
)

GRID_ARG = "30,35,40,45,50"
SIM_CFG = {
    "market": "default",
    "n_sessions": 500,
    "grid": [30, 35, 40, 45, 50],
    "price_noise": {"mean_discount": 10.0, "std_discount": 6.0},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "sim.json"
    cfg.write_text(json.dumps(SIM_CFG))
    log = root / "train.jsonl"
    assert cli(["simulate", "--config", str(cfg), "--out", str(log), "--seed", "3"]) == 0
    for model in ("gnb", "gnbc", "app-dnn", "dnn-cl"):
        code = cli(["train", "--model", model, "--data", str(log),
                    "--out", str(root / f"{model}.ckpt.json"), "--seed", "1",
                    "--grid", GRID_ARG, "--epochs", "2", "--k", "3"])
        assert code == 0
    return root


def test_no_arguments_is_usage_error(capsys):
    assert cli([]) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_unknown_command_is_usage_error(capsys):
    assert cli(["frobnicate"]) == 1


def test_missing_required_flag_is_usage_error():
    assert cli(["simulate", "--out", "x.jsonl"]) == 1


def test_simulate_is_deterministic(workdir, tmp_path):
    cfg = workdir / "sim.json"
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert cli(["simulate", "--config", str(cfg), "--out", str(out1), "--seed", "9"]) == 0
    assert cli(["simulate", "--config", str(cfg), "--out", str(out2), "--seed", "9"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    sessions = read_sessions(out1)
    assert len(sessions) == 500
    assert all(s.purchased in (0, 1) for s in sessions)


def test_simulate_missing_config_is_data_error(tmp_path):
    assert cli(["simulate", "--config", str(tmp_path / "nope.json"),
                "--out", str(tmp_path / "x.jsonl"), "--seed", "0"]) == 2


def test_train_writes_checkpoints(workdir):
    for model in ("gnb", "gnbc", "app-dnn", "dnn-cl"):
        path = workdir / f"{model}.ckpt.json"
        assert path.exists()
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 1
        assert "checksum" in doc


def test_train_on_malformed_log_is_data_error(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{broken\n")
    assert cli(["train", "--model", "gnb", "--data", str(bad),
                "--out", str(tmp_path / "m.json"), "--seed", "0"]) == 2


def test_evaluate_writes_report(workdir, tmp_path, capsys):
    report = tmp_path / "report.json"
    code = cli(["evaluate", "--ckpt", str(workdir / "gnbc.ckpt.json"),
                "--data", str(workdir / "train.jsonl"), "--report", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    assert "APP-LM" in doc["model_rows"]
    row = doc["model_rows"]["APP-LM"]
    assert row["auc"] is None or 0.0 <= row["auc"] <= 1.0
    assert "APP-LM" in capsys.readouterr().out


def test_recommend_prints_quote(workdir, capsys):
    session = export_sessions(default_market_spec(), 1, seed=42)[0]
    doc = session_to_dict(session)
    del doc["purchased"]
    code = cli(["recommend", "--ckpt", str(workdir / "dnn-cl.ckpt.json"),
                "--session", json.dumps(doc)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert 30.0 <= out["recommended_price"] <= 50.0
    assert out["policy"] == "DNN_CL"
    assert out["model_version"].startswith("dnn_cl:")


def test_recommend_matches_between_invocations(workdir, capsys):
    doc = session_to_dict(export_sessions(default_market_spec(), 1, seed=7)[0])
    args = ["recommend", "--ckpt", str(workdir / "gnb.ckpt.json"),
            "--session", json.dumps(doc)]
    assert cli(args) == 0
    first = capsys.readouterr().out
    assert cli(args) == 0
    assert capsys.readouterr().out == first


def test_recommend_malformed_session_is_data_error(workdir):
    assert cli(["recommend", "--ckpt", str(workdir / "gnb.ckpt.json"),
                "--session", "{not json"]) == 2


def test_recommend_incomplete_session_is_data_error(workdir):
    assert cli(["recommend", "--ckpt", str(workdir / "gnb.ckpt.json"),
                "--session", json.dumps({"session_id": "x"})]) == 2


def test_recommend_non_finite_price_is_data_error(workdir):
    doc = session_to_dict(export_sessions(default_market_spec(), 1, seed=42)[0])
    doc["price_offered"] = float("nan")
    assert cli(["recommend", "--ckpt", str(workdir / "gnb.ckpt.json"),
                "--session", json.dumps(doc)]) == 2


def test_corrupted_checkpoint_is_data_error(workdir, tmp_path):
    doc = json.loads((workdir / "gnb.ckpt.json").read_text())
    doc["params"]["log_prior0"] = -0.123456
    bad = tmp_path / "bad.ckpt.json"
    bad.write_text(json.dumps(doc))
    assert cli(["recommend", "--ckpt", str(bad),
                "--session", json.dumps(session_to_dict(
                    export_sessions(default_market_spec(), 1, seed=1)[0]))]) == 2


def test_abtest_runs_and_is_deterministic(workdir, tmp_path):
    cfg = {
        "market": "default",
        "grid": SIM_CFG["grid"],
        "days": 3,
        "sessions_per_day": 400,
        "seed": 5,
        "arms": [
            {"name": "HUMAN", "policy": "human", "split": 0.4},
            {"name": "RANDOM", "policy": "random_discount", "split": 0.3,
             "mean_discount": 8.0, "std_discount": 4.0},
            {"name": "APP-LM", "policy": "app_lm", "split": 0.3,
             "checkpoint": "gnbc.ckpt.json"},
        ],
    }
    cfg_path = workdir / "ab.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "ab1.json", tmp_path / "ab2.json"
    assert cli(["abtest", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli(["abtest", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert set(doc["report"]["arm_rows"]) == {"HUMAN", "RANDOM", "APP-LM"}
    assert len(doc["daily"]["HUMAN"]) == 3
    total = sum(r["offers"] for r in doc["report"]["arm_rows"].values())
    assert total == 1200


def test_abtest_seed_flag_overrides_config(workdir, tmp_path):
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    cfg_path = workdir / "ab.json"
    assert cli(["abtest", "--config", str(cfg_path), "--out", str(out1),
                "--seed", "99"]) == 0
    assert cli(["abtest", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_abtest_epsilon_greedy_arm(workdir, tmp_path):
    cfg = {
        "market": "default",
        "grid": SIM_CFG["grid"],
        "days": 2,
        "sessions_per_day": 200,
        "seed": 2,
        "arms": [
            {"name": "HUMAN", "policy": "human", "split": 0.5},
            {"name": "EPS", "policy": "epsilon_greedy", "split": 0.5,
             "epsilon": 0.3, "explore_checkpoint": "gnbc.ckpt.json",
             "exploit_checkpoint": "app-dnn.ckpt.json"},
        ],
    }
    cfg_path = workdir / "ab_eps.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "eps.json"
    assert cli(["abtest", "--config", str(cfg_path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["arm_rows"]["EPS"]["offers"] > 0


def test_serve_bad_address_is_data_error(workdir):
    assert cli(["serve", "--ckpt", str(workdir / "gnb.ckpt.json"),
                "--addr", "nonsense"]) == 2


def test_serve_env_var_overrides_addr_flag(workdir, monkeypatch):
    # a broken env value must win over a valid flag, proving the override
    monkeypatch.setenv("ANCILLARY_PRICING_ADDR", "also-nonsense")
    assert cli(["serve", "--ckpt", str(workdir / "gnb.ckpt.json"),
                "--addr", "127.0.0.1:0"]) == 2


def test_log_level_flag_accepted(workdir, tmp_path):
    cfg = workdir / "sim.json"
    out = tmp_path / "log.jsonl"
    assert cli(["--log-level", "debug", "simulate", "--config", str(cfg),
                "--out", str(out), "--seed", "1"]) == 0


def test_abtest_bad_arm_config_is_data_error(workdir, tmp_path):
    cfg = {
        "market": "default",
        "grid": SIM_CFG["grid"],
        "days": 1,
        "sessions_per_day": 10,
        "arms": [
            {"name": "A", "policy": "human", "split": 0.5},
            {"name": "B", "policy": "dnn_cl", "split": 0.5,
             "checkpoint": str(workdir / "gnb.ckpt.json")},  # wrong model type
        ],
    }
    cfg_path = tmp_path / "bad_ab.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli(["abtest", "--config", str(cfg_path), "--out",
                str(tmp_path / "o.json")]) == 2


def _with_arm(**arm) -> dict:
    """abtest config entries: a HUMAN arm plus ``arm`` as the second arm."""
    return {"arms": [{"name": "A", "policy": "human", "split": 0.5},
                     {"name": "B", "split": 0.5, **arm}]}


_APP_LM = {"policy": "app_lm", "checkpoint": "gnb.ckpt.json"}


@pytest.mark.parametrize("command,doc", [
    ("abtest", _with_arm(policy="epsilon_greedy", epsilon=2,
                         explore_checkpoint="gnb.ckpt.json",
                         exploit_checkpoint="app-dnn.ckpt.json")),
    ("abtest", _with_arm(policy="human", price=999)),
    ("abtest", _with_arm(policy="human", split="x")),
    ("abtest", _with_arm(policy="random_discount", std_discount=-1)),
    ("abtest", _with_arm(**_APP_LM, logistic={"max_price": -1, "shape": 12.0,
                                              "midpoint": 0.35})),
    ("abtest", _with_arm(**_APP_LM, logistic={"shape": 12.0})),
    ("abtest", _with_arm(**_APP_LM, p_ref="abc")),
    ("abtest", _with_arm(**_APP_LM, p_ref=-5)),
    ("abtest", {**_with_arm(policy="human"), "seed": "x"}),
    ("simulate", {"n_sessions": "abc"}),
    ("simulate", {"price_noise": {"std_discount": -1}}),
    ("simulate", {"calibrate": {"target_rate": "x"}}),
])
def test_config_value_a_constructor_refuses_is_data_error(workdir, tmp_path, capsys,
                                                          command, doc):
    """``doc`` overrides entries of a valid abtest or simulate config."""
    base = SIM_CFG if command == "simulate" else {
        "market": "default", "grid": SIM_CFG["grid"], "days": 1, "sessions_per_day": 10}
    cfg = {**base, **doc}
    if "arms" in cfg:  # checkpoint names resolve in the module's work directory
        cfg["arms"] = [{k: str(workdir / v) if k.endswith("checkpoint") else v
                        for k, v in arm.items()} for arm in cfg["arms"]]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("model,flags", [
    ("app-dnn", ["--epochs", "-1"]),
    ("app-dnn", ["--dropout", "1.5"]),
    ("app-dnn", ["--lr", "0"]),
    ("app-dnn", ["--batch-size", "0"]),
    ("dnn-cl", ["--c1", "2"]),
    ("gnbc", ["--k", "0"]),
])
def test_train_setting_is_checked_before_the_data_is_read(tmp_path, capsys, model, flags):
    """The log does not exist: the settings error must come first."""
    assert cli(["train", "--model", model, "--data", str(tmp_path / "missing.jsonl"),
                "--out", str(tmp_path / "m.ckpt.json"), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad train settings:")
    assert "Traceback" not in err


def test_train_checkpoints_are_pinned(workdir):
    """SHA-256 over the four checkpoints ``train`` writes from the module's
    log, taken from the hand-written writers the codec replaced: a change
    to how a checkpoint is written must show here."""
    h = hashlib.sha256()
    for model in ("gnb", "gnbc", "app-dnn", "dnn-cl"):
        h.update((workdir / f"{model}.ckpt.json").read_bytes())
    assert h.hexdigest() == "bf62c768c561b69a526b5f046ca30a542fb80eb51f866edf0ece43a46f2c302c"


def _rehash(doc: dict) -> dict:
    """``doc`` with a checksum that verifies again, as ``save_checkpoint`` computes it."""
    payload = {k: v for k, v in doc.items() if k != "checksum"}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return {**payload, "checksum": hashlib.sha256(blob).hexdigest()}


def _set(key, value):
    def edit(doc):
        doc[key] = value
    return edit


def _negative_max_price(doc):
    doc["hyperparameters"]["logistic"]["max_price"] = -50.0


def _short_array(doc):
    doc["params"]["gnb"]["mean0"]["data"].pop()


def _no_grid(doc):
    del doc["grid"]


@pytest.mark.parametrize("edit", [
    _set("model_type", "foo"), _set("params", {}), _set("grid", [5.0]),
    _negative_max_price, _short_array, _no_grid, _set("hyperparameters", []),
], ids=["model-type", "empty-params", "one-point-grid", "negative-max-price",
        "shape-not-data", "no-grid", "hyperparameters-list"])
def test_checkpoint_that_verifies_but_does_not_decode_is_data_error(workdir, tmp_path,
                                                                   capsys, edit):
    doc = json.loads((workdir / "gnbc.ckpt.json").read_text())
    edit(doc)
    bad = tmp_path / "bad.ckpt.json"
    bad.write_text(json.dumps(_rehash(doc)))
    session = session_to_dict(export_sessions(default_market_spec(), 1, seed=1)[0])
    assert cli(["recommend", "--ckpt", str(bad), "--session", json.dumps(session)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_train_bad_p_ref_is_data_error(workdir, tmp_path):
    assert cli(["train", "--model", "gnb", "--data", str(workdir / "train.jsonl"),
                "--out", str(tmp_path / "gnb.ckpt.json"), "--grid", GRID_ARG,
                "--p-ref", "-5"]) == 2


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), -0.2])
def test_simulate_bad_sub_market_weight_is_data_error(tmp_path, weight):
    market = market_spec_to_doc(default_market_spec())
    market["sub_markets"][0]["weight"] = weight
    if weight == -0.2:  # the weights still sum to 1
        market["sub_markets"][2]["weight"] = 0.95
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"market": market, "n_sessions": 10}))  # NaN, Infinity
    assert cli(["simulate", "--config", str(cfg), "--out",
                str(tmp_path / "out.jsonl")]) == 2


@pytest.mark.parametrize("pair", ["JFK-LHR", ["JFK", "LHR", "SFO"], ["JFK"]],
                         ids=["dash-joined", "three-codes", "one-code"])
def test_simulate_market_pair_of_other_arity_is_data_error(tmp_path, capsys, pair):
    market = market_spec_to_doc(default_market_spec())
    market["sub_markets"][0]["markets"][0] = pair
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"market": market, "n_sessions": 10}))
    assert cli(["simulate", "--config", str(cfg), "--out",
                str(tmp_path / "out.jsonl")]) == 2
    assert capsys.readouterr().err.startswith("error: bad market spec:")


def test_abtest_loads_each_checkpoint_once(workdir, tmp_path, monkeypatch):
    import ancillary_pricing.cli as cli_module

    cfg = {
        "market": "default",
        "grid": SIM_CFG["grid"],
        "days": 1,
        "sessions_per_day": 300,
        "seed": 4,
        "arms": [
            {"name": "HUMAN", "policy": "human", "split": 0.17},
            {"name": "RANDOM", "policy": "random_discount", "split": 0.17},
            {"name": "APP-LM", "policy": "app_lm", "split": 0.17,
             "checkpoint": "gnbc.ckpt.json"},
            {"name": "APP-DES", "policy": "app_des", "split": 0.17,
             "checkpoint": "app-dnn.ckpt.json"},
            {"name": "DNN-CL", "policy": "dnn_cl", "split": 0.16,
             "checkpoint": str(workdir / "dnn-cl.ckpt.json")},
            {"name": "EPS-GREEDY", "policy": "epsilon_greedy", "split": 0.16,
             "explore_checkpoint": str(workdir / "gnbc.ckpt.json"),
             "exploit_checkpoint": "./app-dnn.ckpt.json"},
        ],
    }
    cfg_path = workdir / "ab_six.json"
    cfg_path.write_text(json.dumps(cfg))
    loads = []
    real_load = cli_module.load_checkpoint
    monkeypatch.setattr(cli_module, "load_checkpoint",
                        lambda path: loads.append(path) or real_load(path))
    shared, separate = tmp_path / "shared.json", tmp_path / "separate.json"
    assert cli(["abtest", "--config", str(cfg_path), "--out", str(shared)]) == 0
    assert len(loads) == 3  # relative, absolute and ./ paths to one file are one key

    # Reference: every arm loads its own checkpoints, as before the cache.
    real_arm = cli_module._arm_from_doc
    monkeypatch.setattr(cli_module, "_arm_from_doc",
                        lambda doc, grid, price, base, bundles: real_arm(doc, grid, price,
                                                                         base, {}))
    loads.clear()
    assert cli(["abtest", "--config", str(cfg_path), "--out", str(separate)]) == 0
    assert len(loads) == 5
    assert shared.read_bytes() == separate.read_bytes()
