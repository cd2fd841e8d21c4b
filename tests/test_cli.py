import contextlib
import hashlib
import io
import json
import os
import signal
import socket
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


def test_simulate_log_is_pinned(tmp_path):
    """SHA-256 of a seeded log from a calibrated market with a random price
    discount: a change to how sessions are drawn, calibrated, priced or
    written must show here."""
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({**SIM_CFG, "n_sessions": 300,
                               "calibrate": {"target_rate": 0.06, "sample_size": 2000}}))
    out = tmp_path / "log.jsonl"
    assert cli(["simulate", "--config", str(cfg), "--out", str(out), "--seed", "5"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "24c30860fd3e4c89db7b50329a8c3107b150c8f28d0a25cc96f8c0599033add8")


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


@pytest.mark.parametrize("field,value", [
    ("days_to_departure", 10 ** 300),  # both class likelihoods vanish: a NaN posterior
    ("extra_features", {"route_popularity": 1.7e308}),  # overflows its z-score
], ids=["huge-days", "huge-extra"])
def test_recommend_finite_but_huge_number_is_data_error(workdir, capsys, field, value):
    doc = session_to_dict(export_sessions(default_market_spec(), 1, seed=42)[0])
    doc[field] = value
    assert cli(["recommend", "--ckpt", str(workdir / "gnbc.ckpt.json"),
                "--session", json.dumps(doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("model", ["gnb", "gnbc"])
def test_refused_huge_number_prints_no_numpy_warning(workdir, capsys, model):
    """The overflow on the way to ``NonFiniteInput`` stays quiet: the
    refusal is the one line the caller sees."""
    doc = session_to_dict(export_sessions(default_market_spec(), 1, seed=42)[0])
    doc["days_to_departure"] = 10 ** 300
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli(["recommend", "--ckpt", str(workdir / f"{model}.ckpt.json"),
                    "--session", json.dumps(doc)]) == 2
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_checkpoint_path_naming_a_directory_is_data_error(workdir, tmp_path, capsys):
    doc = session_to_dict(export_sessions(default_market_spec(), 1, seed=42)[0])
    assert cli(["recommend", "--ckpt", str(tmp_path), "--session", json.dumps(doc)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    cfg_path = tmp_path / "ab.json"  # "" resolves to the config's own directory
    cfg_path.write_text(json.dumps({
        "market": "default", "grid": SIM_CFG["grid"], "days": 1, "sessions_per_day": 10,
        **_with_arm(policy="app_lm", checkpoint="")}))
    assert cli(["abtest", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("flag,name", [("--config", "."), ("--out", "."),
                                       ("--config", "sim.json/x")])
def test_config_or_output_path_that_is_no_file_is_data_error(workdir, tmp_path, capsys,
                                                             flag, name):
    paths = {"--config": str(workdir / "sim.json"), "--out": str(tmp_path / "o.jsonl"),
             flag: str(workdir / name)}
    assert cli(["simulate", "--config", paths["--config"], "--out", paths["--out"]]) == 2
    assert capsys.readouterr().err.startswith("error:")


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


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
def test_serve_exits_promptly_on_sigint(workdir, signum):
    """With a keep-alive connection open and idle, SIGINT or SIGTERM ends
    ``serve`` with exit 0 well inside the connection's 30 s deadline."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "ancillary_pricing.cli", "serve",
         "--ckpt", str(workdir / "gnb.ckpt.json"), "--addr", "127.0.0.1:0"],
        env={**os.environ, "PYTHONPATH": str(src)}, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    try:
        port = int(proc.stdout.readline().decode().rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            assert sock.recv(4096).startswith(b"HTTP/1.1 200 ")
            proc.send_signal(signum)
            _, err = proc.communicate(timeout=5)
        assert proc.returncode == 0, err.decode()
    finally:
        proc.kill()
        proc.wait(timeout=10)


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


def _market(**fields) -> dict:
    """The default market's config object with ``fields`` set."""
    return {"market": {**market_spec_to_doc(default_market_spec()), **fields}}


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
    ("abtest", {**_with_arm(policy="human"), "seed": -3}),
    ("simulate", _market(dtd_max=0)),
    ("simulate", _market(los_max=0)),
    ("simulate", _market(one_way_share=1.5)),
    ("simulate", _market(one_way_share=-0.1)),
    ("simulate", _market(dtd_slop=-0.3)),  # a misspelled key is no field
    ("abtest", {**_with_arm(policy="human"), **_market(los_max=-2)}),
    ("abtest", {**_with_arm(policy="human"), "seed": 9.7}),  # integers only, never truncated
    ("abtest", {**_with_arm(policy="human"), "seed": True}),
    ("abtest", {**_with_arm(policy="human"), "days": 1.5}),
    ("abtest", {**_with_arm(policy="human"), "sessions_per_day": True}),
    ("simulate", {"n_sessions": 10.0}),
    ("simulate", {"n_sessions": False}),
    ("simulate", _market(dtd_max=1.5)),
    ("simulate", _market(los_max=2.5)),
    ("simulate", {"price_noise": {"mean_discount": "x"}}),  # finite numbers only
    ("simulate", {"price_noise": {"mean_discount": float("nan")}}),
    ("simulate", {"price_noise": {"std_discount": float("inf")}}),
    ("simulate", {"price_noise": {"mean_discount": True}}),
    ("simulate", {"price_noise": {"mean_discount": 10 ** 400}}),  # no float holds it
    ("abtest", _with_arm(policy="random_discount", mean_discount=float("nan"))),
    ("abtest", _with_arm(policy="random_discount", std_discount=float("inf"))),
    ("simulate", {"grid": [30, float("nan"), 50]}),
    ("simulate", {"grid": [30, 40, float("inf")]}),
    ("simulate", {"grid": [30, 40, 10 ** 400]}),
    ("abtest", {**_with_arm(policy="human"), "grid": [30, float("nan"), 50]}),
    ("simulate", {"n_sessions": -3}),
    ("simulate", {"n_sessions": 0}),
    ("abtest", _with_arm(**_APP_LM, logistic={"max_price": float("nan"), "shape": 12.0,
                                              "midpoint": 0.35})),
    ("simulate", {"price_noise": 5}),  # objects only
    ("simulate", {"calibrate": 5}),
    ("abtest", _with_arm(policy="human", split=float("nan"))),  # passes the sum check
    ("abtest", {"arms": [{"name": "A", "policy": "human", "split": 1.5},
                         {"name": "B", "policy": "human", "split": -0.5}]}),
    ("abtest", _with_arm(policy="human", name=5)),  # names are strings
    ("abtest", _with_arm(policy="human", name="A")),  # and distinct
    ("abtest", {**_with_arm(policy="human"), "static_price": 10 ** 400}),  # no float holds it
    ("abtest", {"arms": [{"name": "A", "policy": "human", "split": 10 ** 400},
                         {"name": "B", "policy": "human", "split": 0}]}),
    ("abtest", _with_arm(**_APP_LM, p_ref=10 ** 400)),
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


_EPS = {"policy": "epsilon_greedy", "explore_checkpoint": "gnb.ckpt.json",
        "exploit_checkpoint": "app-dnn.ckpt.json"}


@pytest.mark.parametrize("command,doc,key", [
    ("simulate", {"grid": ["30", "40", "50"]}, "grid"),
    ("abtest", {**_with_arm(policy="human"), "grid": ["30", "40", "50"]}, "grid"),
    ("abtest", _with_arm(policy="human", split="0.5"), "split"),
    ("abtest", {"arms": [{"name": "A", "policy": "human", "split": True},
                         {"name": "B", "policy": "human", "split": 0}]}, "split"),
    ("abtest", {**_with_arm(policy="human"), "static_price": "40"}, "static_price"),
    ("abtest", _with_arm(**_APP_LM, p_ref="45"), "p_ref"),
    ("abtest", _with_arm(**_APP_LM, p_ref=True), "p_ref"),
    ("abtest", _with_arm(**_EPS, epsilon=True), "epsilon"),
    ("abtest", _with_arm(**_APP_LM, logistic=[]), "logistic"),
    ("abtest", {**_with_arm(policy="human"), "baseline_arm": []}, "baseline_arm"),
    ("abtest", {**_with_arm(policy="human"), "baseline_arm": ["A"]}, "baseline_arm"),
    ("abtest", {**_with_arm(policy="human"), "baseline_arm": {"A": 1}}, "baseline_arm"),
    ("abtest", {**_with_arm(policy="human"), "arms": {"A": 1}}, "arms"),
    ("abtest", _with_arm(policy=["human"]), "policy"),
    ("abtest", _with_arm(policy="app_lm", checkpoint=5), "checkpoint"),
    ("abtest", {**_with_arm(policy="human"), "days": None}, "days"),
    ("simulate", {"price_noise": {"mean_discount": "10"}}, "mean_discount"),
    ("simulate", {"calibrate": {"target_rate": True}}, "target_rate"),
])
def test_config_value_of_the_wrong_kind_is_data_error(workdir, capsys, command, doc, key):
    """A number is a JSON number, an integer a JSON integer, a name, policy
    or path a string: never a string for a number, nor ``true``. The error
    names ``key``."""
    base = SIM_CFG if command == "simulate" else {"days": 1, "sessions_per_day": 10}
    cfg_path = workdir / "wrong_kind.json"  # the arms' checkpoint names resolve here
    cfg_path.write_text(json.dumps({**base, **doc}))
    assert cli([command, "--config", str(cfg_path), "--out", str(workdir / "wrong_kind.out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad {key}:")


@pytest.mark.parametrize("command,doc,key", [
    ("simulate", {}, "n_sessions"),
    ("abtest", {"days": 1, "sessions_per_day": 10}, "arms"),
    ("abtest", {"arms": [{"name": "A", "split": 1.0}]}, "policy"),
    ("abtest", {"arms": [{"name": "A", "policy": "human", "split": 0.5},
                         {"name": "B", "policy": "app_des", "split": 0.5}]}, "checkpoint"),
])
def test_missing_config_key_is_named(tmp_path, capsys, command, doc, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: config needs {key!r}\n"


@pytest.mark.parametrize("command", ["recommend", "simulate", "abtest"])
def test_path_the_os_refuses_is_data_error(workdir, tmp_path, capsys, command):
    too_long = str(tmp_path / ("x" * 300))  # no file system takes a 300-byte name
    cfg = tmp_path / "cfg.json"
    if command == "recommend":
        argv = ["--ckpt", too_long, "--session", "{}"]
    elif command == "simulate":
        cfg.write_text(json.dumps({"n_sessions": 5}))
        argv = ["--config", str(cfg), "--out", too_long]
    else:
        cfg.write_text(json.dumps({"days": 1, "sessions_per_day": 10, **_with_arm(
            policy="app_des", checkpoint=too_long)}))
        argv = ["--config", str(cfg), "--out", str(tmp_path / "o")]
    assert cli([command, *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "File name too long" in err


@pytest.mark.parametrize("command", ["simulate", "abtest"])
def test_negative_seed_flag_is_data_error(tmp_path, capsys, monkeypatch, command):
    import ancillary_pricing.cli as cli_module

    monkeypatch.setattr(cli_module, "_spec_from_cfg",
                        lambda cfg, seed: pytest.fail("the market came before the seed check"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**SIM_CFG, **_with_arm(policy="human"), "days": 1,
                                    "sessions_per_day": 10}))
    assert cli([command, "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad seed:")
    assert "Traceback" not in err


def test_session_count_is_checked_before_calibration(tmp_path, capsys, monkeypatch):
    import ancillary_pricing.cli as cli_module

    monkeypatch.setattr(cli_module, "_spec_from_cfg",
                        lambda cfg, seed: pytest.fail("the market came before n_sessions"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**SIM_CFG, "n_sessions": -3}))
    assert cli(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: bad n_sessions:")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("size", [1e308, float("inf"), 2.5, 0, -1, True, "x"])
def test_sample_size_is_checked_before_calibration(tmp_path, capsys, monkeypatch, size):
    import ancillary_pricing.cli as cli_module

    monkeypatch.setattr(cli_module, "calibrate",
                        lambda *a, **k: pytest.fail("calibrated before sample_size was checked"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**SIM_CFG,
                                    "calibrate": {"target_rate": 0.06, "sample_size": size}}))
    assert cli(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: bad sample_size:")


@pytest.mark.parametrize("command", ["simulate", "abtest"])
def test_config_that_is_no_object_is_data_error(tmp_path, capsys, command):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("[]")
    assert cli([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_batch_commands_do_not_load_the_http_stack(tmp_path):
    """Only ``serve`` imports the service. Checked in a fresh interpreter,
    because this one has imported the service for its own tests."""
    cfg_path = tmp_path / "ab.json"
    cfg_path.write_text(json.dumps({
        "market": "default", "grid": SIM_CFG["grid"], "days": 1, "sessions_per_day": 10,
        "arms": [{"name": "HUMAN", "policy": "human", "split": 0.5},
                 {"name": "RANDOM", "policy": "random_discount", "split": 0.5}]}))
    script = ("import sys\n"
              "from ancillary_pricing.cli import cli\n"
              "assert cli(['abtest', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
              "print([m for m in sys.argv[3:] if m in sys.modules])\n")
    http_stack = ["http.server", "http.client", "email.parser", "socketserver", "uuid"]
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(cfg_path), str(tmp_path / "o.json"), *http_stack],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_service_does_not_load_the_stdlib_http_server():
    """The service frames requests itself: importing it loads neither
    ``http.server`` nor what that imports. Checked in a fresh interpreter."""
    script = ("import sys\n"
              "import ancillary_pricing.service\n"
              "print([m for m in sys.argv[1:] if m in sys.modules])\n")
    stdlib_server = ["http.server", "http.client", "socketserver", "email.parser", "mimetypes"]
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", script, *stdlib_server],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("grid", ["30,nan,50", "30,40,inf"])
def test_non_finite_grid_flag_is_usage_error(tmp_path, capsys, grid):
    assert cli(["train", "--model", "gnb", "--data", str(tmp_path / "none.jsonl"),
                "--out", str(tmp_path / "o.json"), "--grid", grid]) == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("logistic", ["nan,12,0.35", "50,inf,0.35", "50,12,nan"])
def test_non_finite_logistic_flag_is_usage_error(tmp_path, capsys, logistic):
    assert cli(["train", "--model", "gnb", "--data", str(tmp_path / "none.jsonl"),
                "--out", str(tmp_path / "o.json"), "--logistic", logistic]) == 1
    assert "finite" in capsys.readouterr().err


def test_steep_logistic_map_quotes_p_min(workdir, tmp_path, capsys):
    """exp(-shape * (prob - midpoint)) overflows a float: the price is p_min."""
    ckpt = tmp_path / "steep.ckpt.json"
    assert cli(["train", "--model", "gnb", "--data", str(workdir / "train.jsonl"),
                "--out", str(ckpt), "--grid", GRID_ARG, "--logistic", "50,3000,0.35"]) == 0
    capsys.readouterr()
    doc = session_to_dict(export_sessions(default_market_spec(), 1, seed=42)[0])
    assert cli(["recommend", "--ckpt", str(ckpt), "--session", json.dumps(doc)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["purchase_prob"] < 0.35 - 709.8 / 3000  # the exponent is past exp's range
    assert out["recommended_price"] == 30.0


@pytest.mark.parametrize("model,flags", [
    ("app-dnn", ["--epochs", "-1"]),
    ("app-dnn", ["--dropout", "1.5"]),
    ("app-dnn", ["--lr", "0"]),
    ("app-dnn", ["--batch-size", "0"]),
    ("dnn-cl", ["--c1", "2"]),
    ("gnbc", ["--k", "0"]),
    ("gnbc", ["--seed", "-1"]),
    ("app-dnn", ["--lr", "nan"]),  # non-finite settings: refused, not a non-finite loss
    ("app-dnn", ["--decay", "inf"]),
    ("dnn-cl", ["--c2", "inf"]),
    ("dnn-cl", ["--c2", "nan"]),
    ("gnb", ["--p-ref", "nan"]),  # refused before fitting, not after
    ("gnb", ["--p-ref", "-5"]),
    ("app-dnn", ["--logistic", "50,12,0.35"]),  # APP-LM settings a network would drop
    ("app-dnn", ["--p-ref", "40"]),
    ("dnn-cl", ["--logistic", "50,12,0.35"]),
    ("dnn-cl", ["--p-ref", "40"]),
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


def _misspelled_param(doc):
    doc["params"]["k_cluster"] = 3


@pytest.mark.parametrize("edit", [
    _set("model_type", "foo"), _set("params", {}), _set("grid", [5.0]),
    _negative_max_price, _short_array, _no_grid, _set("hyperparameters", []),
    _misspelled_param,
], ids=["model-type", "empty-params", "one-point-grid", "negative-max-price",
        "shape-not-data", "no-grid", "hyperparameters-list", "misspelled-param"])
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


def _six_arm_cfg(workdir: Path) -> dict:
    """A one-day abtest of 300 sessions over every policy kind, naming one
    checkpoint by relative, absolute and ``./`` paths."""
    return {
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


def test_abtest_loads_each_checkpoint_once(workdir, tmp_path, monkeypatch):
    import ancillary_pricing.cli as cli_module

    cfg = _six_arm_cfg(workdir)
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


def test_abtest_output_is_pinned(workdir, tmp_path):
    """SHA-256 of a seeded six-arm ``abtest.json``, taken before the demand
    models each had one prediction body: a change to what any arm quotes
    or to how the result is written must show here."""
    cfg_path = workdir / "ab_pin.json"  # the relative checkpoint paths resolve here
    cfg_path.write_text(json.dumps(_six_arm_cfg(workdir)))
    out = tmp_path / "abtest.json"
    assert cli(["abtest", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "3e35d95c19fed09b1bf3d56b7b54ed46cca20c7f6b0d55179fa505e176bcf9a5")


@pytest.mark.parametrize("command", ["recommend", "simulate", "abtest", "train", "evaluate"])
def test_file_that_is_not_utf8_is_data_error(workdir, tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    out = str(tmp_path / "out")
    argv = {"recommend": ["--ckpt", str(bad), "--session", "{}"],
            "simulate": ["--config", str(bad), "--out", out],
            "abtest": ["--config", str(bad), "--out", out],
            "train": ["--model", "gnb", "--data", str(bad), "--out", out],
            "evaluate": ["--ckpt", str(workdir / "gnb.ckpt.json"), "--data", str(bad),
                         "--report", out]}[command]
    assert cli([command, *argv]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def _sub_market(**fields) -> dict:
    """The default market's config object with ``fields`` set in its first sub-market."""
    market = market_spec_to_doc(default_market_spec())
    market["sub_markets"][0].update(fields)
    return {"market": market}


@pytest.mark.parametrize("command,doc", [
    ("simulate", _sub_market(wtp_log_mean=1e308)),
    ("simulate", _sub_market(wtp_log_std=2 ** 70)),
    ("simulate", _sub_market(pcs_slope=1e300)),
    ("simulate", _sub_market(wtp_log_mean=float("nan"))),
    ("simulate", _market(booking_class_bumps={"business": 1e308})),
    ("simulate", _market(booking_class_bumps={"business": "x"})),
    ("simulate", _market(dtd_max=2 ** 70)),
    ("simulate", _market(los_max=2 ** 63)),
    ("abtest", {**_with_arm(policy="human"), **_market(dtd_max=2 ** 70)}),
    ("abtest", {**_with_arm(policy="human"), **_sub_market(wtp_log_std=2 ** 70)}),
], ids=["wtp-mean", "wtp-std", "pcs-slope", "wtp-mean-nan", "bump", "bump-not-a-number",
        "dtd-max", "los-max", "abtest-dtd-max", "abtest-wtp-std"])
def test_market_value_that_overflows_is_data_error(tmp_path, capsys, command, doc):
    base = {"n_sessions": 20} if command == "simulate" else {"days": 1, "sessions_per_day": 10}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**base, **doc}))
    assert cli([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: bad market spec:")


def test_largest_int64_draw_bounds_still_simulate(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_sessions": 5, **_market(dtd_max=2 ** 63 - 1,
                                                          los_max=2 ** 63 - 1)}))
    assert cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.jsonl")]) == 0
    assert len(read_sessions(tmp_path / "o.jsonl")) == 5


# Every number of a market document: (path into the "market" object).
_MARKET_NUMBERS = [
    ("static_price",), ("target_base_conversion",), ("dtd_max",), ("los_max",),
    ("one_way_share",), ("booking_class_bumps", "flex"),
    *[("sub_markets", 0, name) for name in (
        "weight", "wtp_log_mean", "wtp_log_std", "dtd_slope", "los_bonus", "group_slope",
        "pcs_slope", "popularity", "popularity_slope")],
    ("sub_markets", 0, "los_window", 0), ("sub_markets", 0, "los_window", 1),
]


@pytest.mark.parametrize("raw", ["NaN", "1e309", '"x"', "true"],
                         ids=["nan", "1e309", "string", "bool"])
@pytest.mark.parametrize("path", _MARKET_NUMBERS,
                         ids=[".".join(map(str, p)) for p in _MARKET_NUMBERS])
def test_market_number_that_is_no_finite_number_is_data_error(tmp_path, capsys, path, raw):
    market = market_spec_to_doc(default_market_spec())
    parent = market
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = "<raw>"  # replaced by the JSON text ``raw`` below
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_sessions": 5, "market": market}).replace('"<raw>"', raw))
    assert cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_checkpoint_whose_schema_and_model_disagree_is_data_error(workdir, tmp_path,
                                                                  monkeypatch, capsys):
    from ancillary_pricing.service import PricingService

    doc = json.loads((workdir / "gnb.ckpt.json").read_text())
    del doc["checksum"]
    doc["schema"]["numeric"].pop()  # the model still reads the feature
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    doc["checksum"] = hashlib.sha256(canonical.encode()).hexdigest()
    ckpt = tmp_path / "mismatch.ckpt.json"
    ckpt.write_text(json.dumps(doc))
    # A checkpoint that loads would be served: return instead of serving forever.
    monkeypatch.setattr(PricingService, "serve_forever", lambda self: self.shutdown())
    session = json.dumps(session_to_dict(export_sessions(default_market_spec(), 1, seed=42)[0]))
    assert cli(["recommend", "--ckpt", str(ckpt), "--session", session]) == 2
    assert cli(["serve", "--ckpt", str(ckpt), "--addr", "127.0.0.1:0"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error:") and "schema" in line for line in err)


@pytest.mark.parametrize("key,value", [("std", 0.0), ("std", -1.0), ("std", float("inf")),
                                       ("mean", float("nan"))],
                         ids=["std-zero", "std-negative", "std-infinite", "mean-nan"])
def test_checkpoint_whose_schema_scale_is_unusable_is_data_error(workdir, tmp_path,
                                                                 monkeypatch, capsys,
                                                                 key, value):
    """A z-score the encoder cannot apply (a division by zero, or a sign or
    a scale that silently garbles the feature) verifies but does not decode."""
    from ancillary_pricing.service import PricingService

    doc = json.loads((workdir / "gnb.ckpt.json").read_text())
    doc["schema"]["numeric"][0][key] = value
    ckpt = tmp_path / "scale.ckpt.json"
    ckpt.write_text(json.dumps(_rehash(doc)))  # NaN, Infinity
    monkeypatch.setattr(PricingService, "serve_forever", lambda self: self.shutdown())
    session = json.dumps(session_to_dict(export_sessions(default_market_spec(), 1, seed=42)[0]))
    assert cli(["recommend", "--ckpt", str(ckpt), "--session", session]) == 2
    assert cli(["serve", "--ckpt", str(ckpt), "--addr", "127.0.0.1:0"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("error:") and "does not decode" in line and key in line
               for line in err)


def test_train_whose_feature_spread_overflows_is_data_error(workdir, tmp_path, capsys):
    """A feature of +-1e200 has a finite mean but a variance no float holds:
    one error line naming it, no numpy warning, no checkpoint."""
    log = tmp_path / "huge.jsonl"
    docs = [session_to_dict(s) for s in read_sessions(workdir / "train.jsonl")[:100]]
    for k, doc in enumerate(docs):
        doc["extra_features"]["route_popularity"] = 1e200 if k % 2 else -1e200
    log.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    out = tmp_path / "m.ckpt.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli(["train", "--model", "gnb", "--data", str(log), "--out", str(out),
                    "--grid", GRID_ARG]) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "'route_popularity'" in err[0]
    assert not out.exists()

# Values a config key may hold by mistake: any JSON value, weighted towards
# bools, numeric strings, NaN, infinities, a number no float holds, a path no
# file system takes, lists and objects.
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 60) | st.floats()
    | st.sampled_from([10 ** 400, "0.5", "40", "inf", "NaN", "", "HUMAN", "x" * 300])
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=4)
# A size asks for work in proportion to it: only small values, or ones of the wrong kind.
_SIZE = st.integers(-1, 12) | st.sampled_from([2.5, 1e308, float("inf"), True, "3", None, [], {}])
_CALIBRATE = st.fixed_dictionaries({}, optional={"target_rate": _ANY_JSON,
                                                 "sample_size": st.integers(1, 300) | _SIZE})
_MISSING = object()
_TOP_VALUES = {
    "seed": st.integers(0, 9) | _ANY_JSON, "grid": _ANY_JSON, "market": _ANY_JSON,
    "n_sessions": _SIZE, "days": _SIZE, "sessions_per_day": _SIZE,
    "price_noise": _ANY_JSON, "calibrate": _CALIBRATE | _ANY_JSON,
    "static_price": _ANY_JSON, "sessions_per_day_distribution": _ANY_JSON,
    "baseline_arm": _ANY_JSON, "arms": _ANY_JSON,
}
_ARM_KEYS = ("name", "policy", "split", "price", "mean_discount", "std_discount", "checkpoint",
             "explore_checkpoint", "exploit_checkpoint", "logistic", "p_ref", "epsilon")


def _fuzz_base() -> dict:
    """A valid config of both commands: four abtest arms, one per kind of
    arm setting."""
    return {"n_sessions": 5, "grid": [30, 35, 40, 45, 50], "days": 1, "sessions_per_day": 8,
            "arms": [
                {"name": "HUMAN", "policy": "human", "split": 0.25, "price": 40},
                {"name": "RANDOM", "policy": "random_discount", "split": 0.25,
                 "mean_discount": 8.0, "std_discount": 4.0},
                {"name": "APP-LM", "policy": "app_lm", "split": 0.25,
                 "checkpoint": "gnbc.ckpt.json", "p_ref": 45.0,
                 "logistic": {"max_price": 50.0, "shape": 12.0, "midpoint": 0.35}},
                {"name": "EPS", "policy": "epsilon_greedy", "split": 0.25, "epsilon": 0.3,
                 "explore_checkpoint": "gnb.ckpt.json",
                 "exploit_checkpoint": "app-dnn.ckpt.json"}]}


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["simulate", "abtest"]),
       top=st.lists(st.sampled_from(sorted(_TOP_VALUES)), max_size=2, unique=True).flatmap(
           lambda keys: st.fixed_dictionaries({k: st.just(_MISSING) | _TOP_VALUES[k]
                                               for k in keys})),
       arm=st.integers(0, 3),
       arm_edits=st.dictionaries(st.sampled_from(_ARM_KEYS), st.just(_MISSING) | _ANY_JSON,
                                 max_size=2))
def test_any_config_value_is_run_or_refused(workdir, command, top, arm, arm_edits):
    """Each key of a valid config, top-level or of an arm, takes any JSON
    value or is left out: the command runs (0) or refuses the config with
    an ``error:`` line (2), and never ends in a traceback."""
    cfg = _fuzz_base()
    for doc, edits in ((cfg["arms"][arm], arm_edits), (cfg, top)):
        for key, value in edits.items():
            if value is _MISSING:
                doc.pop(key, None)
            else:
                doc[key] = value
    cfg_path = workdir / "fuzz.json"  # the arms' checkpoint names resolve here
    cfg_path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli([command, "--config", str(cfg_path), "--out", str(workdir / "fuzz.out")])
    assert code in (0, 2) and "Traceback" not in err.getvalue()
    assert code == 0 or err.getvalue().startswith("error:")


@pytest.mark.parametrize("baseline", ["NOPE", "HUMAN"])
def test_baseline_arm_that_names_no_arm_is_data_error(tmp_path, capsys, baseline):
    arms = [{"name": "A", "policy": "human", "split": 0.5},
            {"name": "B", "policy": "human", "split": 0.5}]
    cfg_path = tmp_path / "ab.json"
    for doc, code in (({}, 0), ({"baseline_arm": None}, 0), ({"baseline_arm": "B"}, 0),
                      ({"baseline_arm": baseline}, 2)):
        cfg_path.write_text(json.dumps({"days": 1, "sessions_per_day": 10, "arms": arms,
                                        **doc}))
        assert cli(["abtest", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert err.startswith("error:") and "baseline_arm" in err


@pytest.mark.parametrize("price", [-5, 0, float("nan"), float("inf")])
def test_static_price_no_arm_uses_is_still_checked(tmp_path, capsys, price):
    cfg_path = tmp_path / "ab.json"
    cfg_path.write_text(json.dumps({
        "days": 1, "sessions_per_day": 10, "static_price": price,
        "arms": [{"name": "A", "policy": "human", "split": 0.5, "price": 40},
                 {"name": "B", "policy": "human", "split": 0.5, "price": 50}]}))
    assert cli(["abtest", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "static_price" in err


@pytest.mark.parametrize("model,flag", [("dnn-cl", "--lr"), ("dnn-cl", "--c2"),
                                        ("app-dnn", "--lr")])
def test_refused_training_run_prints_no_numpy_warning(workdir, tmp_path, capsys, model, flag):
    """A finite but huge setting overflows on the way to ``NonFiniteLoss``:
    the refusal is the one line the caller sees."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli(["train", "--model", model, "--data", str(workdir / "train.jsonl"),
                    "--out", str(tmp_path / "m.json"), "--grid", GRID_ARG, "--epochs", "2",
                    flag, "1e308"]) == 2
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "non-finite loss" in err[0]
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("model,refusal", [("dnn-cl", "error: non-finite weights"),
                                           ("app-dnn", "error: non-finite outputs")],
                         ids=["dnn-cl", "app-dnn"])
def test_training_whose_last_update_is_unusable_is_refused(workdir, tmp_path, capsys,
                                                           model, refusal):
    """One step whose loss is finite but whose update overflows: the weights
    of the last update are checked, and so are the outputs they give the
    training rows (app-dnn's weights stay finite but too large to evaluate).
    No checkpoint is written."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli(["train", "--model", model, "--data", str(workdir / "train.jsonl"),
                    "--out", str(tmp_path / "m.json"), "--grid", GRID_ARG, "--epochs", "1",
                    "--batch-size", "100000", "--lr", "1e308"]) == 2
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(refusal)
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("command", ["recommend", "evaluate"])
@pytest.mark.parametrize("model", ["dnn-cl", "app-dnn"])
def test_checkpoint_whose_network_overflows_is_refused(workdir, tmp_path, capsys,
                                                       model, command):
    """Weights that verify but overflow the network give NaN: one error line
    that names both causes, no numpy warning, and never a ``p_min`` quote."""
    doc = json.loads((workdir / f"{model}.ckpt.json").read_text())
    mlp = doc["params"]["mlp"]
    for w, b in zip(mlp["weights"], mlp["biases"]):
        w["data"] = [v * 1e300 for v in w["data"]]
        b["data"] = [v + 1e300 for v in b["data"]]
    ckpt = tmp_path / "big.ckpt.json"
    ckpt.write_text(json.dumps(_rehash(doc)))
    log = workdir / "train.jsonl"
    argv = {"recommend": ["--session", log.read_text().splitlines()[0]],
            "evaluate": ["--data", str(log), "--report", str(tmp_path / "r.json")]}[command]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli([command, "--ckpt", str(ckpt), *argv]) == 2
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "out of the range" in err[0] and "weights overflow" in err[0]


@pytest.mark.parametrize("top", [0.001, 1e-5])
def test_default_grid_that_rounding_breaks_is_data_error(workdir, tmp_path, capsys, top):
    """Without --grid the 11 default points round to 4 decimals; a top price
    this small leaves no valid grid, and the error says to pass one."""
    log = tmp_path / "tiny.jsonl"
    docs = [session_to_dict(s) | {"price_offered": top}
            for s in read_sessions(workdir / "train.jsonl")[:50]]
    log.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    assert cli(["train", "--model", "gnb", "--data", str(log),
                "--out", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "--grid" in err[0]
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("port", ["65536", "99999", "²"])
def test_serve_port_out_of_range_is_data_error(workdir, capsys, monkeypatch, port):
    """Refused before the service is built, so no socket is opened."""
    from ancillary_pricing.service import PricingService

    def no_socket(*args, **kwargs):
        raise AssertionError("the service was built")

    monkeypatch.setattr(PricingService, "__init__", no_socket)
    assert cli(["serve", "--ckpt", str(workdir / "gnb.ckpt.json"),
                "--addr", f"127.0.0.1:{port}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad address") and "expected host:port" in err
