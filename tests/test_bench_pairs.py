"""scripts/bench_pairs.py on fake run outputs: digest parsing, the
per-seed artifact comparison and the guard on an existing claim."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [{"name": "latency_ms", "unit": "ms", "better": "lower"}]}


def _stdout(latency: float, digest: str | None) -> str:
    lines = ["workload abtest_six_arm  seed 1  trace 0",
             'machine {"cpus": 2}']
    if digest is not None:
        lines.append(f"digest {digest}")
    result = {"correct": True, "attempted": 4, "failed": 0,
              "metrics": {"latency_ms": {"value": latency, "unit": "ms"}}}
    return "\n".join(lines + [json.dumps(result)]) + "\n"


def test_run_once_reads_machine_and_digest(monkeypatch, tmp_path):
    fake = subprocess.CompletedProcess([], 0, stdout=_stdout(80.0, "ab12"), stderr="")
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: fake)
    result = bench_pairs.run_once(tmp_path, "abtest_six_arm", 1, 1.0)
    assert result["digest"] == "ab12"
    assert result["machine"] == {"cpus": 2}
    assert result["metrics"]["latency_ms"]["value"] == 80.0


def _runs(digests: list[tuple[int, str, str | None]]) -> list[dict]:
    runs = []
    for seed, side, digest in digests:
        run = json.loads(_stdout(90.0 if side == "parent" else 80.0, digest).splitlines()[-1])
        if digest is not None:
            run["digest"] = digest
        runs.append({"side": side, "seed": seed, **run})
    return runs


def test_artifacts_identical_per_seed():
    runs = _runs([(1, "parent", "aa"), (1, "change", "aa"),
                  (2, "change", "bb"), (2, "parent", "cc"),
                  (1, "parent", "aa"), (1, "change", "aa"),
                  (3, "parent", "dd")])
    assert bench_pairs.artifacts_identical(runs) == {"1": True, "2": False, "3": False}
    entry = bench_pairs.summarize(SPEC, "abtest_six_arm", [1, 2, 1], runs[:6])
    assert entry["artifacts_identical"] == {"1": True, "2": False}
    assert entry["latency_ms"]["change_wins"] == "3/3"


@pytest.mark.parametrize("digests", [
    [(1, "parent", None), (1, "change", None)],
    [],
])
def test_no_digest_no_entry(digests):
    runs = _runs(digests)
    assert bench_pairs.artifacts_identical(runs) is None
    if runs:
        assert "artifacts_identical" not in bench_pairs.summarize(
            SPEC, "serve_keepalive", [1], runs)


def _main(monkeypatch, tmp_path, run_once, *argv: str) -> None:
    """``main`` in a checkout at ``tmp_path`` with ``run_once`` faked."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({**SPEC, "run_seconds": 1}))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr("sys.argv", ["bench_pairs.py", "--parent", str(tmp_path / "parent"),
                                     "--seeds", "1-2", "--pr", "99", *argv])
    bench_pairs.main()


def _fake_run(checkout, workload, seed, seconds):
    side = "change" if checkout == bench_pairs.ROOT else "parent"
    return json.loads(_stdout(80.0 if side == "change" else 90.0, None).splitlines()[-1])


def test_claim_on_another_workload_is_refused_before_any_run(monkeypatch, tmp_path, capsys):
    bench = tmp_path / "BENCH_99.json"
    bench.write_text(json.dumps({"claim": {"metric": "latency_ms",
                                           "workload": "serve_keepalive", "met": True}}))
    before = bench.read_bytes()

    def no_run(*args):
        raise AssertionError("ran the benchmark")

    with pytest.raises(SystemExit) as exit_info:
        _main(monkeypatch, tmp_path, no_run, "--workload", "abtest_six_arm",
              "--claim", "latency_ms")
    assert exit_info.value.code == 2
    assert "already claims latency_ms on serve_keepalive" in capsys.readouterr().err
    assert bench.read_bytes() == before


def test_claim_on_the_same_workload_is_recorded_again(monkeypatch, tmp_path):
    bench = tmp_path / "BENCH_99.json"
    bench.write_text(json.dumps({"claim": {"metric": "latency_ms",
                                           "workload": "abtest_six_arm", "met": False},
                                 "end_to_end": {"serve_keepalive": {"pairs": 10}}}))
    _main(monkeypatch, tmp_path, _fake_run, "--workload", "abtest_six_arm",
          "--claim", "latency_ms")
    doc = json.loads(bench.read_text())
    assert doc["claim"]["workload"] == "abtest_six_arm" and doc["claim"]["met"] is True
    assert doc["end_to_end"]["serve_keepalive"] == {"pairs": 10}
    assert doc["end_to_end"]["abtest_six_arm"]["latency_ms"]["change_wins"] == "2/2"


def test_a_run_without_claim_keeps_another_workloads_claim(monkeypatch, tmp_path):
    bench = tmp_path / "BENCH_99.json"
    claim = {"metric": "latency_ms", "workload": "abtest_six_arm", "met": True}
    bench.write_text(json.dumps({"claim": claim}))
    _main(monkeypatch, tmp_path, _fake_run, "--workload", "serve_keepalive")
    doc = json.loads(bench.read_text())
    assert doc["claim"] == claim and "serve_keepalive" in doc["end_to_end"]
