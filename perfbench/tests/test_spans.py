"""Unit tests for the benchmark's span recorder, self-time rule,
percentile rule and per-layer accounting.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import inspect
import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
from spans import Tracer, is_wrapped, median, self_times, tail_percentile  # noqa: E402


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_nested_spans_link_parents_and_share_the_root_trace_id():
    tracer = Tracer()
    with tracer.span("cli.train", label="gnb") as root:
        with tracer.span("core.encode_dataset") as child:
            with tracer.span("core.encode") as leaf:
                pass
    with tracer.span("cli.evaluate") as other:
        pass
    assert [s.name for s in tracer.spans] == [
        "cli.train", "core.encode_dataset", "core.encode", "cli.evaluate"]
    assert root.parent is None and child.parent is root and leaf.parent is child
    assert root.label == "gnb"
    assert root.trace == child.trace == leaf.trace
    assert other.trace != root.trace
    assert root.start <= child.start <= leaf.start <= leaf.end <= child.end <= root.end


def test_wrap_records_a_span_per_call_and_runs_the_after_hook():
    tracer = Tracer(clock=FakeClock(1.0, 4.0))
    wrapped = tracer.wrap(lambda x: x * 2, "double",
                          after=lambda t, a, k, r: t.add("doubled", r))
    assert wrapped(21) == 42
    (span,) = tracer.spans
    assert (span.name, span.start, span.end, span.parent) == ("double", 1.0, 4.0, None)
    assert tracer.counters["doubled"] == 42


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    with tracer.span("next") as nxt:
        pass
    assert nxt.parent is None  # the failed span was popped off the stack


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    tracer = Tracer(clock=FakeClock(0.0, 1.0, 3.0, 2.0, 5.0, 8.0, 12.0, 10.0))
    with tracer.span("root"):
        with tracer.span("a"):
            pass
        # children that overlap (as from two threads) and one that ends late
        b = tracer._open("b")[0]
        b.end = tracer.clock()   # 2.0 .. 5.0 overlaps a (1.0 .. 3.0)
        tracer._local.stack.pop()
        c = tracer._open("c")[0]
        c.end = tracer.clock()   # 8.0 .. 12.0 runs past the root's end
        tracer._local.stack.pop()
    root, a, b, c = tracer.spans
    assert (root.start, root.end) == (0.0, 10.0)
    # covered: [1, 5] and [8, 10] -> 6 of the root's 10
    assert self_times(tracer.spans) == [4.0, 2.0, 3.0, 4.0]


def test_tail_percentile_is_the_highest_with_ten_samples_beyond():
    assert tail_percentile(range(1, 1001)) == (99.0, 990, 1000)
    assert tail_percentile(range(1, 10_011)) == (99.9, 10_000, 10_010)
    # 999 samples: p99 leaves only 9 beyond it, so p95 is reported
    assert tail_percentile(range(1, 1000)) == (95.0, 950, 999)
    assert tail_percentile([5.0, 1.0, 3.0]) == (100.0, 5.0, 3)
    with pytest.raises(ValueError):
        tail_percentile([])


def test_median():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 2, 3]) == 2.5


def _fake_package():
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def encode(x):
        return x + 1

    class Model:
        def predict(self, x):
            return core.encode(x) * 10

    core.encode, core.Model = encode, Model
    user.encode = encode        # as after "from .core import encode"
    pkg.encode = encode
    return {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}


def test_patch_replaces_every_alias_and_unpatch_restores_them(monkeypatch):
    mods = _fake_package()
    for name, mod in mods.items():
        monkeypatch.setitem(sys.modules, name, mod)
    original_encode = mods["fakepkg.core"].encode
    original_predict = mods["fakepkg.core"].Model.__dict__["predict"]
    tracer = Tracer()
    tracer.patch_function("fakepkg", "fakepkg.core", "encode", "core.encode")
    tracer.patch_method(mods["fakepkg.core"].Model, "predict", "model.predict")
    for mod in mods.values():
        assert is_wrapped(mod.encode)
    assert mods["fakepkg.core"].Model().predict(1) == 20
    assert mods["fakepkg.user"].encode(1) == 2
    assert [s.name for s in tracer.spans] == ["model.predict", "core.encode", "core.encode"]
    assert tracer.spans[1].parent is tracer.spans[0]
    tracer.unpatch()
    for mod in mods.values():
        assert mod.encode is original_encode
    assert mods["fakepkg.core"].Model.__dict__["predict"] is original_predict


def _wrapped_attributes(package: str) -> list[str]:
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package or name.startswith(package + ".")):
            continue
        for attr, value in vars(mod).items():
            if is_wrapped(value):
                found.append(f"{name}.{attr}")
            if inspect.isclass(value):
                found += [f"{name}.{attr}.{k}" for k, v in vars(value).items() if is_wrapped(v)]
    return found


def test_install_then_unpatch_leaves_nothing_behind_in_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "src"))
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert "ancillary_pricing.cli.calibrate" in _wrapped_attributes(layers.PACKAGE)
        assert "ancillary_pricing.policies.encode" in _wrapped_attributes(layers.PACKAGE)
        assert ("ancillary_pricing.mlp.MlpDemandModel.predict_proba_grid"
                in _wrapped_attributes(layers.PACKAGE))
    finally:
        tracer.unpatch()
    assert _wrapped_attributes(layers.PACKAGE) == []


def test_layer_metrics_count_eps_greedy_sub_quotes_and_encodes():
    tracer = Tracer()
    with tracer.span("simulator.run_abtest"):
        for _ in range(3):
            with tracer.span("simulator.gen_session"):
                pass
            with tracer.span("policies.quote", label="EPS-GREEDY"):
                for sub in ("EPS-GREEDY-explore", "EPS-GREEDY-exploit"):
                    with tracer.span("policies.quote", label=sub):
                        with tracer.span("core.encode"):
                            pass
        with tracer.span("policies.quote", label="HUMAN"):
            pass
    m = layers.layer_metrics(tracer)
    assert set(m) <= set(layers.PER_LAYER)
    assert m["policies.eps_useful_ratio"] == 0.5
    assert m["core.encode_calls"] == 6
    assert m["core.encode_per_quote"] == 6 / 4
    assert m["simulator.gen_session_calls"] == 3
    assert 0.0 < m["simulator.ab_quote_share"] <= 1.0
    assert m["policies.quote_us.HUMAN"] > 0.0


def test_benchmark_json_matches_the_harness():
    doc = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.PER_LAYER
    assert doc["paths"] == ["perfbench"]
    assert any(m["name"] == "setup_s" and m["better"] == "lower" for m in doc["end_to_end"])


def test_in_process_metrics_are_the_fastest_repetition_scaled_to_the_reference_speed(
        monkeypatch, tmp_path):
    results = {
        "import": {},
        "abtest": {"times": [0.30, 0.20, 0.25], "refs": [0.008, 0.0075, 0.009],
                   "digests": ["d", "d", "d"], "failures": [], "peak_rss_mb": 43.0},
    }
    walls = iter([0.4, 0.3, 0.5, 0.2, 99.0, 0.6, 0.7, 0.1, 0.35])  # 99.0: the abtest child
    bench = run.Bench(tmp_path, tmp_path, deadline=float("inf"))
    monkeypatch.setattr(bench, "child", lambda step, **kw: (results[step], next(walls)))
    args = types.SimpleNamespace(workload="abtest_six_arm", seed=0, seconds=1.0, trace=0)
    out = bench._in_process(args, "abtest", 1, 1000, "one-day abtest command", 0.0)
    scale = run.REF_S / 0.0075
    assert out["e2e"]["latency_ms"] == pytest.approx(0.20 * scale * 1e3)
    assert out["e2e"]["throughput_per_s"] == pytest.approx(1000 / (0.20 * scale))
    # the median of all 8 set-ups, scaled by the loop timed before them
    assert len(bench.setup_refs) == 2 * run.SETUPS * run.REF_LOOPS
    assert out["e2e"]["setup_s"] == pytest.approx(0.375 * run.REF_S / min(bench.setup_refs))
    assert out["attempted"] == 3 and out["failed"] == 0
