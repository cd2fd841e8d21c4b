"""The part of the benchmark that runs inside a child process.

``run.py`` starts this script once per step with the package's source
tree on PYTHONPATH, so imports, memory and CPU of a timed run belong to
that run alone. Each step writes one JSON result to the path given by
``--result``. Steps:

  import          import the CLI and load the workload's checkpoints
  prepare-serve   train the APP-DES checkpoint, build the request pool
  replay          in-process replay of the service handler over the pool
  prepare-abtest  calibrate the market, train three checkpoints, evaluate
                  one, write the six-arm abtest config
  pipeline        run the c12 flow through cli([...]) until --seconds
  abtest          run the one-day six-arm abtest through cli([...]) until
                  --seconds
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import time
from pathlib import Path

from spans import Tracer, median

import layers

TRAIN_FLAGS = ["--epochs", "8", "--batch-size", "128"]
AB_DAYS, AB_SESSIONS_PER_DAY = 1, 1000
AB_TRACE_PAIRS = 3  # untraced/traced command pairs in a traced abtest run
REF_LOOPS = 2       # reference-loop timings before each repetition
C12_DAYS, C12_SESSIONS_PER_DAY = 30, 400
SERVE_POOL = 256


def _cli():
    import ancillary_pricing
    from ancillary_pricing.cli import cli

    src = Path(os.environ["PERFBENCH_SRC"]).resolve()
    if src not in Path(ancillary_pricing.__file__).resolve().parents:
        raise SystemExit(f"ancillary_pricing imported from {ancillary_pricing.__file__}, "
                         f"not from {src}")
    return cli


def _grid_arg() -> str:
    from ancillary_pricing.simulator import DEFAULT_GRID
    return ",".join(str(float(p)) for p in DEFAULT_GRID.prices)


class Runner:
    """Runs CLI commands in-process, each as one root span when tracing."""

    def __init__(self, tracer=None):
        self.cli = _cli()
        self.tracer = tracer
        self.failures: list[str] = []

    def __call__(self, argv: list[str], label=None) -> None:
        if self.tracer is None:
            rc = self.cli(argv)
        else:
            with self.tracer.span(f"cli.{argv[0]}", label):
                rc = self.cli(argv)
        if rc != 0:
            self.failures.append(f"{' '.join(argv[:2])} exited {rc}")


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc), encoding="utf-8")


def _sim_config(n_sessions: int, market, sample_size: int | None) -> dict:
    from ancillary_pricing.simulator import DEFAULT_GRID
    cfg = {"market": market, "n_sessions": n_sessions, "grid": list(DEFAULT_GRID.prices),
           "price_noise": {"mean_discount": 10.0, "std_discount": 6.0}}
    if sample_size is not None:
        cfg["calibrate"] = {"target_rate": 0.06, "sample_size": sample_size}
    return cfg


def digest(root: Path, names) -> str:
    h = hashlib.sha256()
    for name in sorted(names):
        h.update(name.encode() + b"\0")
        h.update((root / name).read_bytes())
    return h.hexdigest()


def reference_loop_s() -> float:
    """Time a fixed pure-Python loop that uses nothing of the package. Its
    best time over a run measures the host's speed during that run (see
    "Host noise" in README.md)."""
    t0 = time.perf_counter()
    s = 0
    for i in range(100_000):
        s += i * i
    return time.perf_counter() - t0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- set-up ------------------------------------------------------------

def step_import(args) -> dict:
    _cli()
    if args.workload == "abtest_six_arm":
        from ancillary_pricing.checkpoint import load_checkpoint
        from ancillary_pricing.simulator import market_spec_from_doc
        work = Path(args.work)
        for name in ("gnbc", "app-dnn", "dnn-cl"):
            load_checkpoint(work / f"{name}.ckpt.json")
        market_spec_from_doc(json.loads((work / "ab.json").read_text())["market"])
    return {}


# -- serve_keepalive -----------------------------------------------------

def step_prepare_serve(args) -> dict:
    import numpy as np
    from ancillary_pricing.checkpoint import load_checkpoint
    from ancillary_pricing.session_io import session_from_dict, session_to_dict
    from ancillary_pricing.simulator import default_market_spec, gen_session, session_stream

    run = Runner()
    work = Path(args.work)
    _write_json(work / "sim.json", _sim_config(4_000, "default", None))
    run(["simulate", "--config", str(work / "sim.json"), "--out", str(work / "train.jsonl"),
         "--seed", str(args.seed)])
    run(["train", "--model", "app-dnn", "--data", str(work / "train.jsonl"),
         "--out", str(work / "app-dnn.ckpt.json"), "--seed", str(args.seed),
         "--grid", _grid_arg(), *TRAIN_FLAGS])
    if run.failures:
        return {"failures": run.failures}
    policy = load_checkpoint(work / "app-dnn.ckpt.json").policy()
    spec = default_market_spec()
    pool = []
    for i in range(SERVE_POOL):
        record = gen_session(spec, session_stream(args.seed + 1_000_003, i)).record
        body = json.dumps(session_to_dict(record))
        quote = policy.quote(session_from_dict(json.loads(body), line=1),
                             np.random.default_rng(0))
        pool.append({"body": body, "recommended_price": quote.recommended_price,
                     "purchase_prob": quote.purchase_prob_estimate})
    _write_json(work / "pool.json", pool)
    return {"failures": []}


def _handle(body: bytes, policy) -> bytes:
    """The work the service's POST handler does for one body."""
    import numpy as np
    from ancillary_pricing.session_io import session_from_dict

    session = session_from_dict(json.loads(body.decode("utf-8")), line=1)
    quote = policy.quote(session, np.random.default_rng(0))
    reply = {"recommended_price": quote.recommended_price, "policy": quote.policy_tag.value,
             "model_version": quote.model_version}
    if quote.purchase_prob_estimate is not None:
        reply["purchase_prob"] = quote.purchase_prob_estimate
    return json.dumps(reply).encode()


def step_replay(args) -> dict:
    _cli()
    from ancillary_pricing.checkpoint import load_checkpoint

    work = Path(args.work)
    policy = load_checkpoint(work / "app-dnn.ckpt.json").policy()
    bodies = [p["body"].encode() for p in json.loads((work / "pool.json").read_text())]
    rounds = 8
    for body in bodies:  # warm-up
        _handle(body, policy)
    plain = []
    for _ in range(rounds):
        for body in bodies:
            t0 = time.perf_counter()
            _handle(body, policy)
            plain.append(time.perf_counter() - t0)
    tracer = Tracer()
    layers.install(tracer)
    try:
        for _ in range(rounds):
            for body in bodies:
                with tracer.span("service.handler"):
                    _handle(body, policy)
    finally:
        tracer.unpatch()
    tracer.dump(work / "trace.json")
    metrics = layers.layer_metrics(tracer)
    self_s = layers.self_time_by_name(tracer)
    untraced_us = median(plain) * 1e6
    traced_us = median([s.duration for s in tracer.spans if s.name == "service.handler"]) * 1e6
    metrics["service.handler_us"] = untraced_us
    metrics["trace.overhead_s"] = (traced_us - untraced_us) / 1e6
    metrics["trace.overhead_ratio"] = traced_us / untraced_us - 1.0
    return {"metrics": metrics, "self_s": self_s}


# -- pipeline_c12 --------------------------------------------------------

def _c12_pass(run: Runner, root: Path, seed: int) -> tuple[list[str], list[str]]:
    """One pass of the c12 flow; returns the artifact names and the failed checks."""
    grid = _grid_arg()
    root.mkdir()
    for tag, n, step_seed in (("train", 20_000, 120), ("eval", 4_000, 121)):
        _write_json(root / f"{tag}-sim.cfg", _sim_config(n, "default", 50_000))
        run(["simulate", "--config", str(root / f"{tag}-sim.cfg"),
             "--out", str(root / f"{tag}.jsonl"), "--seed", str(step_seed + seed)])
    for model in layers.MODELS:
        ckpt = str(root / f"{model}.ckpt.json")
        run(["train", "--model", model, "--data", str(root / "train.jsonl"), "--out", ckpt,
             "--seed", str(7 + seed), "--grid", grid, *TRAIN_FLAGS], label=model)
        run(["evaluate", "--ckpt", ckpt, "--data", str(root / "eval.jsonl"),
             "--report", str(root / f"{model}.report.json")], label=model)
    arms = [{"name": "HUMAN", "policy": "human", "split": 0.2},
            {"name": "RANDOM", "policy": "random_discount", "split": 0.2,
             "mean_discount": 10.0, "std_discount": 6.0},
            {"name": "APP-LM", "policy": "app_lm", "split": 0.2,
             "checkpoint": "gnbc.ckpt.json"},
            {"name": "APP-DES", "policy": "app_des", "split": 0.2,
             "checkpoint": "app-dnn.ckpt.json"},
            {"name": "DNN-CL", "policy": "dnn_cl", "split": 0.2,
             "checkpoint": "dnn-cl.ckpt.json"}]
    from ancillary_pricing.simulator import DEFAULT_GRID
    _write_json(root / "ab.cfg", {
        "market": "default", "grid": list(DEFAULT_GRID.prices),
        "calibrate": {"target_rate": 0.06, "sample_size": 50_000},
        "days": C12_DAYS, "sessions_per_day": C12_SESSIONS_PER_DAY,
        "seed": 122 + seed, "arms": arms})
    run(["abtest", "--config", str(root / "ab.cfg"), "--out", str(root / "abtest.json")])

    artifacts = sorted(p.name for p in root.iterdir() if p.suffix in (".json", ".jsonl"))
    bad = list(run.failures)
    for model in layers.MODELS:
        bad += _check_model_report(root / f"{model}.report.json")
    bad += _check_abtest(root / "abtest.json", 5, C12_DAYS * C12_SESSIONS_PER_DAY)
    return artifacts, bad


def _check_model_report(path: Path) -> list[str]:
    if not path.exists():
        return [f"{path.name} missing"]
    rows = json.loads(path.read_text())["model_rows"]
    return [] if len(rows) == 1 else [f"{path.name} has {len(rows)} model rows"]


def _check_abtest(path: Path, arms: int, sessions: int) -> list[str]:
    if not path.exists():
        return [f"{path.name} missing"]
    rows = json.loads(path.read_text())["report"]["arm_rows"]
    bad = []
    if len(rows) != arms:
        bad.append(f"{path.name} has {len(rows)} arm rows, expected {arms}")
    offers = sum(r["offers"] for r in rows.values())
    if offers != sessions:
        bad.append(f"{path.name} offers sum to {offers}, expected {sessions}")
    return bad


def _timed_reps(args, rep, min_reps: int, warmup: int = 0, trace_pairs: int = 1) -> dict:
    """Repeat ``rep(name, tracer)`` until --seconds have passed and at
    least ``min_reps`` ran, after ``warmup`` untimed repetitions. With
    --trace 1 it makes ``trace_pairs`` pairs of one untraced repetition,
    the reference for the tracing overhead, and one traced repetition.
    Every repetition's artifacts are checked and digested, and each is
    preceded by REF_LOOPS timings of the reference loop."""
    out = {"times": [], "refs": [], "digests": [], "failures": []}

    def once(tracer) -> float:
        out["refs"] += [reference_loop_s() for _ in range(REF_LOOPS)]
        t0 = time.perf_counter()
        dig, bad = rep(f"rep{len(out['digests'])}", tracer)
        elapsed = time.perf_counter() - t0
        out["digests"].append(dig)
        out["failures"] += bad
        return elapsed

    for _ in range(warmup):
        once(None)
    if args.trace:
        tracer = Tracer()
        traced = []
        for _ in range(trace_pairs):
            out["times"].append(once(None))
            layers.install(tracer)
            try:
                traced.append(once(tracer))
            finally:
                tracer.unpatch()
        out["traced_time"] = min(traced)
        tracer.dump(Path(args.work) / "trace.json")
        out["metrics"] = layers.layer_metrics(tracer)
        out["self_s"] = layers.self_time_by_name(tracer)
    else:
        start = time.perf_counter()
        while len(out["times"]) < min_reps or time.perf_counter() - start < args.seconds:
            out["times"].append(once(None))
    out["peak_rss_mb"] = _peak_rss_mb()
    return out


def step_pipeline(args) -> dict:
    work = Path(args.work)

    def rep(name, tracer):
        run = Runner(tracer)
        root = work / name
        artifacts, bad = _c12_pass(run, root, args.seed)
        dig = digest(root, artifacts)
        shutil.rmtree(root)
        return dig, bad

    return _timed_reps(args, rep, min_reps=1)


# -- abtest_six_arm ------------------------------------------------------

def step_prepare_abtest(args) -> dict:
    """Set-up of abtest_six_arm. With --trace 1 it is traced as well: it
    calibrates, simulates, trains and evaluates, so it measures the layers
    the timed abtest never reaches."""
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        layers.install(tracer)
    try:
        failures = _prepare_abtest(args, Runner(tracer))
    finally:
        if tracer is not None:
            tracer.unpatch()
    out = {"failures": failures}
    if tracer is not None:
        tracer.dump(Path(args.work) / "trace-setup.json")
        out["metrics"] = layers.layer_metrics(tracer)
    return out


def _prepare_abtest(args, run: Runner) -> list[str]:
    from ancillary_pricing.simulator import (DEFAULT_GRID, calibrate, default_market_spec,
                                             market_spec_to_doc)

    work = Path(args.work)
    spec = calibrate(default_market_spec(), 0.06, n=20_000, seed=args.seed)
    market = market_spec_to_doc(spec)
    _write_json(work / "sim.json", _sim_config(6_000, market, None))
    run(["simulate", "--config", str(work / "sim.json"), "--out", str(work / "train.jsonl"),
         "--seed", str(args.seed)])
    for model in ("gnbc", "app-dnn", "dnn-cl"):
        run(["train", "--model", model, "--data", str(work / "train.jsonl"),
             "--out", str(work / f"{model}.ckpt.json"), "--seed", str(args.seed),
             "--grid", _grid_arg(), *TRAIN_FLAGS], label=model)
    _write_json(work / "eval-sim.json", _sim_config(2_000, market, None))
    run(["simulate", "--config", str(work / "eval-sim.json"),
         "--out", str(work / "eval.jsonl"), "--seed", str(args.seed + 1)])
    run(["evaluate", "--ckpt", str(work / "app-dnn.ckpt.json"),
         "--data", str(work / "eval.jsonl"), "--report", str(work / "app-dnn.report.json")],
        label="app-dnn")
    arms = [{"name": "HUMAN", "policy": "human", "split": 0.17},
            {"name": "RANDOM", "policy": "random_discount", "split": 0.17,
             "mean_discount": 10.0, "std_discount": 6.0},
            {"name": "APP-LM", "policy": "app_lm", "split": 0.17,
             "checkpoint": "gnbc.ckpt.json"},
            {"name": "APP-DES", "policy": "app_des", "split": 0.17,
             "checkpoint": "app-dnn.ckpt.json"},
            {"name": "DNN-CL", "policy": "dnn_cl", "split": 0.16,
             "checkpoint": "dnn-cl.ckpt.json"},
            {"name": "EPS-GREEDY", "policy": "epsilon_greedy", "split": 0.16,
             "epsilon": 0.3, "explore_checkpoint": "gnbc.ckpt.json",
             "exploit_checkpoint": "app-dnn.ckpt.json"}]
    _write_json(work / "ab.json", {
        "market": market, "grid": list(DEFAULT_GRID.prices), "days": AB_DAYS,
        "sessions_per_day": AB_SESSIONS_PER_DAY, "seed": args.seed, "arms": arms})
    return run.failures + _check_model_report(work / "app-dnn.report.json")


def step_abtest(args) -> dict:
    work = Path(args.work)

    def rep(name, tracer):
        run = Runner(tracer)
        out = work / name / "abtest.json"
        out.parent.mkdir(exist_ok=True)
        run(["abtest", "--config", str(work / "ab.json"), "--out", str(out)])
        bad = run.failures + _check_abtest(out, 6, AB_DAYS * AB_SESSIONS_PER_DAY)
        dig = digest(out.parent, [out.name]) if out.exists() else "missing"
        return dig, bad

    return _timed_reps(args, rep, min_reps=2, warmup=1, trace_pairs=AB_TRACE_PAIRS)


STEPS = {
    "import": step_import,
    "prepare-serve": step_prepare_serve,
    "replay": step_replay,
    "prepare-abtest": step_prepare_abtest,
    "pipeline": step_pipeline,
    "abtest": step_abtest,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", choices=sorted(STEPS))
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    import numpy
    result = STEPS[args.step](args)
    result.setdefault("peak_rss_mb", _peak_rss_mb())
    result["numpy"] = numpy.__version__
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
