"""Measure the baseline: every workload on several seeds, plus one traced run.

    python3 perfbench/baseline.py [--seeds 1,2,...] [--workloads a,b] [--out FILE]

Run from the root of a source checkout. For each workload it runs
``run.py`` once per seed with tracing off and reports, per end-to-end
metric, the median and the quartile spread: (Q3 - Q1) / median, with the
quartiles of ``statistics.quantiles(values, n=4)``. Then it makes one
traced run on the first seed. The result, with the machine info that
``run.py`` prints, is written as JSON (default perfbench/baseline.json).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    info = {}
    for line in lines:
        if line.startswith("machine "):
            info["machine"] = json.loads(line[len("machine "):])
        elif line.startswith("digest "):
            info["digest"] = line.split()[1]
    return json.loads(lines[-1]), info


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: those in BENCHMARK.json")
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    doc = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    for workload in workloads:
        values: dict[str, list[float]] = {}
        digests = {}
        for seed in seeds:
            result, info = bench(workload, seed, seconds, 0)
            doc["machine"] = info["machine"]
            if "digest" in info:
                digests[seed] = info["digest"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        traced, _ = bench(workload, seeds[0], seconds, 1)
        entry = {"end_to_end": {}, "traced_seed": seeds[0],
                 "per_layer": {k: m["value"] for k, m in traced["metrics"].items()}}
        for m in spec["end_to_end"]:
            s = spread(values[m["name"]])
            s.update(unit=m["unit"], bound=m["bound"], values=values[m["name"]])
            entry["end_to_end"][m["name"]] = s
            print(f"  {m['name']:<18} median {s['median']:.6g} spread {s['spread']:.4f} "
                  f"(bound {m['bound']})", flush=True)
        if digests:
            entry["digests"] = digests
        doc["workloads"][workload] = entry
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
