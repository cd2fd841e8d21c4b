"""Run the benchmark in alternating parent/change pairs and record the result.

    python3 scripts/bench_pairs.py --parent DIR --workload abtest_six_arm \
        --seeds 11-20 --pr <n> [--pairs 10] [--claim latency_ms]

``DIR`` is a source checkout of the parent commit (``git archive`` or
``git clone``); the change is the checkout this script lives in. Pair k
runs ``perfbench/run.py --trace 0`` once in each checkout on the k-th seed
for the ``run_seconds`` of ``BENCHMARK.json`` (seeds are reused in turn
when there are more pairs than seeds), and
alternates which side runs first. Each side's median and quartiles
(``statistics.quantiles(n=4)``), the relative change of the medians and
the number of pairs the change wins (ties count for neither side) are
written under ``end_to_end.<workload>`` of ``BENCH_<pr>.json`` at the
root of this checkout. Other keys of an existing file are kept. When the
workload prints an artifact ``digest``, ``artifacts_identical`` records per
seed whether every run of both sides wrote the same artifacts, so a change
meant to be bit-identical shows it from the same runs.

A gain counts when the change wins at least nine tenths of the pairs and
the medians differ by more than the parent's interquartile range; each
metric records whether that holds. ``--claim`` names the metric the change
claims, and is recorded as the file's ``claim``; when the file already
claims another workload, the script exits with status 2 before any run and
leaves the file as it is. Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """``11-20`` or ``1,4,9`` (or a mix) as a list of ints."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if hi else [int(lo)])
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``checkout``: its result plus the
    machine and digest lines it prints."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=1800)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("machine "):
            result["machine"] = json.loads(line[len("machine "):])
        elif line.startswith("digest "):
            result["digest"] = line[len("digest "):].strip()
    return result


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def artifacts_identical(runs: list[dict]) -> dict[str, bool] | None:
    """Per seed: whether both sides ran it and all its runs printed one
    digest. None when no run printed a digest."""
    digests: dict[int, dict[str, set]] = {}
    for r in runs:
        if "digest" in r:
            digests.setdefault(r["seed"], {}).setdefault(r["side"], set()).add(r["digest"])
    if not digests:
        return None
    return {str(seed): len(sides) == 2 and len(sides["parent"] | sides["change"]) == 1
            for seed, sides in sorted(digests.items())}


def summarize(spec: dict, workload: str, seeds: list[int], runs: list[dict]) -> dict:
    """The ``end_to_end.<workload>`` entry from the runs of both sides."""
    entry: dict = {"pairs": len(runs) // 2, "seeds": seeds}
    by_side = {side: [r for r in runs if r["side"] == side] for side in ("parent", "change")}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in by_side.items()}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        gap = parent["median"] - change["median"]
        entry[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "parent": parent, "change": change,
            "relative_change": round(-gap / parent["median"], 4) if parent["median"] else None,
            "change_wins": f"{wins}/{len(values['change'])}",
            "gain_rule_met": (wins >= 0.9 * len(values["change"])
                              and (gap if lower else -gap) > parent["q3"] - parent["q1"]),
            "values": values,
        }
    entry["operations"] = {
        side: {"attempted": sum(r["attempted"] for r in rs),
               "failed": sum(r["failed"] for r in rs),
               "all_correct": all(r["correct"] for r in rs)}
        for side, rs in by_side.items()}
    identical = artifacts_identical(runs)
    if identical is not None:
        entry["artifacts_identical"] = identical
    return entry


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="source checkout of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 11-20 or 1,4,9")
    parser.add_argument("--pr", required=True, type=int, help="writes BENCH_<pr>.json")
    parser.add_argument("--pairs", type=int, default=None, help="default: one per seed")
    parser.add_argument("--claim", default=None, help="the end-to-end metric claimed")
    args = parser.parse_args()

    out_path = ROOT / f"BENCH_{args.pr}.json"
    doc = json.loads(out_path.read_text()) if out_path.exists() else {}
    claimed = doc.get("claim")
    if args.claim and claimed and claimed["workload"] != args.workload:
        parser.error(f"{out_path.name} already claims {claimed['metric']} on "
                     f"{claimed['workload']}; a claim on {args.workload} would replace it")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    pairs = len(seeds) if args.pairs is None else args.pairs
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    runs, machine = [], None
    for k in range(pairs):
        seed = seeds[k % len(seeds)]
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, seed, seconds)
            machine = result.pop("machine", machine)
            runs.append({"side": side, "seed": seed, **result})
            values = {n: round(m["value"], 4) for n, m in result["metrics"].items()}
            print(f"pair {k + 1}/{pairs} seed {seed} {side}: {values}", flush=True)

    doc.update({
        "harness": "python3 perfbench/run.py --workload <w> --seed <s> "
                   f"--seconds {seconds:g} --trace 0|1",
        "machine": machine,
        "run_seconds": seconds,
        "method": ("pairs of runs per workload (one seed per pair, alternating which side "
                   "runs first), made by scripts/bench_pairs.py; parent = the commit before "
                   "this change, change = this commit; medians and quartiles over each "
                   "side's runs"),
    })
    entry = summarize(spec, args.workload, [r["seed"] for r in runs[::2]], runs)
    doc.setdefault("end_to_end", {})[args.workload] = entry
    if args.claim:
        doc["claim"] = {"metric": args.claim, "workload": args.workload,
                        "met": entry[args.claim]["gain_rule_met"],
                        "rule": "change wins >= 9/10 pairs and the median gap exceeds "
                                "the parent IQR"}
    out_path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for metric in spec["end_to_end"]:
        e = entry[metric["name"]]
        print(f"{metric['name']:<18} parent {e['parent']['median']:.6g} -> change "
              f"{e['change']['median']:.6g} ({e['relative_change']:+.2%}), change wins "
              f"{e['change_wins']}, gain rule {'met' if e['gain_rule_met'] else 'not met'}")
    if "artifacts_identical" in entry:
        same = entry["artifacts_identical"]
        print(f"artifacts identical on {sum(same.values())}/{len(same)} seeds")


if __name__ == "__main__":
    main()
