#!/usr/bin/env python3
"""Desk-scale pricing study: offline model comparison plus a simulated A/B test.

Drives the CLI end to end: simulates a discounted training log and a
held-out evaluation log on the calibrated default market, trains all four
demand/pricing models, evaluates each checkpoint, then runs every policy
(plus the human and random baselines and an epsilon-greedy composition)
through a six-arm abtest. Writes the config documents, checkpoints, reports
and `abtest.json` under --out-dir and prints both tables.

Usage:
    python scripts/run_desk_experiment.py --seed 7 --out-dir out/
"""

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

from ancillary_pricing.cli import cli
from ancillary_pricing.codec import from_doc
from ancillary_pricing.metrics import MetricReport
from ancillary_pricing.simulator import DEFAULT_GRID

GRID = list(DEFAULT_GRID.prices)
CALIBRATE = {"target_rate": 0.06, "sample_size": 50_000}
MODELS = {"gnb": "APP-LM(GNB)", "gnbc": "APP-LM", "app-dnn": "APP-DES", "dnn-cl": "DNN-CL"}


def run(step: str, argv: list[str]) -> str:
    """One CLI command and its stdout; a non-zero exit ends the script, naming the step."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli(argv)
    if code != 0:
        print(f"step {step!r} failed with exit code {code}", file=sys.stderr)
        sys.exit(code)
    return out.getvalue()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out-dir", type=Path, default=Path("out"))
    parser.add_argument("--train-sessions", type=int, default=30_000)
    parser.add_argument("--eval-sessions", type=int, default=8_000)
    parser.add_argument("--days", type=int, default=120)
    parser.add_argument("--sessions-per-day", type=int, default=1_000)
    parser.add_argument("--epochs", type=int, default=12)
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.time()

    def config(name: str, doc: dict) -> str:
        path = args.out_dir / f"{name}.config.json"
        path.write_text(json.dumps({"market": "default", "grid": GRID, "calibrate": CALIBRATE,
                                    **doc}, indent=2) + "\n")
        return str(path)

    for log, n, seed in (("train", args.train_sessions, args.seed + 1),
                         ("eval", args.eval_sessions, args.seed + 2)):
        print(f"simulating {n} {log} sessions on the market calibrated to 6% conversion ...")
        cfg = config(log, {"n_sessions": n,
                           "price_noise": {"mean_discount": 10.0, "std_discount": 6.0}})
        run(f"simulate {log}", ["simulate", "--config", cfg, "--seed", str(seed),
                                "--out", str(args.out_dir / f"{log}.jsonl")])

    rows = {}
    for model, key in MODELS.items():
        print(f"training and evaluating {model} ...")
        ckpt = args.out_dir / f"{model}.ckpt.json"
        report = args.out_dir / f"{model}.report.json"
        run(f"train {model}", ["train", "--model", model, "--out", str(ckpt),
                               "--data", str(args.out_dir / "train.jsonl"),
                               "--grid", ",".join(map(str, GRID)), "--seed", str(args.seed),
                               "--epochs", str(args.epochs), "--batch-size", "128",
                               "--dropout", "0.05"])
        run(f"evaluate {model}", ["evaluate", "--ckpt", str(ckpt), "--report", str(report),
                                  "--data", str(args.out_dir / "eval.jsonl")])
        single = from_doc(MetricReport, json.loads(report.read_text()))
        rows[key] = next(iter(single.model_rows.values()))
    offline = MetricReport(seed=single.seed, dataset_id=single.dataset_id, model_rows=rows)
    (args.out_dir / "offline_report.json").write_text(offline.to_json())
    print()
    print(offline.render_text())

    arms = [{"name": "HUMAN", "policy": "human"},
            {"name": "RANDOM", "policy": "random_discount",
             "mean_discount": 10.0, "std_discount": 6.0},
            {"name": "APP-LM", "policy": "app_lm", "checkpoint": "gnbc.ckpt.json"},
            {"name": "APP-DES", "policy": "app_des", "checkpoint": "app-dnn.ckpt.json"},
            {"name": "DNN-CL", "policy": "dnn_cl", "checkpoint": "dnn-cl.ckpt.json"},
            {"name": "EPS-GREEDY", "policy": "epsilon_greedy", "epsilon": 0.3,
             "explore_checkpoint": "gnbc.ckpt.json",
             "exploit_checkpoint": "app-dnn.ckpt.json"}]
    cfg = config("abtest", {"days": args.days, "sessions_per_day": args.sessions_per_day,
                            "seed": args.seed + 3,
                            "arms": [{**arm, "split": 1 / 6} for arm in arms]})
    print(f"running {args.days}-day A/B test "
          f"({args.days * args.sessions_per_day} sessions, 6 arms) ...\n")
    table = run("abtest", ["abtest", "--config", cfg, "--out", str(args.out_dir / "abtest.json")])
    sys.stdout.write(table)
    print(f"artifacts in {args.out_dir}/ ({time.time() - t0:.0f}s total)")


if __name__ == "__main__":
    main()
