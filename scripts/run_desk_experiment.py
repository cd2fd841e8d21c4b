#!/usr/bin/env python3
"""Desk-scale pricing study: offline model comparison plus a simulated A/B test.

Calibrates the default synthetic market, generates discounted training
traffic, fits all four demand/pricing models, scores them offline on
held-out sessions, then runs every policy (plus the human and random
baselines and an epsilon-greedy composition) through the multi-arm
harness. Writes JSON artifacts under --out-dir and prints both tables.

Usage:
    python scripts/run_desk_experiment.py --seed 7 --out-dir out/
"""

import argparse
import json
import time
from pathlib import Path

from ancillary_pricing.codec import to_doc
from ancillary_pricing.core import encode_dataset, fit_schema
from ancillary_pricing.gnb import fit_gnb, fit_gnbc
from ancillary_pricing.metrics import build_report
from ancillary_pricing.mlp import MlpDemandModel, TrainConfig, train_app
from ancillary_pricing.policies import (
    AppDesPolicy,
    AppLmPolicy,
    DnnClPolicy,
    EpsilonGreedyPolicy,
    LogisticMapParams,
    RandomDiscountParams,
    RandomDiscountPolicy,
    StaticPricePolicy,
)
from ancillary_pricing.pricing_net import train_dnncl
from ancillary_pricing.session_io import write_sessions
from ancillary_pricing.simulator import (
    DEFAULT_GRID,
    AbConfig,
    ArmSpec,
    calibrate,
    default_market_spec,
    export_sessions,
    run_abtest,
)


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

    grid = DEFAULT_GRID
    print(f"calibrating market to 6% conversion at {default_market_spec().static_price:.0f} ...")
    spec = calibrate(default_market_spec(), target_rate=0.06, n=100_000, seed=args.seed)

    noise = RandomDiscountParams(mean_discount=10.0, std_discount=6.0,
                                 static_price=spec.static_price)
    train_sessions = export_sessions(spec, args.train_sessions, seed=args.seed + 1,
                                     price_noise=noise, grid=grid)
    eval_sessions = export_sessions(spec, args.eval_sessions, seed=args.seed + 2,
                                    price_noise=noise, grid=grid)
    write_sessions(train_sessions, args.out_dir / "train.jsonl")
    write_sessions(eval_sessions, args.out_dir / "eval.jsonl")

    schema = fit_schema(train_sessions)
    dataset = encode_dataset(train_sessions, schema, grid)
    print(f"training on {dataset.n} sessions "
          f"({dataset.labels.mean():.1%} purchased, {schema.dim} features) ...")

    config = TrainConfig(learning_rate=0.1, decay=1e-3, batch_size=128,
                         epochs=args.epochs, dropout_rate=0.05, seed=args.seed)
    gnb = fit_gnb(dataset)
    gnbc = fit_gnbc(dataset, k=8, seed=args.seed)
    app_dnn = MlpDemandModel(
        mlp=train_app(dataset, hidden=(64, 32), config=config).model, p_max=grid.p_max)
    dnn_cl = train_dnncl(dataset, grid, hidden=(64, 32), config=config,
                         c1=0.8, c2=1.2).model

    logistic = LogisticMapParams(max_price=grid.p_max, shape=12.0, midpoint=0.35)
    app_lm = AppLmPolicy(model=gnbc, schema=schema, grid=grid, logistic=logistic,
                         p_ref=grid.p_max, name="APP-LM")
    app_lm_gnb = AppLmPolicy(model=gnb, schema=schema, grid=grid, logistic=logistic,
                             p_ref=grid.p_max, name="APP-LM(GNB)")
    app_des = AppDesPolicy(model=app_dnn, schema=schema, grid=grid, name="APP-DES")
    dnn_cl_policy = DnnClPolicy(model=dnn_cl, schema=schema, name="DNN-CL")

    print("scoring offline metrics on held-out sessions ...")
    offline = build_report(
        {"APP-LM(GNB)": app_lm_gnb, "APP-LM": app_lm, "APP-DES": app_des,
         "DNN-CL": dnn_cl_policy},
        eval_sessions, seed=args.seed, dataset_id="eval.jsonl")
    (args.out_dir / "offline_report.json").write_text(offline.to_json())
    print()
    print(offline.render_text())

    arms = (
        ArmSpec("HUMAN", StaticPricePolicy(price=spec.static_price, grid=grid,
                                           name="HUMAN"), 1 / 6),
        ArmSpec("RANDOM", RandomDiscountPolicy(noise, grid, name="RANDOM"), 1 / 6),
        ArmSpec("APP-LM", app_lm, 1 / 6),
        ArmSpec("APP-DES", app_des, 1 / 6),
        ArmSpec("DNN-CL", dnn_cl_policy, 1 / 6),
        ArmSpec("EPS-GREEDY", EpsilonGreedyPolicy(eps=0.3, explore=app_lm,
                                                  exploit=app_des,
                                                  name="EPS-GREEDY"), 1 / 6),
    )
    total = args.days * args.sessions_per_day
    print(f"running {args.days}-day A/B test ({total} sessions, 6 arms) ...")
    ab = run_abtest(spec, AbConfig(arms=arms, days=args.days,
                                   sessions_per_day=args.sessions_per_day,
                                   seed=args.seed + 3))
    print()
    print(ab.report.render_text())

    doc = to_doc({"report": ab.report, "daily": ab.daily})
    (args.out_dir / "abtest.json").write_text(json.dumps(doc, sort_keys=True, indent=2))
    print(f"artifacts in {args.out_dir}/ ({time.time() - t0:.0f}s total)")


if __name__ == "__main__":
    main()
