"""Command-line interface.

Subcommands: simulate, train, evaluate, abtest, recommend, serve. Exit
codes: 0 success, 1 usage error, 2 data/config error. All randomness is
governed by --seed (or the config document's seed for abtest).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .checkpoint import PricingBundle, load_checkpoint, save_checkpoint
from .codec import from_doc, to_doc
from .core import PriceGrid, encode_dataset, fit_schema
from .errors import ConfigError, PricingError
from .gnb import fit_gnb, fit_gnbc
from .metrics import build_report
from .mlp import MlpDemandModel, TrainConfig, train_app
from .policies import (
    EpsilonGreedyPolicy,
    LogisticMapParams,
    RandomDiscountParams,
    RandomDiscountPolicy,
    StaticPricePolicy,
)
from .pricing_net import check_multipliers, train_dnncl
from .service import serve as build_service
from .session_io import read_sessions, session_from_dict, write_sessions
from .simulator import (
    DEFAULT_GRID,
    AbConfig,
    ArmSpec,
    calibrate,
    default_market_spec,
    export_sessions,
    market_spec_from_doc,
    run_abtest,
)

ADDR_ENV_VAR = "ANCILLARY_PRICING_ADDR"  # overrides --addr when set

log = logging.getLogger(__name__)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ancillary-pricing",
                     description="Dynamic pricing for optional add-on products")
    parser.add_argument("--log-level", default="warning",
                        choices=("debug", "info", "warning", "error"))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a labeled session log")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train", help="fit a model and write a checkpoint")
    p.add_argument("--model", required=True, choices=("gnb", "gnbc", "app-dnn", "dnn-cl"))
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", type=_parse_grid, default=None,
                   help="comma-separated ascending prices, e.g. 30,35,40,45,50")
    p.add_argument("--c1", type=float, default=0.8)
    p.add_argument("--c2", type=float, default=1.2)
    p.add_argument("--epochs", type=int, default=15)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--decay", type=float, default=1e-3)
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--hidden", type=_parse_hidden, default=(64, 32),
                   help="comma-separated hidden layer sizes")
    p.add_argument("--k", type=int, default=8, help="clusters for gnbc")
    p.add_argument("--logistic", type=_parse_logistic, default=None,
                   help="max_price,shape,midpoint for the APP-LM price map")
    p.add_argument("--p-ref", type=float, default=None,
                   help="reference price for APP-LM probability (default: grid max)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="offline metrics for a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("abtest", help="run the synthetic-market A/B harness")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="overrides the seed in the config document")
    p.set_defaults(func=_cmd_abtest)

    p = sub.add_parser("recommend", help="price one inline session record")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--session", required=True, help="session record as inline JSON")
    p.set_defaults(func=_cmd_recommend)

    p = sub.add_parser("serve", help="HTTP price-recommendation service")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--addr", default="127.0.0.1:8080")
    p.set_defaults(func=_cmd_serve)

    return parser


def _parse_grid(text: str) -> PriceGrid:
    try:
        return PriceGrid(tuple(float(tok) for tok in text.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_hidden(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_logistic(text: str) -> LogisticMapParams:
    try:
        max_price, shape, midpoint = (float(tok) for tok in text.split(","))
        return LogisticMapParams(max_price=max_price, shape=shape, midpoint=midpoint)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc.msg}")


def _market_from_cfg(cfg: dict):
    market = cfg.get("market", "default")
    if market == "default":
        return default_market_spec()
    try:
        return market_spec_from_doc(market)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad market spec: {exc}")


def _grid_from_cfg(cfg: dict) -> PriceGrid:
    if "grid" in cfg:
        try:
            return PriceGrid(tuple(float(p) for p in cfg["grid"]))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad grid: {exc}")
    return DEFAULT_GRID


def _spec_from_cfg(cfg: dict, seed: int):
    """The config's market, calibrated when the config asks for it."""
    spec = _market_from_cfg(cfg)
    if "calibrate" in cfg:
        cal = cfg["calibrate"]
        try:
            spec = calibrate(spec, cal.get("target_rate", spec.target_base_conversion),
                             n=cal.get("sample_size", 100_000), seed=seed)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad calibrate config: {exc}")
    return spec


def _cmd_simulate(args) -> int:
    cfg = _load_json(args.config)
    if "n_sessions" not in cfg:
        raise ConfigError("simulate config needs 'n_sessions'")
    grid = _grid_from_cfg(cfg)
    spec = _spec_from_cfg(cfg, args.seed)
    noise = None
    try:
        n = int(cfg["n_sessions"])
        if "price_noise" in cfg:
            pn = cfg["price_noise"]
            noise = RandomDiscountParams(
                mean_discount=pn.get("mean_discount", 10.0),
                std_discount=pn.get("std_discount", 6.0),
                static_price=spec.static_price,
            )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad simulate config: {exc}")
    sessions = export_sessions(spec, n=n, seed=args.seed,
                               price_noise=noise, grid=grid if noise else None)
    write_sessions(sessions, args.out)
    log.info("wrote %d sessions to %s", len(sessions), args.out)
    return 0


def _default_grid_from_data(sessions) -> PriceGrid:
    # 11 evenly spaced points from 60% of the top observed price up to it
    p_ref = max(s.price_offered for s in sessions)
    points = tuple(round(p, 4) for p in np.linspace(0.6 * p_ref, p_ref, 11))
    return PriceGrid(points)


def _cmd_train(args) -> int:
    try:  # settings first: a bad one must not cost a read or a training run
        config = TrainConfig(learning_rate=args.lr, decay=args.decay,
                             batch_size=args.batch_size, epochs=args.epochs,
                             dropout_rate=args.dropout, seed=args.seed)
        if args.model == "dnn-cl":
            check_multipliers(args.c1, args.c2)
        if args.model == "gnbc" and args.k < 1:
            raise ValueError(f"--k must be at least 1, got {args.k}")
    except ValueError as exc:
        raise ConfigError(f"bad train settings: {exc}")
    sessions = read_sessions(args.data)
    if not sessions:
        raise ConfigError("training data is empty")
    if any(s.purchased is None for s in sessions):
        raise ConfigError("training data must be labeled")
    grid = args.grid if args.grid is not None else _default_grid_from_data(sessions)
    schema = fit_schema(sessions)
    dataset = encode_dataset(sessions, schema, grid)

    logistic = args.logistic or LogisticMapParams(max_price=grid.p_max, shape=12.0,
                                                  midpoint=0.35)
    p_ref = args.p_ref if args.p_ref is not None else grid.p_max

    if args.model == "gnb":
        bundle = PricingBundle("gnb", schema, grid, fit_gnb(dataset),
                               logistic=logistic, p_ref=p_ref)
    elif args.model == "gnbc":
        model = fit_gnbc(dataset, k=args.k, seed=args.seed)
        bundle = PricingBundle("gnbc", schema, grid, model,
                               logistic=logistic, p_ref=p_ref)
    elif args.model == "app-dnn":
        result = train_app(dataset, hidden=args.hidden, config=config)
        model = MlpDemandModel(mlp=result.model, p_max=grid.p_max)
        bundle = PricingBundle("app_dnn", schema, grid, model)
    else:
        result = train_dnncl(dataset, grid, hidden=args.hidden, config=config,
                             c1=args.c1, c2=args.c2)
        bundle = PricingBundle("dnn_cl", schema, grid, result.model)

    checksum = save_checkpoint(bundle, args.out)
    print(f"saved {args.model} checkpoint to {args.out} ({checksum[:12]})")
    return 0


def _cmd_evaluate(args) -> int:
    bundle = load_checkpoint(args.ckpt)
    sessions = read_sessions(args.data)
    if not sessions:
        raise ConfigError("evaluation data is empty")
    if any(s.purchased is None for s in sessions):
        raise ConfigError("evaluation data must be labeled")
    policy = bundle.policy()
    report = build_report({policy.name: policy}, sessions, seed=0,
                          dataset_id=Path(args.data).name)
    Path(args.report).write_text(report.to_json(), encoding="utf-8")
    sys.stdout.write(report.render_text())
    return 0


def _arm_from_doc(doc: dict, grid: PriceGrid, static_price: float,
                  base_dir: Path, bundles: dict[Path, PricingBundle]) -> ArmSpec:
    """One arm of an abtest config. ``bundles`` holds the checkpoints
    loaded so far, keyed by resolved path, so arms that share a file load
    and verify it once."""
    try:
        name = doc["name"]
        kind = doc["policy"]
        split = float(doc["split"])
    except KeyError as exc:
        raise ConfigError(f"arm is missing key {exc}")

    def bundle_at(key: str) -> PricingBundle:
        if key not in doc:
            raise ConfigError(f"arm {name!r} needs a {key!r} path")
        path = (base_dir / doc[key]).resolve()
        if path not in bundles:
            bundles[path] = load_checkpoint(path)
        return bundles[path]

    if kind == "human":
        policy = StaticPricePolicy(price=doc.get("price", static_price), grid=grid,
                                   name=name)
    elif kind == "random_discount":
        params = RandomDiscountParams(mean_discount=doc.get("mean_discount", 10.0),
                                      std_discount=doc.get("std_discount", 6.0),
                                      static_price=doc.get("price", static_price))
        policy = RandomDiscountPolicy(params=params, grid=grid, name=name)
    elif kind in ("app_lm", "app_des", "dnn_cl"):
        policy = bundle_at("checkpoint").policy(name=name, kind=kind)
        if kind == "app_lm":  # the arm may override the checkpoint's price map
            overrides = {}
            if doc.get("logistic"):
                overrides["logistic"] = from_doc(LogisticMapParams, doc["logistic"])
            if "p_ref" in doc:
                overrides["p_ref"] = float(doc["p_ref"])
            policy = replace(policy, **overrides)
    elif kind == "epsilon_greedy":
        explore = bundle_at("explore_checkpoint").policy(name=f"{name}-explore", kind="app_lm")
        exploit = bundle_at("exploit_checkpoint").policy(name=f"{name}-exploit", kind="app_des")
        policy = EpsilonGreedyPolicy(eps=doc.get("epsilon", 0.3), explore=explore,
                                     exploit=exploit, name=name)
    else:
        raise ConfigError(f"unknown policy kind {kind!r} for arm {name!r}")
    return ArmSpec(name=name, policy=policy, split=split)


def _cmd_abtest(args) -> int:
    cfg = _load_json(args.config)
    base_dir = Path(args.config).resolve().parent
    grid = _grid_from_cfg(cfg)
    try:
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad seed: {exc}")
    spec = _spec_from_cfg(cfg, seed)
    if "arms" not in cfg or "days" not in cfg or "sessions_per_day" not in cfg:
        raise ConfigError("abtest config needs 'arms', 'days', and 'sessions_per_day'")
    bundles: dict[Path, PricingBundle] = {}
    try:
        static_price = float(cfg.get("static_price", spec.static_price))
        arms = tuple(_arm_from_doc(a, grid, static_price, base_dir, bundles)
                     for a in cfg["arms"])
    except (KeyError, TypeError, ValueError) as exc:  # e.g. a value a policy refuses
        raise ConfigError(f"bad arm config: {exc}")
    try:
        config = AbConfig(
            arms=arms,
            days=int(cfg["days"]),
            sessions_per_day=int(cfg["sessions_per_day"]),
            sessions_per_day_dist=cfg.get("sessions_per_day_distribution", "fixed"),
            seed=seed,
            baseline_arm=cfg.get("baseline_arm", "HUMAN"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    result = run_abtest(spec, config)
    doc = to_doc({"report": result.report, "daily": result.daily})
    Path(args.out).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n",
                              encoding="utf-8")
    sys.stdout.write(result.report.render_text())
    return 0


def _cmd_recommend(args) -> int:
    bundle = load_checkpoint(args.ckpt)
    try:
        obj = json.loads(args.session)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--session is not valid JSON: {exc.msg}")
    session = session_from_dict(obj, line=1)
    quote = bundle.policy().quote(session, np.random.default_rng(0))
    print(json.dumps(quote.to_dict(), sort_keys=True))
    return 0


def _cmd_serve(args) -> int:
    bundle = load_checkpoint(args.ckpt)
    addr = os.environ.get(ADDR_ENV_VAR) or args.addr
    host, _, port_text = addr.rpartition(":")
    if not host or not port_text.isdigit():
        raise ConfigError(f"bad address {addr!r}, expected host:port")
    service = build_service(bundle.policy(), host, int(port_text))
    print(f"serving {bundle.version} on {service.address[0]}:{service.address[1]}")
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        service.shutdown()
    return 0


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # argparse -h/--help
        return int(exc.code or 0)
    logging.basicConfig(level=args.log_level.upper())
    try:
        return args.func(args)
    except PricingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
