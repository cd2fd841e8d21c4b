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
import signal
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .checkpoint import PricingBundle, load_checkpoint, save_checkpoint
from .codec import decode, to_doc
from .core import PriceGrid, encode_dataset, fit_schema, is_integer, require_positive
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
from .session_io import read_sessions, session_from_dict, write_sessions
from .simulator import (
    DEFAULT_GRID,
    AbConfig,
    ArmSpec,
    calibrate,
    check_draws,
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
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc.msg}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc.reason}")
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} is not a JSON object")
    return doc


def _market_from_cfg(cfg: dict):
    market = cfg.get("market", "default")
    if market == "default":
        return default_market_spec()
    try:
        return check_draws(market_spec_from_doc(market))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad market spec: {exc}")


_REQUIRED = object()


def _cfg(doc: dict, key: str, hint=float, default=_REQUIRED, minimum: int | None = None):
    """``doc[key]`` read as ``hint`` by the codec's rule, or ``default``
    when the key is absent; an ``int`` must be a JSON integer of at least
    ``minimum``. A missing required key or a value the rule or the hint's
    class refuses is a ConfigError that names the key."""
    if key not in doc:
        if default is _REQUIRED:
            raise ConfigError(f"config needs {key!r}")
        return default
    value = doc[key]
    try:
        if hint is not int:
            return decode(hint, value)
        if not is_integer(value):
            raise TypeError(f"must be an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise ValueError(f"must be at least {minimum}, got {value}")
        return value
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {key}: {exc}") from None


def _grid_from_cfg(cfg: dict) -> PriceGrid:
    try:
        return PriceGrid(_cfg(cfg, "grid", tuple[float, ...], DEFAULT_GRID.prices))
    except ValueError as exc:
        raise ConfigError(f"bad grid: {exc}")


def _check_seed(seed: int) -> None:
    if seed < 0:  # numpy's SeedSequence refuses it
        raise ConfigError(f"bad seed: must be non-negative, got {seed}")


def _spec_from_cfg(cfg: dict, seed: int):
    """The config's market, calibrated when the config asks for it."""
    spec = _market_from_cfg(cfg)
    cal = _cfg(cfg, "calibrate", dict, None)
    if cal is not None:
        n = _cfg(cal, "sample_size", int, 100_000, minimum=1)
        target = _cfg(cal, "target_rate", default=spec.target_base_conversion)
        try:
            spec = check_draws(calibrate(spec, target, n=n, seed=seed))
        except ValueError as exc:
            raise ConfigError(f"bad calibrate config: {exc}")
    return spec


def _cmd_simulate(args) -> int:
    _check_seed(args.seed)
    cfg = _load_json(args.config)
    n = _cfg(cfg, "n_sessions", int, minimum=1)
    grid = _grid_from_cfg(cfg)
    noise_doc = _cfg(cfg, "price_noise", dict, None)
    spec = _spec_from_cfg(cfg, args.seed)
    noise = None if noise_doc is None else _discount_params(noise_doc, spec.static_price)
    sessions = export_sessions(spec, n=n, seed=args.seed,
                               price_noise=noise, grid=grid if noise else None)
    write_sessions(sessions, args.out)
    log.info("wrote %d sessions to %s", len(sessions), args.out)
    return 0


def _discount_params(doc: dict, static_price: float) -> RandomDiscountParams:
    """A config object's random discount: by default a mean of 10, a spread of 6."""
    try:
        return RandomDiscountParams(mean_discount=_cfg(doc, "mean_discount", default=10.0),
                                    std_discount=_cfg(doc, "std_discount", default=6.0),
                                    static_price=static_price)
    except ValueError as exc:
        raise ConfigError(f"bad random discount: {exc}")


def _read_labeled(path: str, what: str) -> list:
    """The sessions of a log that ``what`` needs non-empty and labeled."""
    sessions = read_sessions(path)
    if not sessions:
        raise ConfigError(f"{what} data is empty")
    if any(s.purchased is None for s in sessions):
        raise ConfigError(f"{what} data must be labeled")
    return sessions


def _default_grid_from_data(sessions) -> PriceGrid:
    # 11 evenly spaced points from 60% of the top observed price up to it
    p_ref = max(s.price_offered for s in sessions)
    points = tuple(round(p, 4) for p in np.linspace(0.6 * p_ref, p_ref, 11))
    try:
        return PriceGrid(points)
    except ValueError as exc:  # the rounding merges or zeroes tiny prices
        raise ConfigError(f"no default grid for a top offered price of {p_ref}: "
                          f"{exc}; pass --grid") from None


def _cmd_train(args) -> int:
    try:  # settings first: a bad one must not cost a read or a training run
        config = TrainConfig(learning_rate=args.lr, decay=args.decay,
                             batch_size=args.batch_size, epochs=args.epochs,
                             dropout_rate=args.dropout, seed=args.seed)
        if args.model == "dnn-cl":
            check_multipliers(args.c1, args.c2)
        if args.model == "gnbc" and args.k < 1:
            raise ValueError(f"--k must be at least 1, got {args.k}")
        if args.p_ref is not None:
            require_positive("--p-ref", args.p_ref)
        if args.model in ("app-dnn", "dnn-cl") and (args.logistic is not None
                                                     or args.p_ref is not None):
            raise ValueError(f"--logistic and --p-ref apply to gnb and gnbc only, "
                             f"not {args.model}")
    except ValueError as exc:
        raise ConfigError(f"bad train settings: {exc}")
    sessions = _read_labeled(args.data, "training")
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
    sessions = _read_labeled(args.data, "evaluation")
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
    name, kind, split = _cfg(doc, "name", str), _cfg(doc, "policy", str), _cfg(doc, "split")

    def bundle_at(key: str) -> PricingBundle:
        path = (base_dir / _cfg(doc, key, str)).resolve()
        if path not in bundles:
            bundles[path] = load_checkpoint(path)
        return bundles[path]

    if kind == "human":
        policy = StaticPricePolicy(price=_cfg(doc, "price", default=static_price), grid=grid,
                                   name=name)
    elif kind == "random_discount":
        params = _discount_params(doc, _cfg(doc, "price", default=static_price))
        policy = RandomDiscountPolicy(params=params, grid=grid, name=name)
    elif kind in ("app_lm", "app_des", "dnn_cl"):
        policy = bundle_at("checkpoint").policy(name=name, kind=kind)
        if kind == "app_lm":  # the arm may override the checkpoint's price map
            keep = doc.get("logistic") in (None, {})  # absent, null or {}: no override
            logistic = policy.logistic if keep else _cfg(doc, "logistic", LogisticMapParams)
            policy = replace(policy, logistic=logistic,
                             p_ref=_cfg(doc, "p_ref", default=policy.p_ref))
    elif kind == "epsilon_greedy":
        explore = bundle_at("explore_checkpoint").policy(name=f"{name}-explore", kind="app_lm")
        exploit = bundle_at("exploit_checkpoint").policy(name=f"{name}-exploit", kind="app_des")
        policy = EpsilonGreedyPolicy(eps=_cfg(doc, "epsilon", default=0.3), explore=explore,
                                     exploit=exploit, name=name)
    else:
        raise ConfigError(f"unknown policy kind {kind!r} for arm {name!r}")
    return ArmSpec(name=name, policy=policy, split=split)


def _cmd_abtest(args) -> int:
    cfg = _load_json(args.config)
    base_dir = Path(args.config).resolve().parent
    grid = _grid_from_cfg(cfg)
    seed = args.seed if args.seed is not None else _cfg(cfg, "seed", int, 0)
    _check_seed(seed)
    spec = _spec_from_cfg(cfg, seed)
    static_price = _cfg(cfg, "static_price", default=spec.static_price)
    require_positive("static_price", static_price, ConfigError)  # also when no arm uses it
    bundles: dict[Path, PricingBundle] = {}
    try:
        arms = tuple(_arm_from_doc(a, grid, static_price, base_dir, bundles)
                     for a in _cfg(cfg, "arms", tuple[dict, ...]))
    except ValueError as exc:  # e.g. a value a policy refuses
        raise ConfigError(f"bad arm config: {exc}")
    baseline = _cfg(cfg, "baseline_arm", str | None, "HUMAN")
    # only a name the config gives: the default serves configs with no HUMAN arm
    if "baseline_arm" in cfg and baseline not in (None, *(a.name for a in arms)):
        raise ConfigError(f"bad baseline_arm: {baseline!r} names no arm")
    try:
        config = AbConfig(
            arms=arms,
            days=_cfg(cfg, "days", int),
            sessions_per_day=_cfg(cfg, "sessions_per_day", int),
            sessions_per_day_dist=_cfg(cfg, "sessions_per_day_distribution", str, "fixed"),
            seed=seed,
            baseline_arm=baseline,
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
    from .service import PricingService  # the HTTP stack loads for serve only

    addr = os.environ.get(ADDR_ENV_VAR) or args.addr
    host, _, port_text = addr.rpartition(":")
    if not host or not port_text.isdecimal() or int(port_text) > 65535:
        raise ConfigError(f"bad address {addr!r}, expected host:port")
    bundle = load_checkpoint(args.ckpt)
    service = PricingService(bundle.policy(), host, int(port_text))
    print(f"serving {bundle.version} on {service.address[0]}:{service.address[1]}")
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)  # stop as on SIGINT
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        service.shutdown()
    finally:
        signal.signal(signal.SIGTERM, previous)
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
    except (PricingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
