"""Which functions of the package the traced run wraps, and how the
per-layer metrics are computed from the recorded spans and counters.

Each layer is a module of ``ancillary_pricing``. The names in
``PER_LAYER`` are exactly the ``per_layer`` entries of BENCHMARK.json.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict

from spans import self_times

PACKAGE = "ancillary_pricing"

ARMS = ("HUMAN", "RANDOM", "APP-LM", "APP-DES", "DNN-CL", "EPS-GREEDY")
MODELS = ("gnb", "gnbc", "app-dnn", "dnn-cl")

PER_LAYER: dict[str, str] = {
    "service.handler_us": "us",
    "service.transport_ms": "ms",
    "service.latency_p99_ms": "ms",
    "service.busy_ratio": "ratio",
    "service.status_2xx": "count",
    "service.status_4xx": "count",
    "service.status_5xx": "count",
    "session_io.parse_us": "us",
    "session_io.read_s": "s",
    "session_io.write_s": "s",
    "session_io.read_rows": "count",
    "core.encode_us": "us",
    "core.encode_calls": "count",
    "core.encode_per_quote": "ratio",
    "core.encode_dataset_s": "s",
    "gnb.fit_s": "s",
    "gnb.fit_kmeans_s": "s",
    "gnb.kmeans_iterations": "count",
    "gnb.predict_us": "us",
    "mlp.train_app_s": "s",
    "mlp.sgd_step_us": "us",
    "mlp.predict_grid_us": "us",
    "pricing_net.train_dnncl_s": "s",
    "pricing_net.sgd_step_us": "us",
    "pricing_net.recommend_us": "us",
    **{f"policies.quote_us.{arm}": "us" for arm in ARMS},
    "policies.eps_useful_ratio": "ratio",
    "simulator.calibrate_s": "s",
    "simulator.calibrate_calls": "count",
    "simulator.gen_session_us": "us",
    "simulator.gen_session_calls": "count",
    "simulator.ab_session_us": "us",
    "simulator.ab_quote_share": "ratio",
    "metrics.build_report_s": "s",
    "metrics.records_for_policy_us": "us",
    "metrics.auc_s": "s",
    "checkpoint.save_s": "s",
    "checkpoint.load_s": "s",
    "checkpoint.load_calls": "count",
    "checkpoint.bytes": "bytes",
    "cli.simulate_s": "s",
    **{f"cli.train_s.{m}": "s" for m in MODELS},
    **{f"cli.evaluate_s.{m}": "s" for m in MODELS},
    "cli.abtest_s": "s",
    "run.error_ratio": "ratio",
    "run.prepare_s": "s",
    "run.reference_loop_ms": "ms",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _sgd_steps(train, config) -> int:
    return config.epochs * math.ceil(train.n / config.batch_size)


def _train_app_after(tracer, args, kwargs, result):
    config = kwargs.get("config", args[2] if len(args) > 2 else None)
    tracer.add("mlp.sgd_steps", _sgd_steps(args[0], config))


def _train_dnncl_after(tracer, args, kwargs, result):
    config = kwargs.get("config", args[3] if len(args) > 3 else None)
    tracer.add("pricing_net.sgd_steps", _sgd_steps(args[0], config))


def install(tracer) -> None:
    """Wrap the public functions and methods of every layer.

    Must run after the package's modules are imported: a function is
    replaced in every module that imported it by name.
    """
    import ancillary_pricing.cli  # noqa: F401  (imports every layer)
    from ancillary_pricing import gnb, mlp, policies

    def fn(module, attr, name=None, **kw):
        tracer.patch_function(PACKAGE, f"{PACKAGE}.{module}", attr,
                              name or f"{module}.{attr}", **kw)

    fn("session_io", "session_from_dict")
    fn("session_io", "read_sessions",
       after=lambda t, a, k, r: t.add("session_io.read_rows", len(r)))
    fn("session_io", "write_sessions")
    fn("core", "encode")
    fn("core", "encode_dataset")
    fn("gnb", "fit_gnb")
    fn("gnb", "fit_gnbc")
    fn("gnb", "fit_kmeans",
       after=lambda t, a, k, r: t.add("gnb.kmeans_iterations", r.iterations_run))
    for cls in (gnb.GnbModel, gnb.GnbcModel):
        for meth in ("predict_proba", "predict_proba_grid", "predict_proba_rows"):
            tracer.patch_method(cls, meth, "gnb.predict")
    fn("mlp", "train_app", after=_train_app_after)
    tracer.patch_method(mlp.MlpDemandModel, "predict_proba_grid", "mlp.predict_proba_grid")
    fn("pricing_net", "train_dnncl", after=_train_dnncl_after)
    fn("pricing_net", "recommend_price")
    for cls in (policies.StaticPricePolicy, policies.RandomDiscountPolicy,
                policies.AppLmPolicy, policies.AppDesPolicy, policies.DnnClPolicy,
                policies.EpsilonGreedyPolicy):
        tracer.patch_method(cls, "quote", "policies.quote", label=lambda a: a[0].name)
    fn("simulator", "calibrate")
    fn("simulator", "gen_session")
    fn("simulator", "run_abtest")
    fn("metrics", "build_report")
    fn("metrics", "records_for_policy")
    fn("metrics", "auc_roc")
    fn("checkpoint", "save_checkpoint",
       after=lambda t, a, k, r: t.add("checkpoint.bytes", os.path.getsize(a[1])))
    fn("checkpoint", "load_checkpoint")


class SpanIndex:
    """Queries over one run's spans: totals, counts and ancestry."""

    def __init__(self, spans):
        self.spans = spans
        self.by_name = defaultdict(list)
        for i, s in enumerate(spans):
            self.by_name[s.name].append(i)

    def ancestors(self, i):
        p = self.spans[i].parent
        while p is not None:
            yield p
            p = p.parent

    def has_ancestor(self, i, names) -> bool:
        return any(a.name in names for a in self.ancestors(i))

    def select(self, name, outermost=False, within=None, label=None):
        """Indices of spans named ``name``; ``outermost`` drops those nested
        in a span of the same name, ``within`` keeps those nested in a span
        of one of the given names."""
        out = []
        for i in self.by_name.get(name, ()):
            if label is not None and self.spans[i].label != label:
                continue
            if outermost and self.has_ancestor(i, (name,)):
                continue
            if within is not None and not self.has_ancestor(i, within):
                continue
            out.append(i)
        return out

    def total(self, indices) -> float:
        return sum(self.spans[i].duration for i in indices)

    def mean_us(self, indices) -> float:
        return self.total(indices) / len(indices) * 1e6 if indices else 0.0


def layer_metrics(tracer) -> dict[str, float]:
    """Every per-layer metric the traced spans and counters give; a layer
    the workload does not exercise reads 0."""
    ix = SpanIndex(tracer.spans)
    c = tracer.counters
    m: dict[str, float] = {}

    parses = ix.select("session_io.session_from_dict")
    m["session_io.parse_us"] = ix.mean_us(parses)
    m["session_io.read_s"] = ix.total(ix.select("session_io.read_sessions"))
    m["session_io.write_s"] = ix.total(ix.select("session_io.write_sessions"))
    m["session_io.read_rows"] = c["session_io.read_rows"]

    encodes = ix.select("core.encode")
    quotes = ix.select("policies.quote", outermost=True)
    quote_encodes = [i for i in encodes if not ix.has_ancestor(i, ("core.encode_dataset",))]
    m["core.encode_us"] = ix.mean_us(encodes)
    m["core.encode_calls"] = len(encodes)
    m["core.encode_per_quote"] = len(quote_encodes) / len(quotes) if quotes else 0.0
    m["core.encode_dataset_s"] = ix.total(ix.select("core.encode_dataset"))

    fits = [i for name in ("gnb.fit_gnb", "gnb.fit_gnbc") for i in ix.select(name)
            if not ix.has_ancestor(i, ("gnb.fit_gnb", "gnb.fit_gnbc"))]
    m["gnb.fit_s"] = ix.total(fits)
    m["gnb.fit_kmeans_s"] = ix.total(ix.select("gnb.fit_kmeans"))
    m["gnb.kmeans_iterations"] = c["gnb.kmeans_iterations"]
    m["gnb.predict_us"] = ix.mean_us(ix.select("gnb.predict", outermost=True))

    train_app = ix.total(ix.select("mlp.train_app"))
    m["mlp.train_app_s"] = train_app
    m["mlp.sgd_step_us"] = train_app / c["mlp.sgd_steps"] * 1e6 if c["mlp.sgd_steps"] else 0.0
    m["mlp.predict_grid_us"] = ix.mean_us(ix.select("mlp.predict_proba_grid"))

    train_cl = ix.total(ix.select("pricing_net.train_dnncl"))
    m["pricing_net.train_dnncl_s"] = train_cl
    steps = c["pricing_net.sgd_steps"]
    m["pricing_net.sgd_step_us"] = train_cl / steps * 1e6 if steps else 0.0
    m["pricing_net.recommend_us"] = ix.mean_us(ix.select("pricing_net.recommend_price"))

    for arm in ARMS:
        m[f"policies.quote_us.{arm}"] = ix.mean_us(
            ix.select("policies.quote", outermost=True, label=arm))
    eps = ix.select("policies.quote", outermost=True, label="EPS-GREEDY")
    eps_spans = {id(ix.spans[i]) for i in eps}
    sub_quotes = [i for i in ix.select("policies.quote")
                  if id(ix.spans[i].parent) in eps_spans]
    m["policies.eps_useful_ratio"] = len(eps) / len(sub_quotes) if sub_quotes else 0.0

    m["simulator.calibrate_s"] = ix.total(ix.select("simulator.calibrate"))
    m["simulator.calibrate_calls"] = len(ix.select("simulator.calibrate"))
    gens = ix.select("simulator.gen_session")
    m["simulator.gen_session_us"] = ix.mean_us(gens)
    m["simulator.gen_session_calls"] = len(gens)
    abtest = ix.total(ix.select("simulator.run_abtest"))
    ab_sessions = len(ix.select("simulator.gen_session", within=("simulator.run_abtest",)))
    ab_quotes = ix.select("policies.quote", outermost=True, within=("simulator.run_abtest",))
    m["simulator.ab_session_us"] = abtest / ab_sessions * 1e6 if ab_sessions else 0.0
    m["simulator.ab_quote_share"] = ix.total(ab_quotes) / abtest if abtest else 0.0

    m["metrics.build_report_s"] = ix.total(ix.select("metrics.build_report"))
    records = ix.select("metrics.records_for_policy")
    quoted = len(ix.select("policies.quote", outermost=True,
                           within=("metrics.records_for_policy",)))
    m["metrics.records_for_policy_us"] = ix.total(records) / quoted * 1e6 if quoted else 0.0
    m["metrics.auc_s"] = ix.total(ix.select("metrics.auc_roc"))

    m["checkpoint.save_s"] = ix.total(ix.select("checkpoint.save_checkpoint"))
    loads = ix.select("checkpoint.load_checkpoint")
    m["checkpoint.load_s"] = ix.total(loads)
    m["checkpoint.load_calls"] = len(loads)
    m["checkpoint.bytes"] = c["checkpoint.bytes"]

    m["cli.simulate_s"] = ix.total(ix.select("cli.simulate"))
    for model in MODELS:
        m[f"cli.train_s.{model}"] = ix.total(ix.select("cli.train", label=model))
        m[f"cli.evaluate_s.{model}"] = ix.total(ix.select("cli.evaluate", label=model))
    m["cli.abtest_s"] = ix.total(ix.select("cli.abtest"))
    return m


def self_time_by_name(tracer) -> dict[str, float]:
    """Total self time in seconds per span name, largest first."""
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        totals[span.name] += own
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))
