"""Batch paths equal their scalar paths bit for bit.

``encode`` and ``encode_matrix`` against the per-row encoder they replaced,
each policy's ``quote`` and ``quote_batch`` against the per-session pricing
bodies they replaced, ``predict_proba_rows`` against the per-model rows
bodies it replaced, ``score_batch`` against the per-session score it
replaced, ``run_abtest`` against the one-session-at-a-time loop it replaced
(the oracles kept below), and the array form of ``snap_to_grid`` against
the scalar form.
"""

import dataclasses
import hashlib
import math
import operator
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ancillary_pricing.checkpoint import PricingBundle
from ancillary_pricing.core import (
    BASE_CATEGORICAL,
    BASE_NUMERIC,
    PolicyTag,
    PriceGrid,
    Quote,
    SessionRecord,
    encode,
    encode_dataset,
    encode_matrix,
    fit_schema,
    grid_rows,
    predict_proba_rows,
    sigmoid,
    snap_to_grid,
)
from ancillary_pricing.errors import NonFiniteInput, SchemaMismatch
from ancillary_pricing.gnb import GnbcModel, fit_gnb, fit_gnbc
from ancillary_pricing.metrics import ArmRow, build_report, records_for_policy
from ancillary_pricing.mlp import MlpDemandModel, TrainConfig, forward, train_app
from ancillary_pricing.policies import (
    AppDesPolicy,
    AppLmPolicy,
    DnnClPolicy,
    EpsilonGreedyPolicy,
    LogisticMapParams,
    RandomDiscountParams,
    RandomDiscountPolicy,
    StaticPricePolicy,
    _quote_one,
    logistic_map,
    quote_all,
    random_discount,
    static_price,
)
from ancillary_pricing.pricing_net import (
    casewise_loss,
    custom_loss,
    recommend_price,
    train_dnncl,
)
from ancillary_pricing.simulator import (
    DEFAULT_GRID,
    AbConfig,
    ArmSpec,
    DayStats,
    default_market_spec,
    export_sessions,
    gen_session,
    run_abtest,
    session_stream,
    simulate_decision,
)

GRID = DEFAULT_GRID
SPEC = default_market_spec()
NOISE = RandomDiscountParams(10.0, 6.0, SPEC.static_price)
LOGISTIC = LogisticMapParams(max_price=50.0, shape=12.0, midpoint=0.35)


def _exact(value) -> str:
    """A text form that tells apart any two floats (repr round-trips)."""
    return repr(dataclasses.astuple(value) if dataclasses.is_dataclass(value) else value)


# -- encode_matrix ----------------------------------------------------------

_MARKETS = [("AAA", "BBB"), ("CCC", "DDD"), ("EEE", "FFF")]
_CLASSES = ["economy", "business", "flex"]


def _session(i: int, market, booking_class, pcs, popularity, channel, price=40.0):
    extra = {}
    if popularity is not None:
        extra["popularity"] = popularity
    if channel is not None:
        extra["channel"] = channel
    return SessionRecord(
        session_id=f"s{i}", days_to_departure=i % 90, departure_epoch=1_736_000_000 + 86_400 * i,
        length_of_stay=i % 9, market=market, group_size=1 + i % 4,
        booking_class=booking_class, num_stops=i % 3, price_comparison_score=pcs,
        price_offered=price, purchased=i % 2, extra_features=extra)


def _fit_sessions():
    # popularity is missing in some sessions (optional: a flag column), channel is
    # categorical and also sometimes absent.
    return [_session(i, _MARKETS[i % 2], _CLASSES[i % 2], 0.1 * i - 1.0,
                     None if i % 5 == 0 else 0.3 * i, None if i % 7 == 0 else f"c{i % 3}")
            for i in range(40)]


SCHEMA = fit_schema(_fit_sessions())

_sessions = st.builds(
    _session,
    i=st.integers(0, 10_000),
    market=st.sampled_from(_MARKETS),  # the third market is unknown to the schema
    booking_class=st.sampled_from(_CLASSES),  # "flex" is unknown to the schema
    pcs=st.floats(-5.0, 5.0),
    popularity=st.none() | st.floats(-1e6, 1e6) | st.integers(-1000, 1000),
    channel=st.none() | st.sampled_from(["c0", "c1", "c2", "web", ""]),
)


def test_schema_covers_optional_numeric_and_categorical_extras():
    names = {f.name: f for f in SCHEMA.numeric}
    assert names["popularity"].optional
    assert any(f.name == "channel" for f in SCHEMA.categorical)


def _oracle_value(session, name):
    if name == "market":
        return session.market_code
    if name in BASE_NUMERIC or name in BASE_CATEGORICAL:
        return getattr(session, name)
    return session.extra_features.get(name)


def _oracle_encode(session, schema):
    """The per-row encoder that ``encode`` and ``encode_matrix`` replaced."""
    out = np.empty(schema.dim, dtype=float)
    i = 0
    for f in schema.numeric:
        v = _oracle_value(session, f.name)
        if v is not None and (isinstance(v, bool) or not isinstance(v, (int, float))):
            raise SchemaMismatch(f"feature {f.name!r} expected numeric, got {type(v).__name__}")
        if v is None:
            if not f.optional:
                raise SchemaMismatch(f"required feature {f.name!r} missing from session "
                                     f"{session.session_id!r}")
            out[i] = 0.0
            i += 1
            out[i] = 1.0
            i += 1
        else:
            out[i] = (float(v) - f.mean) / f.std
            i += 1
            if f.optional:
                out[i] = 0.0
                i += 1
    for f in schema.categorical:
        v = _oracle_value(session, f.name)
        block = np.zeros(len(f.levels) + 1)
        if v is not None and str(v) in f.levels:
            block[f.levels.index(str(v))] = 1.0
        else:
            block[-1] = 1.0  # unseen level or absent value -> unknown bucket
        out[i:i + len(block)] = block
        i += len(block)
    if not np.all(np.isfinite(out)):
        raise NonFiniteInput("feature vector contains non-finite values")
    return out


def _oracle_outcome(session):
    """The oracle's row bytes, or the type and text of what it raises."""
    try:
        return _oracle_encode(session, SCHEMA).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


@given(sessions=st.lists(_sessions, min_size=0, max_size=30))
@settings(max_examples=150)
def test_encode_matrix_rows_equal_encode_bitwise(sessions):
    mat = encode_matrix(sessions, SCHEMA)
    assert mat.shape == (len(sessions), SCHEMA.dim)
    for row, session in zip(mat, sessions):
        expected = _oracle_encode(session, SCHEMA).tobytes()
        assert row.tobytes() == expected
        assert encode(session, SCHEMA).tobytes() == expected


def _first_error(sessions):
    for s in sessions:
        outcome = _oracle_outcome(s)
        if isinstance(outcome, tuple):
            return outcome
    return None


_bad_values = st.sampled_from([
    ("popularity", "high"),            # text in a numeric feature
    ("popularity", True),              # a bool is not numeric
    ("popularity", math.inf),          # non-finite after scaling
    ("popularity", 10 ** 400),         # too large for a float
    ("price_comparison_score", None),  # a required feature missing
    ("price_comparison_score", math.nan),  # non-finite, yet a later feature's error wins
])


@given(sessions=st.lists(_sessions, min_size=1, max_size=12), data=st.data())
@settings(max_examples=100)
def test_encode_matrix_raises_what_encode_raises_first(sessions, data):
    for _ in range(data.draw(st.integers(1, 2))):
        at = data.draw(st.integers(0, len(sessions) - 1))
        name, value = data.draw(_bad_values)
        s = sessions[at]
        if name == "popularity":
            sessions[at] = dataclasses.replace(s, extra_features={**s.extra_features, name: value})
        else:
            sessions[at] = dataclasses.replace(s, **{name: value})
    expected = _first_error(sessions)
    assert expected is not None
    with pytest.raises(expected[0]) as info:
        encode_matrix(sessions, SCHEMA)
    assert (type(info.value), str(info.value)) == expected
    for s in sessions:  # encode, one session at a time, fails as the oracle does
        try:
            got = encode(s, SCHEMA).tobytes()
        except Exception as exc:
            got = type(exc), str(exc)
        assert got == _oracle_outcome(s)


# -- quote_batch ------------------------------------------------------------

@pytest.fixture(scope="module")
def policies():
    train = export_sessions(SPEC, 1_500, seed=4, price_noise=NOISE, grid=GRID)
    schema = fit_schema(train)
    data = encode_dataset(train, schema, GRID)
    config = TrainConfig(epochs=2, batch_size=128, seed=5)
    gnb = fit_gnb(data)
    gnbc = fit_gnbc(data, k=6, seed=1)
    mlp = MlpDemandModel(train_app(data, config=config).model, GRID.p_max)
    dnn = train_dnncl(data, GRID, config=config).model
    out = {
        "HUMAN": StaticPricePolicy(price=50.0, grid=GRID),
        "RANDOM": RandomDiscountPolicy(NOISE, GRID),
        "APP-LM/gnb": AppLmPolicy(gnb, schema, GRID, LOGISTIC, GRID.p_max),
        "APP-LM/gnbc": AppLmPolicy(gnbc, schema, GRID, LOGISTIC, GRID.p_max),
        "APP-LM/mlp": AppLmPolicy(mlp, schema, GRID, LOGISTIC, GRID.p_max),
        "APP-DES/gnb": AppDesPolicy(gnb, schema, GRID),
        "APP-DES/gnbc": AppDesPolicy(gnbc, schema, GRID),
        "APP-DES/mlp": AppDesPolicy(mlp, schema, GRID),
        "DNN-CL": DnnClPolicy(dnn, schema),
    }
    # The stream is drawn from by explore only, by exploit only, and by both
    # (with different discounts, so the order of their draws shows).
    out["EPS-GREEDY/random-des"] = EpsilonGreedyPolicy(0.3, out["RANDOM"], out["APP-DES/mlp"])
    out["EPS-GREEDY/lm-random"] = EpsilonGreedyPolicy(0.5, out["APP-LM/gnbc"], out["RANDOM"])
    deep = RandomDiscountPolicy(RandomDiscountParams(2.0, 9.0, SPEC.static_price), GRID)
    out["EPS-GREEDY/random-random"] = EpsilonGreedyPolicy(0.5, out["RANDOM"], deep)
    return out


POLICY_NAMES = ["HUMAN", "RANDOM", "APP-LM/gnb", "APP-LM/gnbc", "APP-LM/mlp", "APP-DES/gnb",
                "APP-DES/gnbc", "APP-DES/mlp", "DNN-CL", "EPS-GREEDY/random-des",
                "EPS-GREEDY/lm-random", "EPS-GREEDY/random-random"]


# The per-session pricing bodies that ``quote`` and ``quote_batch`` replaced.

def _oracle_sigmoid(z, clip) -> np.ndarray:
    """The stable sigmoid that ``gnb._posterior_from_joint`` (clip 1e-15)
    and ``mlp._sigmoid`` (clip 1e-12) each had."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return np.clip(out, clip, 1.0 - clip)


def _oracle_proba(model, features, price) -> float:
    """The one-row ``predict_proba`` of GNB, GNBC and the MLP demand model."""
    if isinstance(model, GnbcModel):
        return _oracle_proba(model.gnb, model._augment(features[None, :])[0], price)
    row = np.append(features, price / model.p_max)
    if isinstance(model, MlpDemandModel):
        return float(forward(model.mlp, row))
    joint = model._log_joint(row)
    return float(_oracle_sigmoid(joint[..., 1] - joint[..., 0], 1e-15)[0])


def _oracle_rows(model, features, prices) -> np.ndarray:
    """The ``predict_proba_rows`` body each model had before it became the
    one-price case of ``predict_proba_grid``: C-ordered ``column_stack``
    rows, for the MLP each row a (1, d+1) matrix of its own."""
    if isinstance(model, GnbcModel):
        return _oracle_rows(model.gnb, model._augment(features), prices)
    rows = np.column_stack([features, np.asarray(prices, dtype=float) / model.p_max])
    rows = np.ascontiguousarray(rows)
    if isinstance(model, MlpDemandModel):
        return forward(model.mlp, rows[:, None, :])[:, 0]
    joint = model._log_joint(rows)
    return _oracle_sigmoid(joint[:, 1] - joint[:, 0], 1e-15)


def _oracle_des_quote(probs, grid, model_version) -> Quote:
    """The APP-DES selection for one session's probabilities over the grid,
    row by row as it was before ``_des_quotes`` took a block."""
    best = int(np.argmax(grid.as_array() * probs))  # first maximum: lowest price on ties
    return Quote(grid.prices[best], PolicyTag.APP_DES, float(probs[best]), model_version)


def _oracle_raw_price(model, features) -> float:
    """The one-row ``DnnClModel.raw_price``."""
    s = forward(model.mlp, np.asarray(features, dtype=float))
    return model.grid.p_min + s * (model.grid.p_max - model.grid.p_min)


def _oracle_quote(policy, session, rng) -> Quote:
    """Each policy's per-session ``quote`` body, from before every ``quote``
    became the one-session ``quote_batch``."""
    if isinstance(policy, EpsilonGreedyPolicy):
        u = float(rng.uniform())
        explore = _oracle_quote(policy.explore, session, rng)
        exploit = _oracle_quote(policy.exploit, session, rng)
        chosen = explore if u < policy.eps else exploit
        return Quote(chosen.recommended_price, PolicyTag.EPS_GREEDY,
                     chosen.purchase_prob_estimate, chosen.model_version)
    if isinstance(policy, StaticPricePolicy):
        return static_price(policy.price)
    if isinstance(policy, RandomDiscountPolicy):
        return Quote(random_discount(policy.params, float(rng.standard_normal()), policy.grid),
                     PolicyTag.RANDOM, model_version="random-discount")
    x = encode(session, policy.schema)
    if isinstance(policy, AppLmPolicy):
        prob = _oracle_proba(policy.model, x, policy.p_ref)
        return Quote(logistic_map(prob, policy.logistic, policy.grid), PolicyTag.APP_LM,
                     prob, policy.model_version)
    if isinstance(policy, AppDesPolicy):
        probs = policy.model.predict_proba_grid(x[None, :], policy.grid.as_array())[0]
        return _oracle_des_quote(probs, policy.grid, policy.model_version)
    grid = policy.model.grid
    raw = _oracle_raw_price(policy.model, x)
    return Quote(grid.prices[snap_to_grid(raw, grid)], PolicyTag.DNN_CL,
                 model_version=policy.model_version)


@pytest.mark.parametrize("name", POLICY_NAMES)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 300))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_quote_batch_equals_quote_bitwise(policies, name, seed, n):
    """``quote`` session by session and ``quote_batch`` over all of them
    each give the oracle's quotes and leave each stream where it does."""
    policy = policies[name]
    sessions = [sim.record for sim in
                (gen_session(SPEC, session_stream(seed, i)) for i in range(n))]
    oracle_rngs, quote_rngs, batch_rngs = (
        [session_stream(seed + 1, i) for i in range(n)] for _ in range(3))
    expected = [_exact(_oracle_quote(policy, s, rng)) for s, rng in zip(sessions, oracle_rngs)]
    assert [_exact(policy.quote(s, rng)) for s, rng in zip(sessions, quote_rngs)] == expected
    assert [_exact(q) for q in policy.quote_batch(sessions, batch_rngs)] == expected
    states = [r.bit_generator.state for r in oracle_rngs]
    assert [r.bit_generator.state for r in quote_rngs] == states
    assert [r.bit_generator.state for r in batch_rngs] == states


@pytest.mark.parametrize("cls", [StaticPricePolicy, RandomDiscountPolicy, AppLmPolicy,
                                 AppDesPolicy, DnnClPolicy, EpsilonGreedyPolicy])
def test_every_policy_quotes_one_session_as_a_batch_of_one(cls):
    assert cls.__dict__["quote"] is _quote_one


def test_single_session_grid_rows_keep_the_column_stack_layout():
    # The scalar grid path rounds as it did when it built its rows with
    # column_stack over a broadcast: same values, same (Fortran) strides.
    features, scaled = np.linspace(-1.0, 2.0, 7), GRID.as_array() / GRID.p_max
    rows = grid_rows(features, scaled)
    old = np.column_stack([np.broadcast_to(features, (len(scaled), len(features))), scaled])
    assert rows.strides == old.strides
    assert rows.tobytes(order="A") == old.tobytes(order="A")


@pytest.mark.parametrize("name", ["APP-DES/gnb", "APP-DES/gnbc", "APP-DES/mlp"])
def test_predict_proba_grid_rows_equal_single_sessions(policies, name):
    policy = policies[name]
    sessions = export_sessions(SPEC, 200, seed=11)
    x = encode_matrix(sessions, policy.schema)
    batch = policy.model.predict_proba_grid(x, GRID.as_array())
    assert batch.shape == (200, len(GRID))
    for row, features in zip(batch, x):
        alone = policy.model.predict_proba_grid(features[None, :], GRID.as_array())[0]
        assert row.tobytes() == alone.tobytes()


def test_raw_price_batch_equals_raw_price(policies):
    model = policies["DNN-CL"].model
    x = encode_matrix(export_sessions(SPEC, 300, seed=12), policies["DNN-CL"].schema)
    expected = [_oracle_raw_price(model, f) for f in x]
    assert [_exact(v) for v in model.raw_price_batch(x).tolist()] == [_exact(v) for v in expected]
    assert ([_exact(recommend_price(model, f).recommended_price) for f in x]
            == [_exact(model.grid.prices[snap_to_grid(v, model.grid)]) for v in expected])


@pytest.mark.parametrize("name", ["APP-LM/gnb", "APP-LM/gnbc"])
def test_gnb_predict_proba_equals_the_one_row_oracle(policies, name):
    policy = policies[name]
    sessions = export_sessions(SPEC, 200, seed=15, price_noise=NOISE, grid=GRID)
    x = encode_matrix(sessions, policy.schema)
    got = [policy.model.predict_proba(f, s.price_offered) for f, s in zip(x, sessions)]
    assert all(type(v) is float for v in got)
    assert ([_exact(v) for v in got]
            == [_exact(_oracle_proba(policy.model, f, s.price_offered))
                for f, s in zip(x, sessions)])


class _OneSessionProb:
    """A demand model with only the one-session form: for a batch it
    returns one row of ``len(prices)`` probabilities."""

    def predict_proba_grid(self, features, prices):
        return np.full(len(prices), 0.4)


@pytest.mark.parametrize("name", ["APP-DES/gnb", "APP-DES/gnbc", "APP-DES/mlp"])
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([0, 1, len(GRID), 300]),
       data=st.data())
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_rows_and_des_block_equal_their_oracles(policies, name, seed, n, data):
    """Each row at its own price, and the APP-DES quotes of a block, give
    the bytes of the bodies they replaced. At n == len(GRID) a price array
    sized by ``len`` instead of its last axis would still broadcast."""
    policy = policies[name]
    sessions = [sim.record for sim in
                (gen_session(SPEC, session_stream(seed, i)) for i in range(n))]
    x = encode_matrix(sessions, policy.schema)
    prices = np.array(data.draw(st.lists(st.floats(0.01, 1e4), min_size=n, max_size=n)))
    expected = _oracle_rows(policy.model, x, prices).tobytes()
    assert predict_proba_rows(policy.model, x, prices).tobytes() == expected
    assert policy.model.predict_proba_rows(x, prices).tobytes() == expected
    rngs = [session_stream(seed + 1, i) for i in range(n)]
    assert ([_exact(q) for q in policy.quote_batch(sessions, rngs)]
            == [_exact(_oracle_quote(policy, s, rng)) for s, rng in zip(sessions, rngs)])


@given(z=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=30),
       clip=st.sampled_from([1e-15, 1e-12]))
@settings(max_examples=100)
def test_sigmoid_equals_the_two_it_replaced(z, clip):
    z = np.array(z, dtype=float)
    assert sigmoid(z, clip).tobytes() == _oracle_sigmoid(z, clip).tobytes()


@pytest.mark.parametrize("n", [5, len(GRID), 300])
def test_batch_of_wrong_shape_is_refused(policies, n):
    # n == len(GRID) would otherwise iterate the (g,) row as n scalar rows.
    schema = policies["APP-DES/gnb"].schema
    sessions = export_sessions(SPEC, n, seed=13)
    rngs = [session_stream(0, i) for i in range(n)]
    for policy in (AppDesPolicy(_OneSessionProb(), schema, GRID),
                   AppLmPolicy(_OneSessionProb(), schema, GRID, LOGISTIC, GRID.p_max)):
        with pytest.raises(ValueError, match="_OneSessionProb"):
            policy.quote_batch(sessions, rngs)
        with pytest.raises(ValueError, match="_OneSessionProb"):
            records_for_policy(policy, sessions, seed=0)


@dataclasses.dataclass(frozen=True)
class _ShortBatchPolicy:
    name: str = "SHORT"

    def quote(self, session, rng):
        return StaticPricePolicy(price=50.0, grid=GRID).quote(session, rng)

    def quote_batch(self, sessions, rngs):
        return [self.quote(s, rng) for s, rng in zip(sessions[1:], rngs[1:])]

    def score_batch(self, sessions):
        return None


def test_quote_batch_of_wrong_length_is_refused():
    sessions = export_sessions(SPEC, 20, seed=14)
    rngs = [session_stream(0, i) for i in range(20)]
    with pytest.raises(ValueError, match="gave 19 quotes for 20 sessions"):
        quote_all(_ShortBatchPolicy(), sessions, rngs)
    with pytest.raises(ValueError, match="gave 19 quotes for 20 sessions"):
        records_for_policy(_ShortBatchPolicy(), sessions, seed=0)
    arms = (ArmSpec("HUMAN", StaticPricePolicy(price=50.0, grid=GRID), 0.5),
            ArmSpec("SHORT", _ShortBatchPolicy(), 0.5))
    config = AbConfig(arms=arms, days=1, sessions_per_day=20, seed=0)
    with pytest.raises(ValueError, match=r"_ShortBatchPolicy.quote_batch gave \d+ quotes"):
        run_abtest(SPEC, config)


# -- score_batch ------------------------------------------------------------

def _scalar_scores(policy, sessions):
    """The per-session score that ``score_batch`` replaced: a scalar
    ``encode`` and a one-row ``predict_proba`` at the offered price, made by
    the exploiting policy of an EPS-GREEDY."""
    scorer = getattr(policy, "exploit", policy)
    return [_oracle_proba(scorer.model, encode(s, scorer.schema), s.price_offered)
            for s in sessions]


@pytest.mark.parametrize("name", ["APP-LM/gnb", "APP-LM/gnbc", "APP-DES/gnb", "APP-DES/mlp",
                                  "EPS-GREEDY/random-des"])
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 300))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_score_batch_equals_scalar_score_bitwise(policies, name, seed, n):
    sessions = export_sessions(SPEC, n, seed=seed, price_noise=NOISE, grid=GRID)
    got = policies[name].score_batch(sessions)
    assert [_exact(v) for v in got] == [_exact(v) for v in _scalar_scores(policies[name],
                                                                          sessions)]
    assert all(type(v) is float for v in got)


@pytest.mark.parametrize("name", ["HUMAN", "RANDOM", "DNN-CL", "EPS-GREEDY/lm-random"])
def test_policy_without_probability_scores_none(policies, name):
    assert policies[name].score_batch(export_sessions(SPEC, 5, seed=3)) is None


# SHA-256 of ``build_report(...).to_json()`` for an ``evaluate`` of each
# bundle's default policy, as made while each session was scored on its own.
REPORT_DIGESTS = {
    "gnb": "c88d7fb198b3a6d070a39c6a37fb5e9c55a766fbe0f2514d3918f85e042b5ba4",
    "gnbc": "4ef3992bc01ce1ee560167a90c0ccdf6369831f861932959e7dd18b77ed8ea10",
    "app_dnn": "9c58d8b284e4bcd1505ed23589a06a99fedc09ae54db56b85d05894aea4c181e",
    "dnn_cl": "03da127b91af59a33655e1b3013bb78e12df067a6d10e3d15a0761886b8dfbdc",
}
_FIXTURE_POLICY = {"gnb": "APP-LM/gnb", "gnbc": "APP-LM/gnbc", "app_dnn": "APP-DES/mlp",
                   "dnn_cl": "DNN-CL"}


@pytest.mark.parametrize("model_type", sorted(REPORT_DIGESTS))
def test_evaluation_reports_are_pinned(policies, model_type):
    trained = policies[_FIXTURE_POLICY[model_type]]
    policy = PricingBundle(model_type, trained.schema, GRID, trained.model,
                           logistic=LOGISTIC).policy()
    sessions = export_sessions(SPEC, 700, seed=21, price_noise=NOISE, grid=GRID)
    report = build_report({policy.name: policy}, sessions, seed=0, dataset_id="eval.jsonl")
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == REPORT_DIGESTS[model_type]


# -- run_abtest -------------------------------------------------------------

def _scalar_abtest(spec, config):
    """The per-session loop run_abtest used before it batched quotes, with
    each stream built by numpy's own SeedSequence, not by ``streams``, and
    each arm's ``(price, purchased)`` list of the offers it made."""
    names = [a.name for a in config.arms]
    cum_splits = np.cumsum([a.split for a in config.arms])
    daily = {n: [] for n in names}
    outcomes = {n: [] for n in names}
    index = 0
    for day in range(config.days):
        if config.sessions_per_day_dist == "poisson":
            day_rng = np.random.default_rng(
                np.random.SeedSequence(config.seed, spawn_key=(1, day)))
            n_today = int(day_rng.poisson(config.sessions_per_day))
        else:
            n_today = config.sessions_per_day
        counts = {n: [0, 0, 0.0] for n in names}
        for _ in range(n_today):
            rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0, index)))
            index += 1
            sim = gen_session(spec, rng)
            arm = config.arms[int(np.searchsorted(cum_splits, rng.uniform(), side="right"))]
            quote = _oracle_quote(arm.policy, sim.record, rng)
            y = simulate_decision(sim, quote.recommended_price)
            outcomes[arm.name].append((quote.recommended_price, y))
            c = counts[arm.name]
            c[0] += 1
            c[1] += y
            c[2] += quote.recommended_price * y
        for n in names:
            offers, purchases, revenue = counts[n]
            daily[n].append(DayStats(day=day, offers=offers, purchases=purchases,
                                     revenue=revenue))
    return daily, outcomes


def _oracle_arm_rows(outcomes, baseline_arm):
    """Arm rows reduced from each arm's list of offers, as ``metrics`` made
    them before arms kept running totals. Revenue adds left to right
    (``sum`` of floats is compensated from Python 3.12 on)."""
    def revenue_per_offer(offers):
        return reduce(operator.add, (price * y for price, y in offers), 0.0) / len(offers)

    baseline = outcomes.get(baseline_arm)
    baseline_rpo = revenue_per_offer(baseline) if baseline else None
    rows = {}
    for name, offers in outcomes.items():
        if offers:
            normalized = None
            if baseline_rpo is not None and baseline_rpo > 0:
                normalized = revenue_per_offer(offers) / baseline_rpo
            purchases = sum(y for _, y in offers)
            rows[name] = ArmRow(offers=len(offers), purchases=purchases,
                                conversion=purchases / len(offers),
                                revenue_per_offer=revenue_per_offer(offers),
                                revenue_per_session=revenue_per_offer(offers),
                                revenue_per_offer_normalized=normalized)
    return rows


def _six_arms(policies, rare_split=None):
    names = ["HUMAN", "RANDOM", "APP-LM/gnbc", "APP-DES/mlp", "DNN-CL", "EPS-GREEDY/random-des"]
    splits = [1 / 6] * 6
    if rare_split is not None:  # DNN-CL gets so little traffic that most blocks miss it
        splits = [(1 - rare_split) / 5] * 6
        splits[4] = rare_split
    return tuple(ArmSpec(name, policies[name], split) for name, split in zip(names, splits))


@pytest.mark.parametrize("days,per_day,dist,rare", [
    (3, 300, "poisson", None),   # Poisson day lengths, blocks cut mid-day
    (2, 513, "fixed", None),     # not a multiple of the block size
    (5, 1, "fixed", None),       # one session per day
    (2, 600, "fixed", 0.003),    # an arm with no traffic in some blocks
])
def test_run_abtest_equals_scalar_loop(policies, days, per_day, dist, rare):
    config = AbConfig(arms=_six_arms(policies, rare), days=days, sessions_per_day=per_day,
                      sessions_per_day_dist=dist, seed=31)
    result = run_abtest(SPEC, config)
    daily, outcomes = _scalar_abtest(SPEC, config)
    assert _exact(result.daily) == _exact(daily)
    assert (_exact(result.report.arm_rows)
            == _exact(_oracle_arm_rows(outcomes, config.baseline_arm)))
    if rare is not None:
        assert 0 < len(outcomes["DNN-CL"]) < 5


# -- snap_to_grid -----------------------------------------------------------

_grids = st.lists(st.floats(1.0, 500.0), min_size=2, max_size=12, unique=True).map(
    lambda ps: PriceGrid(tuple(sorted(ps))))


@given(grid=_grids, data=st.data())
@settings(max_examples=200)
def test_array_snap_equals_scalar_snap(grid, data):
    midpoints = [(a + b) / 2 for a, b in zip(grid.prices, grid.prices[1:])]
    prices = data.draw(st.lists(
        st.sampled_from(midpoints + list(grid.prices))
        | st.floats(allow_nan=True, allow_infinity=True), max_size=40))
    got = snap_to_grid(np.array(prices, dtype=float), grid)
    assert got.tolist() == [snap_to_grid(p, grid) for p in prices]
    assert all(type(snap_to_grid(p, grid)) is int for p in prices)


def _exact_nearest(p: float, grid: PriceGrid) -> int:
    p = Fraction(min(max(p, grid.p_min), grid.p_max))
    return min(range(len(grid)), key=lambda k: (abs(Fraction(grid.prices[k]) - p), k))


# Grids with neighbours one float apart, where the rounded distances tie.
_tight_grids = st.lists(st.floats(1.0, 500.0), min_size=1, max_size=6, unique=True).map(
    lambda ps: PriceGrid(tuple(sorted({q for p in ps for q in (p, math.nextafter(p, 1e9))}))))


@given(grid=_grids | _tight_grids, data=st.data())
@settings(max_examples=300)
def test_snap_is_the_exactly_nearest_point(grid, data):
    midpoints = [(a + b) / 2 for a, b in zip(grid.prices, grid.prices[1:])]
    prices = data.draw(st.lists(
        st.sampled_from(midpoints + list(grid.prices))
        | st.floats(0.0, 600.0), min_size=1, max_size=20))
    expected = [_exact_nearest(p, grid) for p in prices]
    assert [snap_to_grid(p, grid) for p in prices] == expected
    assert snap_to_grid(np.array(prices), grid).tolist() == expected


def test_rounded_tie_snaps_to_the_nearer_point():
    # |3.5 - 1.0| and |3.5 - (1.0 + 2**-52)| both round to 2.5.
    grid = PriceGrid((1.0, math.nextafter(1.0, 2.0), 6.0))
    assert snap_to_grid(3.5, grid) == 1
    assert snap_to_grid(np.array([3.5, 3.5]), grid).tolist() == [1, 1]
    assert custom_loss(3.5, 0, grid, 0.5, 2.0)[0] == casewise_loss(3.5, 0, grid, 0.5, 2.0)
