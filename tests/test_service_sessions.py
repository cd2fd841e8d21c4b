"""POST /v1/price on session bodies whose fields take any JSON value or are
left out: the reply is 200, 400 or 422 and never a 500, and a 200 body is
the quote the policy gives the same session in process."""

import http.client
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ancillary_pricing.checkpoint import PricingBundle
from ancillary_pricing.core import PriceGrid, encode_dataset, fit_schema
from ancillary_pricing.errors import NonFiniteInput, ParseError, SchemaMismatch
from ancillary_pricing.gnb import fit_gnb
from ancillary_pricing.mlp import MlpDemandModel, TrainConfig, train_app
from ancillary_pricing.policies import LogisticMapParams, RandomDiscountParams
from ancillary_pricing.pricing_net import train_dnncl
from ancillary_pricing.service import PricingService
from ancillary_pricing.session_io import session_from_dict, session_to_dict
from ancillary_pricing.simulator import default_market_spec, export_sessions

GRID = PriceGrid((30.0, 35.0, 40.0, 45.0, 50.0))
_MISSING = object()
# Any JSON value, weighted towards what a session field holds by mistake:
# bools, numeric strings, NaN, infinities, numbers past any float or feature
# scale, a market of the wrong form, lists and objects.
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 400) | st.floats()
    | st.sampled_from([10 ** 300, 10 ** 400, 1e308, -1e308, "0.5", "economy", "business",
                       "", "JFK", ["JFK", "LHR"], ["JFK"], ["JFK", 5],
                       {"route_popularity": 1.7e308}, {"route_popularity": "x"}])
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=4)
# Values a field may well hold, so that some bodies with edits are priced.
_PLAUSIBLE = st.integers(0, 60) | st.floats(0.0, 100.0) | st.sampled_from(
    ["economy", "business", ["JFK", "LHR"], {}, {"route_popularity": 1.2}])
_FIELDS = sorted(session_to_dict(export_sessions(default_market_spec(), 1, seed=0)[0]))


def _bundle(kind: str) -> PricingBundle:
    spec = default_market_spec()
    sessions = export_sessions(spec, 300, seed=4, grid=GRID,
                               price_noise=RandomDiscountParams(10.0, 6.0, spec.static_price))
    schema = fit_schema(sessions)
    dataset = encode_dataset(sessions, schema, GRID)
    config = TrainConfig(epochs=2, seed=1)
    if kind == "gnb":
        return PricingBundle("gnb", schema, GRID, fit_gnb(dataset),
                             logistic=LogisticMapParams(max_price=50.0, shape=12.0,
                                                        midpoint=0.35), p_ref=GRID.p_max)
    if kind == "app_dnn":
        mlp = train_app(dataset, hidden=(8,), config=config).model
        return PricingBundle("app_dnn", schema, GRID, MlpDemandModel(mlp, GRID.p_max))
    return PricingBundle("dnn_cl", schema, GRID,
                         train_dnncl(dataset, GRID, hidden=(8,), config=config).model)


@pytest.fixture(scope="module", params=["gnb", "app_dnn", "dnn_cl"])
def served(request):
    """A policy, its server on a free port and one keep-alive connection."""
    policy = _bundle(request.param).policy()
    service = PricingService(policy, host="127.0.0.1", port=0)
    service.start_background()
    conn = http.client.HTTPConnection(*service.address, timeout=10)
    yield policy, conn
    conn.close()
    service.shutdown()


def _in_process(policy, obj) -> tuple[int, dict | None]:
    """The status and 200 body the service owes ``obj``."""
    try:
        session = session_from_dict(obj, line=1)
        return 200, policy.quote(session, np.random.default_rng(0)).to_dict()
    except (ParseError, SchemaMismatch, NonFiniteInput):
        return 422, None


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 3),
       edits=st.dictionaries(st.sampled_from(_FIELDS),
                             st.just(_MISSING) | _PLAUSIBLE | _ANY_JSON, max_size=3))
def test_any_session_field_is_priced_or_refused(served, seed, edits):
    policy, conn = served
    doc = session_to_dict(export_sessions(default_market_spec(), 1, seed=seed)[0])
    for key, value in edits.items():
        if value is _MISSING:
            doc.pop(key, None)
        else:
            doc[key] = value
    body = json.dumps(doc).encode()
    conn.request("POST", "/v1/price", body=body)
    resp = conn.getresponse()
    reply = json.loads(resp.read())
    assert resp.status in (200, 400, 422)
    status, expected = _in_process(policy, json.loads(body))
    assert resp.status == status, reply
    if status == 200:
        assert reply == expected
