import http.client
import io
import json
import logging
import re
import selectors
import socket
import struct
import threading
import time
import urllib.error
import urllib.request
from http import HTTPStatus

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ancillary_pricing.checkpoint import PricingBundle
from ancillary_pricing.core import PriceGrid, encode_dataset, fit_schema
from ancillary_pricing.gnb import fit_gnb
from ancillary_pricing.mlp import init_mlp
from ancillary_pricing.policies import (
    DnnClPolicy,
    LogisticMapParams,
    RandomDiscountParams,
    RandomDiscountPolicy,
    StaticPricePolicy,
)
from ancillary_pricing.pricing_net import DnnClModel
from ancillary_pricing.service import (
    MAX_BODY_BYTES,
    PricingService,
    _Connection,
    _read_headers,
    _RefusedHeaders,
)
from ancillary_pricing.session_io import session_from_dict, session_to_dict
from ancillary_pricing.simulator import default_market_spec, export_sessions

GRID = PriceGrid((30.0, 35.0, 40.0, 45.0, 50.0))


@pytest.fixture(scope="module")
def service():
    spec = default_market_spec()
    noise = RandomDiscountParams(10.0, 6.0, spec.static_price)
    sessions = export_sessions(spec, 300, seed=2, price_noise=noise, grid=GRID)
    schema = fit_schema(sessions)
    bundle = PricingBundle(
        "gnb", schema, GRID, fit_gnb(encode_dataset(sessions, schema, GRID)),
        logistic=LogisticMapParams(max_price=50.0, shape=12.0, midpoint=0.35),
        p_ref=GRID.p_max,
    )
    svc = PricingService(bundle.policy(), host="127.0.0.1", port=0)
    svc.start_background()
    yield svc, bundle
    svc.shutdown()


def _post(service, body: bytes, path="/v1/price"):
    host, port = service.address
    req = urllib.request.Request(f"http://{host}:{port}{path}", data=body,
                                 headers={"Content-Type": "application/json"},
                                 method="POST")
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _get(service, path):
    host, port = service.address
    try:
        with urllib.request.urlopen(f"http://{host}:{port}{path}", timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _post_headers(service, headers: dict):
    """POST with hand-set headers and no body; returns (status, Connection, body)."""
    host, port = service.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.putrequest("POST", "/v1/price", skip_accept_encoding=True)
        for name, value in headers.items():
            conn.putheader(name, value)
        conn.endheaders()
        resp = conn.getresponse()
        return resp.status, resp.getheader("Connection"), json.loads(resp.read())
    finally:
        conn.close()


def _sample_request(seed=9) -> dict:
    doc = session_to_dict(export_sessions(default_market_spec(), 1, seed=seed)[0])
    del doc["purchased"]
    return doc


def test_healthz(service):
    svc, _ = service
    status, body = _get(svc, "/healthz")
    assert status == 200
    assert body == {"status": "ok"}


def test_valid_session_returns_price_in_grid(service):
    svc, _ = service
    status, body = _post(svc, json.dumps(_sample_request()).encode())
    assert status == 200
    assert GRID.p_min <= body["recommended_price"] <= GRID.p_max
    assert body["policy"] == "APP_LM"
    assert 0.0 <= body["purchase_prob"] <= 1.0


def test_matches_in_process_quote(service):
    svc, bundle = service
    doc = _sample_request(seed=31)
    status, body = _post(svc, json.dumps(doc).encode())
    assert status == 200
    from ancillary_pricing.session_io import session_from_dict
    session = session_from_dict(doc, line=1)
    quote = bundle.policy().quote(session, np.random.default_rng(0))
    assert body["recommended_price"] == quote.recommended_price
    assert body["model_version"] == quote.model_version


def test_truncated_body_is_bad_request(service):
    svc, _ = service
    full = json.dumps(_sample_request()).encode()
    status, body = _post(svc, full[: len(full) // 2])
    assert status == 400
    assert "error" in body


def test_empty_body_is_bad_request(service):
    svc, _ = service
    status, _ = _post(svc, b"")
    assert status == 400


def test_missing_field_is_unprocessable(service):
    svc, _ = service
    doc = _sample_request()
    del doc["market"]
    status, body = _post(svc, json.dumps(doc).encode())
    assert status == 422
    assert "market" in body["error"]


def test_wrong_type_is_unprocessable(service):
    svc, _ = service
    doc = _sample_request()
    doc["days_to_departure"] = "soon"
    status, _ = _post(svc, json.dumps(doc).encode())
    assert status == 422


@pytest.mark.parametrize("field,value", [
    ("price_comparison_score", float("nan")),
    ("price_comparison_score", float("-inf")),
    ("price_offered", float("inf")),
    ("price_offered", float("nan")),
    # Finite but huge: both GNB class likelihoods vanish (a NaN posterior), or
    # the z-score overflows.
    pytest.param("days_to_departure", 10 ** 300, id="days_to_departure-huge"),
    pytest.param("extra_features", {"route_popularity": 1.7e308}, id="extra_features-huge"),
])
def test_non_finite_number_is_unprocessable(service, field, value):
    svc, _ = service
    doc = _sample_request()
    doc[field] = value
    status, body = _post(svc, json.dumps(doc).encode())
    assert status == 422
    assert "finite" in body["error"]


@pytest.mark.parametrize("length", ["abc", "-5", "1.5"])
def test_bad_content_length_is_bad_request(service, length):
    svc, _ = service
    status, connection, body = _post_headers(svc, {"Content-Length": length})
    assert status == 400
    assert connection == "close"
    assert "Content-Length" in body["error"]


def test_oversized_body_is_refused_unread(service):
    svc, _ = service
    # The body is never sent: the reply must not wait for it.
    status, connection, _ = _post_headers(svc, {"Content-Length": str(MAX_BODY_BYTES + 1)})
    assert status == 413
    assert connection == "close"


def test_short_body_times_out_without_wedging(service, monkeypatch):
    svc, _ = service
    monkeypatch.setattr("ancillary_pricing.service.CONNECTION_TIMEOUT_S", 0.5)
    with socket.create_connection(svc.address, timeout=10) as sock:
        sock.sendall(b"POST /v1/price HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"a\"")
        t0 = time.perf_counter()
        reply = sock.makefile("rb").read()  # until the server closes
        waited = time.perf_counter() - t0
    assert reply.startswith(b"HTTP/1.1 408 ")
    assert waited < 5
    assert _get(svc, "/healthz")[0] == 200


def test_keepalive_replies_do_not_stall(service):
    # A reply written in two segments waits ~40 ms for the delayed ACK.
    svc, _ = service
    host, port = svc.address
    payload = json.dumps(_sample_request()).encode()
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        t0 = time.perf_counter()
        for _ in range(200):
            conn.request("POST", "/v1/price", body=payload,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 200
        took = time.perf_counter() - t0
    finally:
        conn.close()
    assert took < 3.0


def test_expect_continue_is_answered_at_once(service):
    svc, _ = service
    payload = json.dumps(_sample_request()).encode()
    with socket.create_connection(svc.address, timeout=10) as sock:
        sock.sendall(b"POST /v1/price HTTP/1.1\r\nExpect: 100-continue\r\n"
                     b"Content-Length: %d\r\n\r\n" % len(payload))
        sock.settimeout(0.5)
        interim = sock.recv(1024)
        sock.settimeout(10)
        assert interim.startswith(b"HTTP/1.1 100 Continue\r\n")
        sock.sendall(payload)
        resp = http.client.HTTPResponse(sock)
        resp.begin()
        assert resp.status == 200
        assert "recommended_price" in json.loads(resp.read())


def test_http09_get_receives_bare_body(service):
    svc, _ = service
    with socket.create_connection(svc.address, timeout=10) as sock:
        sock.sendall(b"GET /healthz\r\n\r\n")
        assert json.loads(sock.makefile("rb").read()) == {"status": "ok"}


def test_unknown_paths_are_not_found(service):
    svc, _ = service
    assert _get(svc, "/nope")[0] == 404
    assert _post(svc, b"{}", path="/v2/price")[0] == 404


def test_not_found_post_closes_the_connection(service):
    # Its body is left unread, so it must not be parsed as the next request.
    svc, _ = service
    host, port = svc.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("POST", "/v2/price", body=b"{}")
        resp = conn.getresponse()
        resp.read()
        assert resp.status == 404
        assert resp.getheader("Connection") == "close"
    finally:
        conn.close()


def test_healthz_survives_many_pricing_calls(service):
    svc, _ = service
    assert _get(svc, "/healthz")[0] == 200
    host, port = svc.address
    payload = json.dumps(_sample_request()).encode()
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        for _ in range(10_000):
            conn.request("POST", "/v1/price", body=payload,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 200
    finally:
        conn.close()
    assert _get(svc, "/healthz")[0] == 200


def test_hot_swap_changes_quotes_atomically(service):
    svc, bundle = service
    doc = _sample_request(seed=55)
    before = _post(svc, json.dumps(doc).encode())[1]["recommended_price"]
    try:
        svc.swap_policy(StaticPricePolicy(price=35.0, grid=GRID))
        after = _post(svc, json.dumps(doc).encode())[1]["recommended_price"]
        assert after == 35.0
        assert after != before or before == 35.0
    finally:
        svc.swap_policy(bundle.policy())
    restored = _post(svc, json.dumps(doc).encode())[1]["recommended_price"]
    assert restored == before


def test_dnn_cl_network_that_overflows_is_unprocessable(service):
    """A DNN-CL network whose weights overflow gives NaN, which would snap
    to ``p_min``: the reply is 422, not a quote."""
    svc, bundle = service
    mlp = init_mlp([bundle.model.n_features, 64, 32, 1], seed=0)
    for w, b in zip(mlp.weights, mlp.biases):
        w *= 1e300
        b += 1e300
    try:
        svc.swap_policy(DnnClPolicy(DnnClModel(mlp=mlp, grid=GRID, c1=0.8, c2=1.2),
                                    bundle.schema))
        status, body = _post(svc, json.dumps(_sample_request()).encode())
    finally:
        svc.swap_policy(bundle.policy())
    assert status == 422
    assert "weights overflow" in body["error"]


def test_get_body_is_read_before_the_next_request(service):
    # An unread GET body would be parsed as the start of the next request line.
    svc, _ = service
    host, port = svc.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        for body in (b"{}", None):
            conn.request("GET", "/healthz", body=body)
            resp = conn.getresponse()
            assert (resp.status, json.loads(resp.read())) == (200, {"status": "ok"})
    finally:
        conn.close()


def test_oversized_get_body_is_refused_and_closes(service):
    svc, _ = service
    with socket.create_connection(svc.address, timeout=10) as sock:
        sock.sendall(b"GET /healthz HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1))
        resp = http.client.HTTPResponse(sock)
        resp.begin()
        assert resp.status == 413
        assert resp.getheader("Connection") == "close"


def _raw_reply(service, request: bytes):
    """Send raw bytes; return (status, headers, body) of the reply."""
    with socket.create_connection(service.address, timeout=10) as sock:
        sock.sendall(request)
        resp = http.client.HTTPResponse(sock, method=request.split(b" ", 1)[0].decode())
        resp.begin()
        return resp.status, resp.headers, resp.read()


# Each request ends where the server stops reading: bytes left unread when it
# closes would make it reset the connection, perhaps before the reply is read.
@pytest.mark.parametrize("request_bytes,status", [
    (b"PUT /v1/price HTTP/1.1\r\nContent-Length: 0\r\n\r\n", 501),
    (b"GET / x HTTP/1.1\r\n", 400),
    (b"GET /" + b"a" * (65_537 - 5), 414),
    (b"GET /healthz HTTP/1.1\r\n" + b"X-A: b\r\n" * 101, 431),
], ids=["unsupported-method", "bad-request-line", "uri-too-long", "too-many-headers"])
def test_stdlib_errors_are_json(service, request_bytes, status):
    svc, _ = service
    got, headers, body = _raw_reply(svc, request_bytes)
    assert got == status
    assert headers["Content-Type"] == "application/json"
    assert headers["Connection"] == "close"
    assert int(headers["Content-Length"]) == len(body)
    assert isinstance(json.loads(body)["error"], str)


def test_stdlib_error_to_head_has_no_body(service):
    svc, _ = service
    with socket.create_connection(svc.address, timeout=10) as sock:
        sock.sendall(b"HEAD /healthz HTTP/1.1\r\n\r\n")
        reply = sock.makefile("rb").read()  # until the server closes
    assert reply.startswith(b"HTTP/1.1 501 ")
    assert b"Content-Type: application/json\r\n" in reply
    assert reply.endswith(b"\r\n\r\n")


def test_stdlib_error_to_http09_request_is_bare_json(service):
    # A bad version leaves the request at HTTP/0.9: no status line, no headers.
    svc, _ = service
    with socket.create_connection(svc.address, timeout=10) as sock:
        sock.sendall(b"GET / HTTP/x\r\n")
        assert "error" in json.loads(sock.makefile("rb").read())


def test_chunked_post_gets_one_reply_and_closes(service):
    # Chunk data read as the next request would give a second, unrequested reply.
    svc, _ = service
    with socket.create_connection(svc.address, timeout=10) as sock:
        sock.sendall(b"POST /v1/price HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n"
                     b"Content-Type: application/json\r\n\r\n2\r\n{}\r\n0\r\n\r\n")
        reply = sock.makefile("rb").read()  # until the server closes
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 501 ")
    assert b"\r\nConnection: close" in head
    assert int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0]) == len(body)
    assert "Transfer-Encoding" in json.loads(body)["error"]


# -- the header reader, against http.client.parse_headers as the oracle --

FRAMING = ("Content-Length", "Transfer-Encoding", "Connection", "Expect")
_NAMES = st.sampled_from(FRAMING + ("Host", "Content-Type", "X-A")).flatmap(
    lambda n: st.sampled_from((n, n.lower(), n.upper())))
# No colon, CR or LF; some characters str.strip() drops but HTTP does not.
_VALUES = st.one_of(
    st.sampled_from(["2", " 2", "2 ", "2\x0b", "close", "Keep-Alive", "100-continue", "chunked"]),
    st.text("0127 \tabcklosepv-\x0b\x0c\x85\xa0\xe9", max_size=8))


@st.composite
def _header_line(draw) -> tuple[bool, str]:
    """(well formed, the line without its end)."""
    name, value = draw(_NAMES), draw(_VALUES)
    kind = draw(st.sampled_from(["good"] * 6 + ["blank-before-colon", "fold", "no-colon",
                                                  "bare-cr"]))
    ows = draw(st.sampled_from(["", " ", "\t", "  "]))
    blank = draw(st.sampled_from([" ", "\t"]))
    if kind == "blank-before-colon":
        return False, f"{name}{blank}:{ows}{value}"
    if kind == "fold":
        return False, f"{blank}{name}:{value}"
    if kind == "no-colon":
        return False, f"{name}{blank}{value}"
    if kind == "bare-cr":
        return False, f"{name}:{ows}{value}\rx"
    return True, f"{name}:{ows}{value}"


def _conflicting_lengths(lines: list[str]) -> bool:
    values = {line.partition(":")[2].strip() for line in lines
              if line.partition(":")[0].lower() == "content-length"}
    return len(values) > 1


@settings(max_examples=400, deadline=None)
@given(st.lists(_header_line(), max_size=6), st.sampled_from(["\r\n", "\n"]))
@example([(True, "Content-Length: 2"), (True, "content-length: 2 ")], "\r\n")
def test_header_reader_agrees_with_http_client(lines, eol):
    block = "".join(line + eol for _, line in lines) + eol
    good = all(ok for ok, _ in lines) and not _conflicting_lengths([t for _, t in lines])
    data = block.encode("iso-8859-1") + b"GET / HTTP/1.1\r\n"  # the next request
    rfile = io.BytesIO(data)
    try:
        ours = _read_headers(rfile)
    except _RefusedHeaders as err:
        assert not good
        assert err.args[0] == 400
        return
    assert good
    assert rfile.read() == b"GET / HTTP/1.1\r\n"
    theirs = http.client.parse_headers(io.BytesIO(data))
    assert not theirs.defects
    for name in FRAMING:
        assert ours.get(name.lower()) == theirs.get(name)


@pytest.mark.parametrize("block,status", [
    (b"X-A: " + b"b" * 65_537 + b"\r\n\r\n", 431),
    (b"X-A: b\r\n" * 99 + b"\r\n", None),
    (b"X-A: b\r\n" * 100 + b"\r\n", 431),
], ids=["line-too-long", "99-headers", "100-headers"])
def test_header_reader_keeps_http_client_limits(block, status):
    try:
        http.client.parse_headers(io.BytesIO(block))
        expected = None
    except http.client.HTTPException:
        expected = 431
    assert expected == status
    try:
        _read_headers(io.BytesIO(block))
        got = None
    except _RefusedHeaders as err:
        got = err.args[0]
    assert got == status


# A request whose framing two readers could take apart differently.
@pytest.mark.parametrize("head", [
    b"Content-Length: 127\r\nContent-Length: 2\r\n",
    b"Content-Length : 8\r\n",
    b"Host: x\r\n  y\r\nContent-Length: 0\r\n",
    b"Host x\r\nContent-Length: 0\r\n",
    b"Host: a\rb\r\nContent-Length: 0\r\n",
], ids=["two-lengths", "blank-before-colon", "obs-fold", "no-colon", "bare-cr"])
def test_ambiguous_framing_is_refused_and_closes(service, head):
    svc, _ = service
    got, headers, body = _raw_reply(svc, b"POST /v1/price HTTP/1.1\r\n" + head + b"\r\n")
    assert got == 400
    assert headers["Connection"] == "close"
    assert isinstance(json.loads(body)["error"], str)


def test_each_request_draws_a_fresh_seed_0_stream(service):
    # The handler resets one generator per connection instead of building one.
    svc, bundle = service
    doc = _sample_request(seed=21)
    session = session_from_dict(doc, line=1)
    policy = RandomDiscountPolicy(RandomDiscountParams(10.0, 6.0, 50.0), GRID)
    rng = np.random.default_rng(0)
    expected = policy.quote(session, rng).to_dict()
    assert policy.quote(session, rng).to_dict() != expected  # a second draw differs
    host, port = svc.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        svc.swap_policy(policy)
        for _ in range(2):
            conn.request("POST", "/v1/price", body=json.dumps(doc).encode())
            resp = conn.getresponse()
            assert (resp.status, json.loads(resp.read())) == (200, expected)
    finally:
        conn.close()
        svc.swap_policy(bundle.policy())


@pytest.mark.parametrize("blank", [b" ", b"\t"], ids=["space", "tab"])
def test_connection_close_with_trailing_blank_closes(service, blank):
    # RFC 9110 section 5.5: blanks around a field value are not part of it.
    svc, _ = service
    with socket.create_connection(svc.address, timeout=10) as sock:
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close" + blank
                     + b"\r\n\r\n")
        sock.settimeout(5)
        reply = sock.makefile("rb").read()  # until the server closes
    assert reply.startswith(b"HTTP/1.1 200 ")
    assert reply.endswith(b'{"status": "ok"}')


# -- one selector loop serves every connection --

def _read_replies(sock, count):
    """``count`` replies read in order from one connection: (status, body)."""
    replies = sock.makefile("rb")
    out = []
    for _ in range(count):
        status = int(replies.readline().split()[1])
        headers = http.client.parse_headers(replies)
        out.append((status, json.loads(replies.read(int(headers["Content-Length"])))))
    return out


def _price_request(doc) -> bytes:
    body = json.dumps(doc).encode()
    return b"POST /v1/price HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)


def test_pipelined_requests_are_answered_in_order(service):
    svc, bundle = service
    doc = _sample_request(seed=12)
    quote = bundle.policy().quote(session_from_dict(doc, line=1), np.random.default_rng(0))
    with socket.create_connection(svc.address, timeout=10) as sock:
        sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n" + _price_request(doc)
                     + b"GET /nope HTTP/1.1\r\n\r\n")
        assert _read_replies(sock, 3) == [(200, {"status": "ok"}), (200, quote.to_dict()),
                                          (404, {"error": "not found"})]


def test_a_peer_that_never_reads_holds_up_no_other(service):
    svc, _ = service
    with socket.socket() as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.settimeout(1.0)
        sock.connect(svc.address)
        try:  # far more replies than the socket buffers hold: the server must wait to send
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n" * 100_000)
        except TimeoutError:
            pass
        t0 = time.perf_counter()
        assert _get(svc, "/healthz") == (200, {"status": "ok"})
        assert time.perf_counter() - t0 < 2


@pytest.mark.parametrize("expect", [b"", b"Expect: 100-continue\r\n"],
                         ids=["plain", "expect-continue"])
def test_trickled_request_is_answered_once(service, monkeypatch, expect):
    svc, _ = service
    calls = []
    respond = _Connection._respond

    def counted(self, raw):
        calls.append(self.address)
        respond(self, raw)

    monkeypatch.setattr(_Connection, "_respond", counted)
    request = _price_request(_sample_request()).replace(b"\r\n", b"\r\n" + expect, 1)
    with socket.create_connection(svc.address, timeout=10) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for byte in request:
            sock.sendall(bytes([byte]))
            time.sleep(0.0005)
        sock.shutdown(socket.SHUT_WR)
        replies = sock.makefile("rb")
        if expect:
            assert replies.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert replies.readline() == b"\r\n"
        assert replies.readline().startswith(b"HTTP/1.1 200 ")
        replies.read(int(http.client.parse_headers(replies)["Content-Length"]))
        assert replies.read() == b""  # nothing more before the server closes
        assert calls.count(sock.getsockname()) == 1


def test_keepalive_connections_start_no_threads(service):
    svc, _ = service
    before = threading.active_count()
    socks = [socket.create_connection(svc.address, timeout=10) for _ in range(16)]
    try:
        for sock in socks:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
        for sock in socks:
            assert _read_replies(sock, 1) == [(200, {"status": "ok"})]
        assert threading.active_count() == before
    finally:
        for sock in socks:
            sock.close()


def test_peer_reset_mid_pipeline_is_closed_quietly(service, caplog):
    svc, _ = service
    pipeline = _price_request(_sample_request()) * 50
    with caplog.at_level(logging.ERROR, logger="ancillary_pricing.service"):
        for _ in range(20):
            sock = socket.create_connection(svc.address, timeout=10)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.sendall(pipeline)
            sock.close()  # with linger 0: a reset
        for _ in range(20):  # the requests the server took are answered by now
            if caplog.records:
                break
            time.sleep(0.05)
        assert _get(svc, "/healthz")[0] == 200
    assert [r.getMessage() for r in caplog.records] == []


def test_a_handler_fault_closes_only_its_connection(service, monkeypatch):
    svc, _ = service
    monkeypatch.setattr(_Connection, "_respond", lambda self, raw: 1 / 0)
    with socket.create_connection(svc.address, timeout=10) as sock:
        sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
        assert sock.recv(1024) == b""
    monkeypatch.undo()
    assert _get(svc, "/healthz") == (200, {"status": "ok"})


# -- the bytes on the wire --

_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"


def _wire(status: int, body: dict, *, close=False, head=False) -> bytes:
    """A reply as the service writes it, with the ``Date`` value and the
    Python version in ``Server`` masked as ``_exchange_all`` masks them."""
    blob = json.dumps(body).encode()
    return (b"HTTP/1.1 %d %s\r\nServer: BaseHTTP/0.6 Python/*\r\nDate: *\r\n"
            b"Content-Type: application/json\r\nContent-Length: %d\r\n%s\r\n%s" % (
                status, HTTPStatus(status).phrase.encode(), len(blob),
                b"Connection: close\r\n" if close else b"", b"" if head else blob))


def _bare(body: dict) -> bytes:
    """A reply to a request left at HTTP/0.9: the body alone."""
    return json.dumps(body).encode()


def _error(status: int, message: str, **kwargs) -> bytes:
    return _wire(status, {"error": message}, **kwargs)


def _wire_table(bundle) -> list[tuple[str, bytes, bytes, bool, bytes]]:
    """(id, request, reply, whether the server then closes, what a half-close
    adds). Each request ends where the server stops reading it."""
    doc = _sample_request(seed=12)
    body = json.dumps(doc).encode()
    quote = bundle.policy().quote(session_from_dict(doc, line=1), np.random.default_rng(0))
    nan = json.dumps({**doc, "price_comparison_score": float("nan")}).encode()
    no_market = json.dumps({k: v for k, v in doc.items() if k != "market"}).encode()

    def post(payload: bytes, head=b"", version=b"HTTP/1.1", path=b"/v1/price") -> bytes:
        return (b"POST %s %s\r\nContent-Length: %d\r\n%s\r\n%s"
                % (path, version, len(payload), head, payload))

    ok, healthz, not_found = (_wire(200, quote.to_dict()), _wire(200, {"status": "ok"}),
                              _error(404, "not found"))
    empty = _error(400, "malformed request body: Expecting value: line 1 column 1 (char 0)")
    get = b"GET /healthz HTTP/1.1\r\n"
    uri = b"/" + b"a" * (65_536 - len(b"GET  HTTP/1.1\r\n") - 1)
    return [
        ("price", post(body), ok, False, b""),
        ("price-close", post(body, b"Connection: close\r\n"), ok, True, b""),
        ("price-http10", post(body, version=b"HTTP/1.0"), ok, True, b""),
        ("price-http10-keep-alive", post(body, b"Connection: keep-alive\r\n", b"HTTP/1.0"),
         ok, False, b""),
        ("price-keep-alive", post(body, b"Connection: Keep-Alive\r\n"), ok, False, b""),
        ("price-client-headers", post(body, b"Host: x\r\nContent-Type: application/json\r\n"
                                            b"Accept-Encoding: identity\r\n"), ok, False, b""),
        ("bad-json", post(b"{"), _error(400, "malformed request body: Expecting property name "
                                              "enclosed in double quotes: line 1 column 2 (char 1)"),
         False, b""),
        ("empty-body", post(b""), empty, False, b""),
        ("no-content-length", b"POST /v1/price HTTP/1.1\r\n\r\n", empty, False, b""),
        ("not-utf8", post(b"\xff"), _error(400, "malformed request body: 'utf-8' codec can't "
                                                 "decode byte 0xff in position 0: invalid start "
                                                 "byte"), False, b""),
        ("missing-field", post(no_market), _error(422, "missing required field 'market'"),
         False, b""),
        ("not-an-object", post(b"[1]"), _error(422, "expected an object, got list"), False, b""),
        ("non-finite", post(nan),
         _error(422, "field 'price_comparison_score' must be finite, got nan"), False, b""),
        ("bad-content-length", b"POST /v1/price HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
         _error(400, "bad Content-Length: 'abc'", close=True), True, b""),
        ("negative-content-length", b"POST /v1/price HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
         _error(400, "bad Content-Length: '-5'", close=True), True, b""),
        ("too-large", b"POST /v1/price HTTP/1.1\r\nContent-Length: 65537\r\n\r\n",
         _error(413, "body over 65536 bytes", close=True), True, b""),
        ("chunked", b"POST /v1/price HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
         _error(501, "Transfer-Encoding is not supported; send a Content-Length", close=True),
         True, b""),
        ("two-lengths", b"POST /v1/price HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n"
                        b"\r\n", _error(400, "conflicting Content-Length fields", close=True),
         True, b""),
        ("obs-fold", b"POST /v1/price HTTP/1.1\r\nHost: x\r\n  y\r\n\r\n",
         _error(400, "malformed header line (RFC 9112 section 5)", close=True), True, b""),
        ("post-not-found", post(b"{}", path=b"/v2/price"), _error(404, "not found", close=True),
         True, b""),
        ("get-not-found", b"GET /nope HTTP/1.1\r\n\r\n", not_found, False, b""),
        ("healthz", get + b"\r\n", healthz, False, b""),
        ("healthz-with-body", get + b"Content-Length: 2\r\n\r\n{}", healthz, False, b""),
        ("healthz-double-slash", b"GET //healthz HTTP/1.1\r\n\r\n", healthz, False, b""),
        ("healthz-close", get + b"Connection: close\r\n\r\n", healthz, True, b""),
        ("healthz-close-tab", get + b"Connection: close\t\r\n\r\n", healthz, True, b""),
        ("healthz-http10", b"GET /healthz HTTP/1.0\r\n\r\n", healthz, True, b""),
        ("healthz-http10-keep-alive", b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
         healthz, False, b""),
        ("healthz-lf", b"GET /healthz HTTP/1.1\nHost: x\n\n", healthz, False, b""),
        ("healthz-http1.10", b"GET /healthz HTTP/1.10\r\n\r\n", healthz, False, b""),
        ("get-too-large-body", get + b"Content-Length: 65537\r\n\r\n",
         _error(413, "body over 65536 bytes", close=True), True, b""),
        ("head", b"HEAD /healthz HTTP/1.1\r\n\r\n",
         _error(501, "Unsupported method ('HEAD')", close=True, head=True), True, b""),
        ("head-http10", b"HEAD /healthz HTTP/1.0\r\n\r\n",
         _error(501, "Unsupported method ('HEAD')", close=True, head=True), True, b""),
        ("http09", b"GET /healthz\r\n\r\n", _bare({"status": "ok"}), True, b""),
        ("http09-keep-alive", b"GET /healthz\r\nConnection: keep-alive\r\n\r\n",
         _bare({"status": "ok"}), True, b""),
        ("http09-not-found", b"GET /nope\r\n\r\n", _bare({"error": "not found"}), True, b""),
        ("http09-post", b"POST /v1/price\r\n",
         _bare({"error": "Bad HTTP/0.9 request type ('POST')"}), True, b""),
        ("bad-version", b"GET / HTTP/x\r\n", _bare({"error": "Bad request version ('HTTP/x')"}),
         True, b""),
        ("http2", b"GET / HTTP/2.0\r\n", _bare({"error": "Invalid HTTP version (2.0)"}),
         True, b""),
        ("bad-syntax", b"GET / x HTTP/1.1\r\n",
         _error(400, "Bad request syntax ('GET / x HTTP/1.1')", close=True), True, b""),
        ("one-word", b"GET\r\n", _bare({"error": "Bad request syntax ('GET')"}), True, b""),
        ("put", b"PUT /v1/price HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
         _error(501, "Unsupported method ('PUT')", close=True), True, b""),
        ("uri-too-long", b"GET /" + b"a" * (65_537 - 5),
         _error(414, "Request-URI Too Long", close=True), True, b""),
        ("uri-at-the-limit", b"GET " + uri + b" HTTP/1.1\r\n\r\n", not_found, False, b""),
        ("header-line-too-long", get + b"X-A: " + b"b" * (65_537 - 5),
         _error(431, "Line too long", close=True), True, b""),
        ("99-headers", get + b"X-A: b\r\n" * 99 + b"\r\n", healthz, False, b""),
        ("100-headers", get + b"X-A: b\r\n" * 100 + b"\r\n",
         _error(431, "Too many headers", close=True), True, b""),
        ("101-headers", get + b"X-A: b\r\n" * 101,
         _error(431, "Too many headers", close=True), True, b""),
        ("100-headers-cut", get + b"X-A: b\r\n" * 100, b"", False,
         _error(431, "Too many headers", close=True)),
        ("expect-continue", post(body, b"Expect: 100-continue\r\n"), _CONTINUE + ok, False, b""),
        ("expect-continue-http10", post(body, b"Expect: 100-continue\r\n", b"HTTP/1.0"), ok,
         True, b""),
        ("expect-continue-no-body",
         b"POST /v1/price HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 9\r\n\r\n",
         _CONTINUE, False, empty),
        ("expect-continue-put",
         b"PUT /v1/price HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 0\r\n\r\n",
         _error(501, "Unsupported method ('PUT')", close=True), True, b""),
        ("expect-continue-not-found",
         b"POST /v2/price HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\n",
         _error(404, "not found", close=True), True, b""),
        ("expect-continue-too-large",
         b"POST /v1/price HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 65537\r\n\r\n",
         _error(413, "body over 65536 bytes", close=True), True, b""),
        ("pipeline", get + b"\r\n" + post(body) + b"GET /nope HTTP/1.1\r\n\r\n",
         healthz + ok + not_found, False, b""),
        ("pipeline-http10-first", b"GET /healthz HTTP/1.0\r\n\r\n" + get + b"\r\n", healthz,
         True, b""),
        ("pipeline-close-first", get + b"Connection: close\r\n\r\n" + get + b"\r\n",
         healthz, True, b""),
        ("pipeline-not-found-post", post(b"{}", path=b"/v2/price") + get + b"\r\n",
         _error(404, "not found", close=True), True, b""),
        ("pipeline-then-cut", get + b"\r\nGET /hea", healthz, False,
         _bare({"error": "not found"})),
        ("request-line-cut", b"GET /healthz HTTP/1.1", b"", False, healthz),
        ("request-line-cut-http09", b"GET /heal", b"", False, _bare({"error": "not found"})),
        ("request-line-cut-post", b"POST /v1/pr", b"", False,
         _bare({"error": "Bad HTTP/0.9 request type ('POST')"})),
        ("header-block-cut", get + b"Host: x\r\n", b"", False, healthz),
        ("header-line-cut", get + b"Host: x", b"", False, healthz),
        ("header-name-cut", b"POST /v1/price HTTP/1.1\r\nContent-Len", b"", False,
         _error(400, "malformed header line (RFC 9112 section 5)", close=True)),
        ("body-cut", b'POST /v1/price HTTP/1.1\r\nContent-Length: 20\r\n\r\n{"a": 1', b"", False,
         _error(400, "malformed request body: Expecting ',' delimiter: line 1 column 8 "
                     "(char 7)")),
        ("body-missing", b"POST /v1/price HTTP/1.1\r\nContent-Length: 20\r\n\r\n", b"", False,
         empty),
        ("blank-line", b"\r\n", b"", True, b""),
        ("blank-lf", b"\n", b"", True, b""),
        ("blank-blanks", b" \t\r\n", b"", True, b""),
        ("blank-before-request", b"\r\n" + get + b"\r\n", b"", True, b""),
        ("nothing", b"", b"", False, b""),
    ]


def _exchange_all(address, requests, half_close: bool) -> list[tuple[bytes, bool]]:
    """Send each request on a connection of its own (then shut the sending
    side, if ``half_close``) and read all of them at once: the bytes each got,
    masked, and whether the server closed it. A connection the server keeps
    open has sent all it will once no byte has come on any for a second."""
    socks = [socket.create_connection(address, timeout=10) for _ in requests]
    got = {sock: bytearray() for sock in socks}
    closed = set()
    try:
        with selectors.DefaultSelector() as sel:
            for sock, request in zip(socks, requests):
                sock.sendall(request)
                if half_close:
                    sock.shutdown(socket.SHUT_WR)
                sel.register(sock, selectors.EVENT_READ)
            while len(closed) < len(socks):
                events = sel.select(1.0)
                if not events:
                    break
                for key, _ in events:
                    data = key.fileobj.recv(65_536)
                    got[key.fileobj] += data
                    if not data:
                        closed.add(key.fileobj)
                        sel.unregister(key.fileobj)
    finally:
        for sock in socks:
            sock.close()
    masked = [re.sub(rb"(\r\nServer: BaseHTTP/0\.6 Python/)[^\r\n]*", rb"\1*",
                     re.sub(rb"(\r\nDate: )[^\r\n]*", rb"\1*", bytes(got[sock])))
              for sock in socks]
    return [(reply, sock in closed) for reply, sock in zip(masked, socks)]


@pytest.mark.parametrize("half_close", [False, True], ids=["open", "half-closed"])
def test_wire_bytes_are_pinned(service, half_close):
    """Every byte of each reply, for requests sent whole and for requests the
    peer ends with a half-close (which answers a request cut short)."""
    svc, bundle = service
    table = _wire_table(bundle)
    got = _exchange_all(svc.address, [request for _, request, *_ in table], half_close)
    expected = [(reply + at_eof, True) if half_close else (reply, closes)
                for _, _, reply, closes, at_eof in table]
    assert dict(zip([name for name, *_ in table], got)) == dict(
        zip([name for name, *_ in table], expected))
