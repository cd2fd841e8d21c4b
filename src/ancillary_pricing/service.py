"""Minimal HTTP service exposing price recommendations.

POST /v1/price takes a session record (JSON, label optional) and returns
the loaded policy's quote; GET /healthz reports liveness. Requests are
served against an immutable policy snapshot; swapping in a new model is a
single reference replacement, so in-flight readers are never disrupted.

Each connection is bounded: a request body may hold at most MAX_BODY_BYTES,
and a socket that stays silent for CONNECTION_TIMEOUT_S seconds (idle
between requests, or short of its promised body) is closed. Header blocks
keep http.client's limits (431), and a block whose framing is ambiguous
(RFC 9112 sections 5 and 6.3) is refused with 400 and a close.
"""

from __future__ import annotations

import json
import logging
import re
import threading
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from .errors import NonFiniteInput, ParseError, SchemaMismatch
from .policies import PricingPolicy
from .session_io import session_from_dict

log = logging.getLogger(__name__)

# A session body is ~300 bytes; anything far larger is refused unread.
MAX_BODY_BYTES = 64 * 1024
CONNECTION_TIMEOUT_S = 30.0
_MAX_LINE, _MAX_HEADERS = 65536, 100  # http.client's limits on a header block
_TOKEN = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")  # a field name (RFC 9110 5.6.2)
# Assigned to bit_generator.state, restarts default_rng(0)'s stream at ~1/8 the cost.
_SEED0_STATE = np.random.PCG64(0).state


class _RefusedHeaders(Exception):
    """A header block answered with ``args``: (status, message)."""


def _read_headers(rfile) -> dict[str, str]:
    """The header block as {lower-cased name: value}; each value is what
    ``http.client.parse_headers`` gives, the first of a repeated name wins.
    Refused: a block over http.client's limits (431), and framing readers
    could split differently (400): a line with no colon or a name that is no
    token (blanks before the colon, obs-fold), a bare CR, and two differing
    Content-Length fields."""
    lines = []
    while True:  # http.client's checks in its order: a refused block is read as far as there
        line = rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise _RefusedHeaders(431, "Line too long")
        if len(lines) >= _MAX_HEADERS:  # http.client counts the blank line too
            raise _RefusedHeaders(431, "Too many headers")
        if line in (b"\r\n", b"\n", b""):
            break
        lines.append(line.decode("iso-8859-1").removesuffix("\n").removesuffix("\r"))
    headers: dict[str, str] = {}
    for text in lines:
        name, colon, value = text.partition(":")
        if not colon or "\r" in text or not _TOKEN.fullmatch(name):
            raise _RefusedHeaders(400, "malformed header line (RFC 9112 section 5)")
        name, value = name.lower(), value.lstrip(" \t")
        first = headers.setdefault(name, value)
        if name == "content-length" and first.strip() != value.strip():
            raise _RefusedHeaders(400, "conflicting Content-Length fields")
    return headers


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = CONNECTION_TIMEOUT_S

    def setup(self):
        super().setup()
        self._rng = np.random.default_rng(0)  # reset to _SEED0_STATE before each quote

    def parse_request(self) -> bool:
        """The stdlib's ``parse_request`` with ``_read_headers`` in place of
        ``http.client.parse_headers``, an ``email`` parse of every block.
        (protocol_version is HTTP/1.1, so the stdlib's checks of it hold.)"""
        self.command = None
        self.request_version = version = self.default_request_version
        self.close_connection = True
        self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            number = version[5:].split(".") if version.startswith("HTTP/") else ()
            if len(number) != 2 or not all(n.isascii() and n.isdigit() and len(n) <= 10
                                           for n in number):
                self.send_error(400, f"Bad request version ({version!r})")
                return False
            number = int(number[0]), int(number[1])
            if number >= (1, 1):
                self.close_connection = False
            if number >= (2, 0):
                self.send_error(505, f"Invalid HTTP version ({version[5:]})")
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(400, f"Bad request syntax ({self.requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(400, f"Bad HTTP/0.9 request type ({command!r})")
                return False
        self.command, self.path = command, path
        if path.startswith("//"):
            self.path = "/" + path.lstrip("/")
        try:
            self.headers = _read_headers(self.rfile)
        except _RefusedHeaders as err:
            self.send_error(*err.args)
            return False
        connection = self.headers.get("connection", "").rstrip(" \t").lower()  # RFC 9110 5.5
        if connection in ("close", "keep-alive"):
            self.close_connection = connection == "close"
        if (self.headers.get("expect", "").rstrip(" \t").lower() == "100-continue"
                and self.request_version >= "HTTP/1.1"):
            return self.handle_expect_100()
        return True

    def _reply(self, status: int, body: dict, close: bool = False):
        """Send status line, headers and body in one socket write.

        Writing the body separately after the headers makes the second
        small segment wait for the peer's delayed ACK (Nagle's algorithm),
        about 40 ms per reply on a keep-alive connection.
        """
        blob = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        if close:  # also sets close_connection
            self.send_header("Connection", "close")
        if self.request_version == "HTTP/0.9":  # no status line, no headers
            self.wfile.write(blob)
            return
        if self.command == "HEAD":  # headers only
            blob = b""
        self._headers_buffer.append(b"\r\n" + blob)
        self.flush_headers()

    def _read_body(self) -> bytes | None:
        """The request body, or None after replying with an error.

        An error reply closes the connection: the unread body would
        otherwise be parsed as the next request. A body framed by
        ``Transfer-Encoding`` (chunked) is not supported: 501, unread.
        """
        if "transfer-encoding" in self.headers:
            self._reply(501, {"error": "Transfer-Encoding is not supported; "
                                       "send a Content-Length"}, close=True)
            return None
        text = self.headers.get("content-length", "0").strip()
        if not (text.isascii() and text.isdigit()):
            self._reply(400, {"error": f"bad Content-Length: {text!r}"}, close=True)
            return None
        length = int(text)
        if length > MAX_BODY_BYTES:
            self._reply(413, {"error": f"body over {MAX_BODY_BYTES} bytes"}, close=True)
            return None
        try:
            return self.rfile.read(length)
        except TimeoutError:
            self._reply(408, {"error": "timed out reading the request body"}, close=True)
            return None

    def send_error(self, code, message=None, explain=None):
        """Errors the stdlib detects itself (an unsupported method, a
        malformed request line, an over-long line or header) as JSON in one
        write through ``_reply``, closing the connection as the stdlib does;
        HTTP/0.9 still gets a bare body. Every such code (400, 414, 431, 501,
        505) carries a body.
        """
        short = self.responses.get(code, ("???",))[0]
        message = short if message is None else message
        self.log_error("code %d, message %s", code, message)
        self._reply(code, {"error": message}, close=True)

    def do_GET(self):
        if self._read_body() is None:  # a body left unread would start the next request
            return
        if self.path == "/healthz":
            self._reply(200, {"status": "ok"})
        else:
            self._reply(404, {"error": "not found"})

    def do_POST(self):
        if self.path != "/v1/price":  # body left unread, so close
            self._reply(404, {"error": "not found"}, close=True)
            return
        try:
            raw = self._read_body()
            if raw is None:
                return
            try:
                obj = json.loads(raw.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                self._reply(400, {"error": f"malformed request body: {exc}"})
                return
            try:
                session = session_from_dict(obj, line=1)
            except ParseError as exc:
                self._reply(422, {"error": exc.reason})
                return
            policy: PricingPolicy = self.server.service.policy
            try:
                self._rng.bit_generator.state = _SEED0_STATE
                quote = policy.quote(session, self._rng)
            except (SchemaMismatch, NonFiniteInput) as exc:
                self._reply(422, {"error": str(exc)})
                return
            self._reply(200, quote.to_dict())
        except Exception:
            error_id = uuid.uuid4().hex
            log.exception("request %s failed", error_id)
            try:
                self._reply(500, {"error": "internal error", "error_id": error_id})
            except Exception:
                pass

    def log_request(self, code="-", size="-"):
        if log.isEnabledFor(logging.DEBUG):  # else the line would be formatted, then dropped
            super().log_request(code, size)

    def log_message(self, fmt, *args):
        log.debug("%s - %s", self.address_string(), fmt % args)


class PricingService:
    """Threaded HTTP server around one immutable policy snapshot."""

    def __init__(self, policy: PricingPolicy, host: str = "127.0.0.1", port: int = 0):
        self.policy = policy
        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.service = self
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    def swap_policy(self, policy: PricingPolicy) -> None:
        """Atomic snapshot replacement; readers see old or new, never a mix."""
        self.policy = policy

    def start_background(self) -> None:
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    def serve_forever(self) -> None:
        log.info("serving on %s:%d", *self.address)
        self._server.serve_forever()

    def shutdown(self) -> None:
        self._server.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._server.server_close()
