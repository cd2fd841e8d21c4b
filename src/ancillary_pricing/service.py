"""Minimal HTTP service exposing price recommendations.

POST /v1/price takes a session record (JSON, label optional) and returns
the loaded policy's quote; GET /healthz reports liveness. Requests are
served against an immutable policy snapshot; swapping in a new model is a
single reference replacement, so in-flight readers are never disrupted.

One thread serves every connection: a ``selectors`` loop owns the listener
and each socket, and runs ``_Handler`` on a request once its bytes are in.
No socket call blocks, so a slow or silent peer holds up no other.

Each connection is bounded: a request body may hold at most MAX_BODY_BYTES,
and a connection that makes no progress for CONNECTION_TIMEOUT_S seconds
(its deadline) is closed: quietly when idle between requests, after a 408
when short of its promised body, and at once when its peer does not read
the replies.
Header blocks keep http.client's limits (431), and a block whose framing is
ambiguous (RFC 9112 sections 5 and 6.3) is refused with 400 and a close.
"""

from __future__ import annotations

import io
import json
import logging
import re
import selectors
import socket
import threading
import time
import uuid
from http.server import BaseHTTPRequestHandler

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
_POLL_S = 0.5  # the longest the loop sleeps: how late a deadline or shutdown() is seen
_RECV_BYTES = 65536


class _NeedMore(BaseException):
    """A read ran past the bytes received. Not an ``Exception``, so that
    ``do_POST``'s ``except Exception`` lets it through to the loop."""


class _Input:
    """One connection's received bytes: the ``rfile`` its ``_Handler`` reads.

    Each run of the handler reads the current request from its first byte.
    A read that runs past the bytes received raises ``_NeedMore`` and records
    what would let it finish; ``ready`` tells when that has arrived, looking
    only at bytes it has not scanned: the request line's end, the header
    block's end or a line or count past its limits, or the body's last byte.
    So a request is run at most once for each of these however its bytes
    trickle in. At end of stream a read returns what there is; once the
    deadline has passed, a read short of its bytes raises TimeoutError."""

    def __init__(self):
        self.data = bytearray()
        self.eof = self.expired = False
        self.pos = 0
        self.next_request()

    def next_request(self):
        """Drop the bytes of the request just answered; wait for a request line."""
        del self.data[:self.pos]
        self.pos = self.lines = 0  # lines: readline calls of this run
        self.line = self.scanned = 0  # the line the scan is in; the first byte not scanned
        self.headers: int | None = None  # header lines before it; None: the request line
        self.want: int | None = None  # the body's end, when a read(size) stalled

    def ready(self) -> bool:
        if self.eof or self.expired:
            return True
        if self.want is not None:
            return len(self.data) >= self.want
        while True:  # the window and limits are those of the handler's readline calls
            end = self.data.find(b"\n", self.scanned, self.line + _MAX_LINE + 1)
            if end < 0:
                self.scanned = len(self.data)
                return self.scanned - self.line > _MAX_LINE
            if (self.headers is None or end + 1 - self.line > _MAX_LINE
                    or self.headers >= _MAX_HEADERS
                    or self.data[self.line:end + 1] in (b"\n", b"\r\n")):
                return True
            self.headers += 1
            self.line = self.scanned = end + 1

    def readline(self, limit: int) -> bytes:
        end = self.data.find(b"\n", self.pos, self.pos + limit)
        if end < 0 and len(self.data) < self.pos + limit:
            self.line, self.scanned, self.want = self.pos, len(self.data), None
            self.headers = self.lines - 1 if self.lines else None
            self._stall()
        self.lines += 1
        return self._take(end + 1 if end >= 0 else self.pos + limit)

    def read(self, size: int) -> bytes:
        if len(self.data) < self.pos + size:
            self.want = self.pos + size
            self._stall()
        return self._take(self.pos + size)

    def _stall(self):
        if self.eof:
            return
        if self.expired:
            raise TimeoutError("the connection's deadline passed")
        raise _NeedMore

    def _take(self, stop: int) -> bytes:
        chunk = bytes(self.data[self.pos:stop])
        self.pos += len(chunk)
        return chunk


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

    def __init__(self, client_address, server: PricingService):
        """One connection's handler. It is not run at once, as the stdlib's
        is: the loop calls ``handle_one_request`` each time its ``rfile``
        may hold the next request, and sends what it wrote to ``wfile``."""
        self.client_address, self.server = client_address, server
        self.rfile, self.wfile = _Input(), io.BytesIO()
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
            policy: PricingPolicy = self.server.policy
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


class _Connection:
    """A socket, its handler, the reply bytes not yet sent, the bytes of the
    current request's replies already queued (a 100 Continue, skipped when
    the request runs again), and when it is closed if no progress is made."""

    __slots__ = ("sock", "handler", "out", "queued", "closing", "deadline")

    def __init__(self, sock: socket.socket, handler: _Handler):
        self.sock, self.handler = sock, handler
        self.out, self.queued, self.closing = bytearray(), 0, False
        self.deadline = time.monotonic() + handler.timeout


class PricingService:
    """One thread's selector loop around one immutable policy snapshot."""

    def __init__(self, policy: PricingPolicy, host: str = "127.0.0.1", port: int = 0):
        self.policy = policy
        self._listener = socket.create_server((host, port))
        self._listener.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._stopping = False
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()[:2]

    def swap_policy(self, policy: PricingPolicy) -> None:
        """Atomic snapshot replacement; readers see old or new, never a mix."""
        self.policy = policy

    def start_background(self) -> None:
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def serve_forever(self) -> None:
        log.info("serving on %s:%d", *self.address)
        self._serve()

    def shutdown(self) -> None:
        """Stop the loop (seen within _POLL_S) and close every socket."""
        self._stopping = True
        if self._thread is not None:
            self._thread.join(timeout=5)
        for key in list(self._selector.get_map().values()):
            key.fileobj.close()
        self._selector.close()

    def _serve(self) -> None:
        next_sweep = 0.0
        while not self._stopping:
            for key, events in self._selector.select(_POLL_S):
                if key.data is None:
                    self._accept()
                else:
                    self._step(self._send if events & selectors.EVENT_WRITE else self._receive,
                               key.data)
            now = time.monotonic()
            if now >= next_sweep:
                next_sweep = now + _POLL_S
                for key in list(self._selector.get_map().values()):
                    if key.data is not None and key.data.deadline <= now:
                        self._step(self._expire, key.data)

    def _step(self, step, conn: _Connection) -> None:
        try:
            step(conn)
        except Exception:  # one connection's fault must not stop the loop
            log.exception("connection from %s failed", conn.handler.address_string())
            self._close(conn)

    def _accept(self) -> None:
        try:
            sock, address = self._listener.accept()
        except OSError:  # the peer gave up, or no descriptor is left: try at the next event
            return
        sock.setblocking(False)
        conn = _Connection(sock, _Handler(address, self))
        self._selector.register(sock, selectors.EVENT_READ, conn)

    def _receive(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:
            self._close(conn)
            return
        if data:
            conn.handler.rfile.data += data
        else:
            conn.handler.rfile.eof = True
        self._answer(conn)

    def _send(self, conn: _Connection) -> None:
        if self._flush(conn):
            self._answer(conn)

    def _expire(self, conn: _Connection) -> None:
        """Past the deadline: a request short of its bytes is run again, for
        the handler to answer the TimeoutError; replies not read, closed."""
        if conn.out or conn.closing:
            self._close(conn)
        else:
            conn.handler.rfile.expired = True
            self._answer(conn)

    def _answer(self, conn: _Connection) -> None:
        """Run the handler on each request that may be complete, in order,
        while every reply so far has gone out; then wait for what is next."""
        handler, rfile, wfile = conn.handler, conn.handler.rfile, conn.handler.wfile
        while not conn.out and not conn.closing and rfile.ready():
            rfile.pos = rfile.lines = 0
            try:
                handler.handle_one_request()
                done = True
            except _NeedMore:
                done = False
            written = wfile.getvalue()
            wfile.seek(0)
            wfile.truncate()
            conn.out += written[conn.queued:]
            if done:
                conn.queued, conn.closing = 0, handler.close_connection
                rfile.next_request()
            else:
                conn.queued = len(written)
            if conn.out and not self._flush(conn):
                return
        if conn.closing and not conn.out:
            self._close(conn)
            return
        events = selectors.EVENT_WRITE if conn.out else selectors.EVENT_READ
        if self._selector.get_key(conn.sock).events != events:
            self._selector.modify(conn.sock, events, conn)
        conn.deadline = time.monotonic() + handler.timeout

    def _flush(self, conn: _Connection) -> bool:
        """Send what the socket takes now; False if that closed the connection."""
        try:
            del conn.out[:conn.sock.send(conn.out)]
        except BlockingIOError:
            pass
        except OSError:  # the peer is gone: so are its replies and requests
            self._close(conn)
            return False
        return True

    def _close(self, conn: _Connection) -> None:
        self._selector.unregister(conn.sock)
        conn.sock.close()
