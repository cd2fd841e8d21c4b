"""Minimal HTTP service exposing price recommendations.

POST /v1/price takes a session record (JSON, label optional) and returns
the loaded policy's quote; GET /healthz reports liveness. Requests are
served against an immutable policy snapshot; swapping in a new model is a
single reference replacement, so in-flight readers are never disrupted.

One thread serves every connection: a ``selectors`` loop owns the listener
and each socket. A connection frames its current request as the bytes
arrive, each byte scanned once: the request line, the header block, then
the Content-Length body. The request is answered once, when it is
complete, or as soon as its head is refused. No socket call blocks, so a
slow or silent peer holds up no other.

Each connection is bounded: a request body may hold at most MAX_BODY_BYTES,
and a connection that makes no progress for CONNECTION_TIMEOUT_S seconds
(its deadline) is closed: quietly when idle between requests, after a 408
when short of its promised body, and at once when its peer does not read
the replies.
Request lines and header blocks keep http.client's limits (414, 431), and a
block whose framing is ambiguous (RFC 9112 sections 5 and 6.3) is refused
with 400 and a close. The request-line rules, the status lines and the
Server and Date headers are those of the stdlib's ``http.server``, which
is not used.
"""

from __future__ import annotations

import io
import json
import logging
import re
import selectors
import socket
import sys
import threading
import time
import uuid
from email.utils import formatdate
from http import HTTPStatus

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
_SERVER = "BaseHTTP/0.6 Python/" + sys.version.split()[0]  # http.server's Server value


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


class _Connection:
    """A socket, the bytes received and not yet answered, the reply bytes
    not yet sent, and when it is closed if no progress is made.

    The request at the front of ``data`` is framed as its bytes arrive:
    ``line`` is where the head's line being scanned starts, ``scanned`` the
    first byte not yet scanned and ``lines`` the head's lines read so far,
    the request line first. Once the head is in, the body lies from
    ``start`` to ``body_end``. ``close`` is whether the connection ends with
    this request, ``closing`` that it ends once ``out`` has gone."""

    __slots__ = ("sock", "address", "service", "rng", "data", "scanned", "line", "lines",
                 "start", "body_end", "requestline", "command", "path", "version", "close",
                 "out", "eof", "closing", "deadline")

    def __init__(self, sock: socket.socket, address, service: PricingService):
        self.sock, self.address, self.service = sock, address, service
        self.rng = np.random.default_rng(0)  # reset to _SEED0_STATE before each quote
        self.data, self.out = bytearray(), bytearray()
        self.eof = self.closing = False
        self.deadline = time.monotonic() + CONNECTION_TIMEOUT_S
        self._next_request(0)

    def _next_request(self, end: int) -> None:
        """Drop the bytes up to ``end``; frame the request that follows."""
        del self.data[:end]
        self.scanned = self.line = self.lines = 0
        self.body_end = None

    def frame(self, expired: bool) -> bool:
        """Take the current request as far as its bytes go: refuse its head,
        or answer it once its body is in. False while it waits for bytes.
        At end of stream each part ends with what there is; once ``expired``,
        a request short of its bytes ends the connection (a 408 mid-body)."""
        if self.body_end is None:
            return self._frame_head(expired)
        if len(self.data) < self.body_end and not self.eof:
            if not expired:
                return False
            self._reply(408, {"error": "timed out reading the request body"}, close=True)
        else:
            self._respond(self.data[self.start:self.body_end])
        self.closing = self.close
        self._next_request(self.body_end)
        return True

    def _frame_head(self, expired: bool) -> bool:
        while True:
            end = self._line_end()
            if end < 0:  # the line is not all in
                if not expired:
                    return False
                log.debug("%s - request timed out", self.address[0])
                self.closing = True
                return True
            if self.lines == 0:
                if not self._parse_request_line(self.data[:end]):
                    self.closing = True
                    return True
                self.start = end
            elif (end - self.line > _MAX_LINE or self.lines > _MAX_HEADERS
                  or self.data[self.line:end] in (b"\r\n", b"\n", b"")):
                self.closing = not self._parse_head(end)
                return True
            self.lines += 1
            self.line = end

    def _line_end(self) -> int:
        """Where the line at ``line`` ends as ``readline(_MAX_LINE + 1)``
        reads it: after its LF, at the limit or at end of stream; -1 while
        it is not all in."""
        stop = self.line + _MAX_LINE + 1
        end = self.data.find(b"\n", self.scanned, stop)
        if end >= 0:
            self.scanned = end + 1
            return self.scanned
        self.scanned = min(len(self.data), stop)
        return self.scanned if self.scanned == stop or self.eof else -1

    def _parse_request_line(self, raw: bytearray) -> bool:
        """The stdlib's checks of a request line (``handle_one_request``,
        ``parse_request``). False once it is refused, or when it is blank
        or the stream has ended, which closes the connection unanswered."""
        self.command, self.version, self.close = None, "HTTP/0.9", True
        if len(raw) > _MAX_LINE:
            self.requestline = self.version = self.command = ""
            return self._refuse(414)
        self.requestline = str(raw, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            number = version[5:].split(".") if version.startswith("HTTP/") else ()
            if len(number) != 2 or not all(n.isascii() and n.isdigit() and len(n) <= 10
                                           for n in number):
                return self._refuse(400, f"Bad request version ({version!r})")
            number = int(number[0]), int(number[1])
            if number >= (1, 1):
                self.close = False
            if number >= (2, 0):
                return self._refuse(505, f"Invalid HTTP version ({version[5:]})")
            self.version = version
        if not 2 <= len(words) <= 3:
            return self._refuse(400, f"Bad request syntax ({self.requestline!r})")
        command, path = words[:2]
        if len(words) == 2:
            self.close = True
            if command != "GET":
                return self._refuse(400, f"Bad HTTP/0.9 request type ({command!r})")
        self.command = command
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        return True

    def _parse_head(self, end: int) -> bool:
        """The header block ends at ``end``: True to wait for the body, False
        once the request is refused. An error reply closes the connection:
        the unread body would otherwise be parsed as the next request. A body
        framed by ``Transfer-Encoding`` (chunked) is not supported: 501. A
        100 Continue is sent only for a body that will be read (RFC 9110
        section 10.1.1), and HTTP/0.9, whose reply only a close ends, closes."""
        try:
            headers = _read_headers(io.BytesIO(self.data[self.start:end]))
        except _RefusedHeaders as err:
            return self._refuse(*err.args)
        connection = headers.get("connection", "").rstrip(" \t").lower()  # RFC 9110 5.5
        if connection in ("close", "keep-alive") and self.version != "HTTP/0.9":
            self.close = connection == "close"
        if self.command not in ("GET", "POST"):
            return self._refuse(501, f"Unsupported method ({self.command!r})")
        if self.command == "POST" and self.path != "/v1/price":
            return self._refuse(404, "not found")
        if "transfer-encoding" in headers:
            return self._refuse(501, "Transfer-Encoding is not supported; send a Content-Length")
        text = headers.get("content-length", "0").strip()
        if not (text.isascii() and text.isdigit()):
            return self._refuse(400, f"bad Content-Length: {text!r}")
        if int(text) > MAX_BODY_BYTES:
            return self._refuse(413, f"body over {MAX_BODY_BYTES} bytes")
        if (headers.get("expect", "").rstrip(" \t").lower() == "100-continue"
                and self.version >= "HTTP/1.1"):
            self.out += b"HTTP/1.1 100 Continue\r\n\r\n"
        self.start, self.body_end = end, end + int(text)
        return True

    def _respond(self, raw: bytearray) -> None:
        """Answer the request whose body is ``raw``."""
        if self.command == "GET":
            if self.path == "/healthz":
                self._reply(200, {"status": "ok"})
            else:
                self._reply(404, {"error": "not found"})
            return
        try:
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
            policy: PricingPolicy = self.service.policy
            try:
                self.rng.bit_generator.state = _SEED0_STATE
                quote = policy.quote(session, self.rng)
            except (SchemaMismatch, NonFiniteInput) as exc:
                self._reply(422, {"error": str(exc)})
                return
            self._reply(200, quote.to_dict())
        except Exception:
            error_id = uuid.uuid4().hex
            log.exception("request %s failed", error_id)
            self._reply(500, {"error": "internal error", "error_id": error_id})

    def _refuse(self, status: int, message: str | None = None) -> bool:
        """A JSON error that closes the connection; False."""
        self._reply(status, {"error": message or HTTPStatus(status).phrase}, close=True)
        return False

    def _reply(self, status: int, body: dict, close: bool = False) -> None:
        """Queue status line, headers and body to go out in one socket write.

        Writing the body separately after the headers makes the second
        small segment wait for the peer's delayed ACK (Nagle's algorithm),
        about 40 ms per reply on a keep-alive connection.
        """
        log.debug('%s - "%s" %d', self.address[0], self.requestline, status)
        blob = json.dumps(body).encode()
        self.close |= close
        if self.version == "HTTP/0.9":  # no status line, no headers
            self.out += blob
            return
        connection = "Connection: close\r\n" if close else ""
        self.out += (f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\nServer: {_SERVER}\r\n"
                     f"Date: {formatdate(usegmt=True)}\r\nContent-Type: application/json\r\n"
                     f"Content-Length: {len(blob)}\r\n{connection}\r\n").encode("latin-1")
        if self.command != "HEAD":  # headers only
            self.out += blob


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
            log.exception("connection from %s failed", conn.address[0])
            self._close(conn)

    def _accept(self) -> None:
        try:
            sock, address = self._listener.accept()
        except OSError:  # the peer gave up, or no descriptor is left: try at the next event
            return
        sock.setblocking(False)
        self._selector.register(sock, selectors.EVENT_READ, _Connection(sock, address, self))

    def _receive(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:
            self._close(conn)
            return
        if data:
            conn.data += data
        else:
            conn.eof = True
        self._answer(conn)

    def _send(self, conn: _Connection) -> None:
        if self._flush(conn):
            self._answer(conn)

    def _expire(self, conn: _Connection) -> None:
        """Past the deadline: a request short of its bytes is ended (see
        ``_Connection.frame``); a connection whose replies are not read, closed."""
        if conn.out or conn.closing:
            self._close(conn)
        else:
            self._answer(conn, expired=True)

    def _answer(self, conn: _Connection, expired: bool = False) -> None:
        """Frame and answer the requests received, in order, while every
        reply so far has gone out; then wait for what is next."""
        while not conn.out and not conn.closing and conn.frame(expired):
            if conn.out and not self._flush(conn):
                return
        if conn.closing and not conn.out:
            self._close(conn)
            return
        events = selectors.EVENT_WRITE if conn.out else selectors.EVENT_READ
        if self._selector.get_key(conn.sock).events != events:
            self._selector.modify(conn.sock, events, conn)
        conn.deadline = time.monotonic() + CONNECTION_TIMEOUT_S

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
