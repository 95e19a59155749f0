"""Persistent-connection HTTP/1.1 serving for the control plane.

The server is a handler on :class:`~repro.service.transport.
TcpListener`: one handler thread per client connection (concurrency
is bounded by the app's agent pool, which serializes per agent) loops
over the requests that arrive on it, so a client pays one TCP accept
and one thread spawn per connection, not per request.  Per request:

* the request line, headers and body are parsed into one
  :class:`~repro.controlplane.app.Request`, and the app is called
  with it;
* the body is read in full by ``Content-Length`` before the app runs,
  so a body the app ignores can never desync the stream;
* status, headers, ``Content-Length`` and body leave in one ``write``
  on a ``TCP_NODELAY`` socket (a ``HEAD`` reply without the body);
* the connection stays open unless the client sent
  ``Connection: close`` or spoke HTTP/1.0 without ``keep-alive``.

A request the stream cannot be trusted past is answered and the
connection closed: a malformed request line or header gets ``400``,
``Transfer-Encoding`` ``501``, a ``Content-Length`` over
:data:`~repro.controlplane.app.MAX_BODY` ``413`` before a byte of
the body is read; so is an exception out of the app (``500``, its
traceback on stderr).  :meth:`ControlPlaneServer.close` is the
listener's drain: idle connections end at once, a request in flight
still gets its reply, and no handler thread outlives the server.
"""

from __future__ import annotations

import json
import traceback
from email.utils import formatdate
from http import HTTPStatus
from typing import Dict, Tuple
from urllib.parse import unquote

from repro.controlplane.app import MAX_BODY, Headers, Request
from repro.service.transport import (
    TcpConnection,
    TcpListener,
    TransportClosed,
)

__all__ = ["ControlPlaneServer"]

_MAX_LINE = 8192  # bytes in the request line or in any header line
_MAX_HEADERS = 100


class _Refused(Exception):
    """A request the stream cannot be trusted past: answer, close."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _error(message: str) -> Tuple[Headers, bytes]:
    return ([("Content-Type", "application/json")],
            json.dumps({"error": message}).encode("utf-8"))


class _Connection:
    """Serve requests on one connection until either side closes it."""

    def __init__(self, server: "ControlPlaneServer",
                 conn: TcpConnection) -> None:
        self.server = server
        self.conn = conn
        self.rfile = conn.reader()

    def handle(self) -> None:
        try:
            while self._serve_one():
                pass
        except (OSError, TransportClosed):
            pass  # the peer went away, or close() shut the socket down
        finally:
            self.rfile.close()

    def _serve_one(self) -> bool:
        """Answer one request; return whether to keep the connection."""
        line = self.rfile.readline(_MAX_LINE + 1)
        while line in (b"\r\n", b"\n"):  # stray CRLFs between requests
            line = self.rfile.readline(_MAX_LINE + 1)
        if not line:
            return False  # the client closed between requests
        try:
            request, version, keep = self._parse(line)
        except _Refused as exc:
            headers, body = _error(str(exc))
            self._send("HTTP/1.1", exc.status, headers, body,
                       keep=False, head=False)
            return False
        try:
            status, headers, body = self.server.app(request)
        except Exception as exc:  # noqa: BLE001 - the 500 fence
            traceback.print_exc()
            status = 500
            headers, body = _error(f"{type(exc).__name__}: {exc}")
            keep = False
        self._send(version, status, headers, body,
                   keep=keep, head=request.method == "HEAD")
        return keep

    def _parse(self, line: bytes) -> Tuple[Request, str, bool]:
        """``(request, version, keep)`` of the request *line* opens."""
        if len(line) > _MAX_LINE or not line.endswith(b"\n"):
            raise _Refused(400, "request line too long or unterminated")
        parts = line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _Refused(400, "malformed request line")
        method, target, version = parts
        if version not in ("HTTP/1.1", "HTTP/1.0"):
            raise _Refused(505, f"{version} is not supported")
        headers = self._read_headers()
        if "transfer-encoding" in headers:
            raise _Refused(501, "Transfer-Encoding is not supported; "
                                "send Content-Length")
        length_field = headers.get("content-length")
        length = 0
        if length_field is not None:
            if not (length_field.isdigit() and length_field.isascii()):
                raise _Refused(400, f"unreadable Content-Length "
                                    f"{length_field!r}")
            length = int(length_field)
            if length > MAX_BODY:
                raise _Refused(413, f"body length {length} is over "
                                    f"{MAX_BODY}")
        body = self.rfile.read(length) if length else b""
        if len(body) < length:
            raise ConnectionAbortedError("the client closed mid-body")
        tokens = {token.strip() for token in
                  headers.get("connection", "").lower().split(",")}
        if version == "HTTP/1.1":
            keep = "close" not in tokens
        else:
            keep = "keep-alive" in tokens
        path = unquote(target.partition("?")[0], "latin-1")
        return Request(method, path, headers, body), version, keep

    def _read_headers(self) -> Dict[str, str]:
        """Lower-cased name -> value; repeats joined with ``", "``."""
        headers: Dict[str, str] = {}
        for _ in range(_MAX_HEADERS):
            raw = self.rfile.readline(_MAX_LINE + 1)
            if raw in (b"\r\n", b"\n"):
                return headers
            if len(raw) > _MAX_LINE or not raw.endswith(b"\n"):
                raise _Refused(400, "malformed header line")
            name, sep, value = raw.decode("latin-1").partition(":")
            # No whitespace in or around the name: a leading one is an
            # obsolete line fold, a trailing one a smuggling vector.
            if not sep or name.split() != [name]:
                raise _Refused(400, f"malformed header {name!r}")
            name, value = name.lower(), value.strip()
            headers[name] = (f"{headers[name]}, {value}"
                             if name in headers else value)
        raise _Refused(400, "too many header lines")

    def _send(self, version: str, status: int, headers: Headers,
              body: bytes, *, keep: bool, head: bool) -> None:
        lines = [f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
                 f"Date: {formatdate(usegmt=True)}"]
        lines.extend(f"{name}: {value}" for name, value in headers)
        lines.append(f"Content-Length: {len(body)}")
        if not keep:
            lines.append("Connection: close")
        elif version == "HTTP/1.0":
            lines.append("Connection: keep-alive")
        lines.append("\r\n")
        data = "\r\n".join(lines).encode("latin-1")
        self.conn.send_bytes(data if head else data + body)


class ControlPlaneServer:
    """Serve *app* on a :class:`TcpListener`: a
    :class:`~repro.controlplane.app.ControlPlaneApp`, or any callable
    ``app(request) -> (status, headers, body)``."""

    def __init__(self, app, *, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.app = app
        self._listener = TcpListener(host, port)
        self.host = self._listener.host
        self.port = self._listener.port
        self._started = False

    def start(self) -> "ControlPlaneServer":
        if not self._started:
            self._started = True
            self._listener.serve(
                lambda conn: _Connection(self, conn).handle(),
                name=f"controlplane-{self.port}",
            )
        return self

    def close(self) -> None:
        """Stop accepting, then drain every live connection."""
        self._listener.close()

    def __enter__(self) -> "ControlPlaneServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

