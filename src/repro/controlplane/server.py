"""Persistent-connection HTTP/1.1 serving for the control plane.

The server is a handler on :class:`~repro.service.transport.
TcpListener`: one handler thread per client connection (concurrency
is bounded by the app's agent pool, which serializes per agent) loops
over the requests that arrive on it, so a client pays one TCP accept
and one thread spawn per connection, not per request.  Per request:

* the request line and headers are parsed straight into a WSGI
  ``environ``;
* the body is read in full by ``Content-Length`` before the app runs,
  so a body the app ignores can never desync the stream;
* status, headers and body leave in one ``write`` on a
  ``TCP_NODELAY`` socket;
* the connection stays open unless the client sent
  ``Connection: close`` or spoke HTTP/1.0 without ``keep-alive``.

A request the stream cannot be trusted past is answered and the
connection closed: a malformed request line or header gets ``400``,
``Transfer-Encoding`` ``501``, a ``Content-Length`` over
:data:`~repro.controlplane.app.MAX_BODY` ``413`` before a byte of
the body is read.  :meth:`ControlPlaneServer.close` is the listener's
drain: idle connections end at once, a request in flight still gets
its reply, and no handler thread outlives the server.
"""

from __future__ import annotations

import io
import json
import sys
import traceback
from email.utils import formatdate
from typing import Dict, List, Tuple
from urllib.parse import unquote

from repro.controlplane.app import MAX_BODY
from repro.service.transport import (
    TcpConnection,
    TcpListener,
    TransportClosed,
)

__all__ = ["ControlPlaneServer", "serve_controlplane"]

_MAX_LINE = 8192  # bytes in the request line or in any header line
_MAX_HEADERS = 100

_Headers = List[Tuple[str, str]]


class _Refused(Exception):
    """A request the stream cannot be trusted past: answer, close."""

    def __init__(self, status: str, message: str) -> None:
        super().__init__(message)
        self.status = status


def _error(message: str) -> Tuple[_Headers, bytes]:
    return ([("Content-Type", "application/json")],
            json.dumps({"error": message}).encode("utf-8"))


class _Connection:
    """Serve requests on one connection until either side closes it."""

    def __init__(self, server: "ControlPlaneServer",
                 conn: TcpConnection) -> None:
        self.server = server
        self.conn = conn
        self.rfile = conn.reader()
        self.remote = ""

    def handle(self) -> None:
        try:
            self.remote = self.conn.peer()[0]
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
            environ, keep = self._parse(line)
        except _Refused as exc:
            headers, body = _error(str(exc))
            self._send("HTTP/1.1", exc.status, headers, body,
                       keep=False, head=False)
            return False
        try:
            status, headers, body = self._call_app(environ)
        except Exception as exc:  # noqa: BLE001 - the 500 fence
            traceback.print_exc()
            status = "500 Internal Server Error"
            headers, body = _error(f"{type(exc).__name__}: {exc}")
            keep = False
        self._send(environ["SERVER_PROTOCOL"], status, headers, body,
                   keep=keep, head=environ["REQUEST_METHOD"] == "HEAD")
        return keep

    def _parse(self, line: bytes) -> Tuple[dict, bool]:
        """``(environ, keep)`` of the request *line* opens."""
        if len(line) > _MAX_LINE or not line.endswith(b"\n"):
            raise _Refused("400 Bad Request",
                           "request line too long or unterminated")
        parts = line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _Refused("400 Bad Request", "malformed request line")
        method, target, version = parts
        if version not in ("HTTP/1.1", "HTTP/1.0"):
            raise _Refused("505 HTTP Version Not Supported",
                           f"{version} is not supported")
        headers = self._read_headers()
        if "transfer-encoding" in headers:
            raise _Refused("501 Not Implemented",
                           "Transfer-Encoding is not supported; "
                           "send Content-Length")
        length_field = headers.get("content-length")
        length = 0
        if length_field is not None:
            if not (length_field.isdigit() and length_field.isascii()):
                raise _Refused("400 Bad Request",
                               f"unreadable Content-Length "
                               f"{length_field!r}")
            length = int(length_field)
            if length > MAX_BODY:
                raise _Refused("413 Content Too Large",
                               f"body length {length} is over "
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
        path, _, query = target.partition("?")
        environ = {
            "REQUEST_METHOD": method,
            "SCRIPT_NAME": "",
            "PATH_INFO": unquote(path, "latin-1"),
            "QUERY_STRING": query,
            "SERVER_NAME": self.server.host,
            "SERVER_PORT": str(self.server.port),
            "SERVER_PROTOCOL": version,
            "REMOTE_ADDR": self.remote,
            "CONTENT_LENGTH": "" if length_field is None else str(length),
            "wsgi.version": (1, 0),
            "wsgi.url_scheme": "http",
            "wsgi.input": io.BytesIO(body),
            "wsgi.errors": sys.stderr,
            "wsgi.multithread": True,
            "wsgi.multiprocess": False,
            "wsgi.run_once": False,
        }
        for name, value in headers.items():
            if name == "content-type":
                environ["CONTENT_TYPE"] = value
            elif name != "content-length" and "_" not in name:
                # Underscored names are dropped so that "X_Foo"
                # cannot pose as the "X-Foo" header.
                environ["HTTP_" + name.upper().replace("-", "_")] = value
        return environ, keep

    def _read_headers(self) -> Dict[str, str]:
        """Lower-cased name -> value; repeats joined with ``", "``."""
        headers: Dict[str, str] = {}
        for _ in range(_MAX_HEADERS):
            raw = self.rfile.readline(_MAX_LINE + 1)
            if raw in (b"\r\n", b"\n"):
                return headers
            if len(raw) > _MAX_LINE or not raw.endswith(b"\n"):
                raise _Refused("400 Bad Request", "malformed header line")
            name, sep, value = raw.decode("latin-1").partition(":")
            # No whitespace in or around the name: a leading one is an
            # obsolete line fold, a trailing one a smuggling vector.
            if not sep or name.split() != [name]:
                raise _Refused("400 Bad Request",
                               f"malformed header {name!r}")
            name, value = name.lower(), value.strip()
            headers[name] = (f"{headers[name]}, {value}"
                             if name in headers else value)
        raise _Refused("400 Bad Request", "too many header lines")

    def _call_app(self, environ: dict) -> Tuple[str, _Headers, bytes]:
        started: list = []
        chunks: List[bytes] = []

        def start_response(status, headers, exc_info=None):
            started[:] = [status, headers]
            return chunks.append

        result = self.server.app(environ, start_response)
        try:
            chunks.extend(result)
        finally:
            if hasattr(result, "close"):
                result.close()
        status, headers = started
        return status, headers, b"".join(chunks)

    def _send(self, version: str, status: str, headers: _Headers,
              body: bytes, *, keep: bool, head: bool) -> None:
        lines = [f"HTTP/1.1 {status}", f"Date: {formatdate(usegmt=True)}"]
        lines.extend(f"{name}: {value}" for name, value in headers)
        if not any(name.lower() == "content-length" for name, _ in headers):
            lines.append(f"Content-Length: {len(body)}")
        if not keep:
            lines.append("Connection: close")
        elif version == "HTTP/1.0":
            lines.append("Connection: keep-alive")
        lines.append("\r\n")
        data = "\r\n".join(lines).encode("latin-1")
        self.conn.send_bytes(data if head else data + body)


class ControlPlaneServer:
    """Serve a WSGI app on a :class:`TcpListener`."""

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


def serve_controlplane(app, *, host: str = "127.0.0.1",
                       port: int = 0) -> ControlPlaneServer:
    """Build and start a :class:`ControlPlaneServer` in one call."""
    return ControlPlaneServer(app, host=host, port=port).start()
