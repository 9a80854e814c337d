"""Minimal HTTP/1.1 plumbing over asyncio streams — stdlib only.

The sweep service speaks plain HTTP+JSON so any client (curl, a browser,
the bundled load generator) can drive it, but the standard library has no
*async* HTTP server — so this module implements the thin slice the
service needs on top of ``asyncio`` streams: request parsing
(request-line, headers, ``Content-Length`` bodies), keep-alive JSON
responses, and chunked transfer encoding for the JSONL progress streams.
Deliberately not a general HTTP implementation: no request trailers, no
chunked *request* bodies, no TLS — the service sits behind loopback or a
real reverse proxy.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

#: Upper bound on request body size (a spec document is a few KB).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Upper bound on the header block.
MAX_HEADER_BYTES = 64 * 1024

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    500: "Internal Server Error",
}


class ProtocolError(ValueError):
    """A malformed or oversized HTTP request; the connection is dropped."""


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive") != "close"

    def json(self) -> Any:
        """Decode the body as JSON (raises ``ValueError`` on bad bytes)."""
        return json.loads(self.body.decode("utf-8"))


def _parse_target(target: str) -> Tuple[str, Dict[str, str]]:
    path, _, query_string = target.partition("?")
    query: Dict[str, str] = {}
    if query_string:
        for pair in query_string.split("&"):
            name, _, value = pair.partition("=")
            if name:
                query[name] = value
    return path, query


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Read one request; ``None`` on a cleanly closed connection."""
    try:
        header_block = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # client closed between requests
        raise ProtocolError("connection closed mid-request") from exc
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError("header block too large") from exc
    if len(header_block) > MAX_HEADER_BYTES:
        raise ProtocolError("header block too large")
    lines = header_block.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    path, query = _parse_target(target)
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError as exc:
            raise ProtocolError("malformed Content-Length") from exc
        if length < 0 or length > MAX_BODY_BYTES:
            raise ProtocolError("request body too large")
        body = await reader.readexactly(length)
    return Request(method=method.upper(), path=path, query=query,
                   headers=headers, body=body)


def write_response(writer: asyncio.StreamWriter, status: int, body: bytes,
                   content_type: str = "application/json",
                   keep_alive: bool = True) -> None:
    """Queue a complete response on ``writer`` (caller drains)."""
    reason = _REASONS.get(status, "Unknown")
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {connection}\r\n"
        "\r\n"
    )
    writer.write(head.encode("latin-1") + body)


def json_response(writer: asyncio.StreamWriter, status: int, payload: Any,
                  keep_alive: bool = True) -> None:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    write_response(writer, status, body, keep_alive=keep_alive)


#: Status line and headers of a chunked JSONL response (the events stream).
CHUNKED_JSONL_HEAD = (
    "HTTP/1.1 200 OK\r\n"
    "Content-Type: application/x-ndjson\r\n"
    "Transfer-Encoding: chunked\r\n"
    "Connection: keep-alive\r\n"
    "\r\n"
).encode("latin-1")

#: The zero-length chunk that ends a chunked body; the connection can then
#: serve further requests.
LAST_CHUNK = b"0\r\n\r\n"


def json_chunk(payload: Any) -> bytes:
    """``payload`` as one JSON line framed as one chunk of a chunked body."""
    data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n"
