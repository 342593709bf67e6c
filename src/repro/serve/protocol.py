"""Newline-delimited JSON wire protocol for the dispatch server.

One request per line, one reply per line, both JSON objects.  Requests
carry an ``op`` field::

    {"op": "submit", "size": 3.5, "arrival": 12.0}
    {"op": "status"}
    {"op": "drain"}

Replies always carry ``ok``; errors carry ``error`` with a message and
never tear down the connection — a client that sends one malformed line
gets one error reply and may continue.

Clients may pipeline: send any number of requests without waiting for
replies.  Replies come back in request order, one line per request, and
several of them may arrive in one segment, so a client reads reply
lines, not segments.

The framing is deliberately the simplest thing that is robust: a bounded
line length (an unbounded ``readline`` is a memory DoS against the
server) and strict object-shaped JSON.  A line of ``MAX_LINE + 1``
bytes, newline included, gets an error reply; a longer one closes the
connection.

:func:`decode_line` is the one definition of what a request line means.
The socket front end decodes a whole read at once
(:func:`repro.serve.frontend.decode_read`): it keeps the stdlib C
scanner's parse of a line only where ``decode_line`` would return the
same dict, a JSON object that ends exactly at the line's newline and
carries a string ``op``, and hands every other line to ``decode_line``
itself, so each line's request or error text is the same either way.
"""

from __future__ import annotations

import json

__all__ = ["KNOWN_OPS", "MAX_LINE", "ProtocolError", "decode_line", "encode"]

#: longest accepted request line, in bytes (including the newline).
MAX_LINE = 1 << 16

#: every operation the front end routes.
KNOWN_OPS = ("submit", "submit_batch", "status", "drain")


class ProtocolError(ValueError):
    """A request line that cannot be accepted (reason in ``args[0]``)."""


def encode(obj: dict) -> bytes:
    """One reply, compact JSON, newline-terminated."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode() + b"\n"


def decode_line(line: bytes) -> dict:
    """Parse and validate one request line.

    Raises :class:`ProtocolError` on over-long lines, invalid JSON
    (nesting too deep for the parser included), non-object payloads and
    a missing/non-string ``op`` field — the four ways a client can hand
    us something we cannot even begin to route.
    """
    if len(line) > MAX_LINE:
        raise ProtocolError(f"request line exceeds {MAX_LINE} bytes")
    try:
        msg = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ProtocolError("invalid JSON: nested too deeply") from None
    if not isinstance(msg, dict):
        raise ProtocolError(f"request must be a JSON object, got {type(msg).__name__}")
    op = msg.get("op")
    if not isinstance(op, str):
        raise ProtocolError("request must carry a string 'op' field")
    return msg
