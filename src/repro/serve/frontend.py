"""Asyncio newline-JSON front end over a :class:`DispatchServer`.

The core is synchronous and single-threaded by design (determinism);
this module is the *only* place concurrency exists.  The concurrency
discipline, which the ``SIM211`` lint rule enforces mechanically:

* every touch of shared mutable state — the core, the counters and the
  cache of submit reply bytes — happens inside ``async with self._lock``;
* the core's methods are plain synchronous calls, so no ``await`` can
  interleave another connection's request into a half-applied mutation;
* per-connection objects (reader, writer, parsed message) are owned by
  one coroutine and need no lock.

Requests across connections therefore serialize at the lock in arrival
order, which is exactly the semantics of one operator feeding the core.

Clients may pipeline.  Each wake-up of a connection handles every
complete line already received as one block:

* **Split.** :func:`_split_lines` cuts the buffer with one C-level
  ``bytes.split`` under the framing of a ``readline`` with
  ``limit=MAX_LINE``.
* **Decode.** :func:`decode_read`, outside the lock, decodes an ASCII
  block to text once and parses each line at its offset with the
  stdlib's C scanner.  It keeps a parse only when the line is one JSON
  object that ends exactly at the line's newline and carries a string
  ``op``; every other line (non-ASCII, CRLF, surrounding whitespace, bad
  JSON, over-long) goes through :func:`decode_line`, which stays the
  one definition of what a line means.  A final line without a newline
  at EOF always does.
* **Apply.** All the lines of the read are applied in order under
  **one** lock hold and their replies written with one ``write``.
  Replies come back in request order, and several of them may arrive in
  one segment.  A run of consecutive ``submit`` lines that pass the
  core's own checks is submitted together: through one
  :meth:`DispatchServer.submit_batch`, which is outcome-equivalent to
  the scalar submits it replaces, once the run is ``_MIN_BATCH`` long,
  and one scalar ``submit`` at a time below that.  Every other line
  takes the one-request path (:meth:`ServeFrontend._apply`), so each
  reply, error messages included, has the bytes it would have had if
  sent alone.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import operator
import sys
from pathlib import Path
from typing import Any

from .protocol import KNOWN_OPS, MAX_LINE, ProtocolError, decode_line, encode
from .server import DispatchServer, OnlineDispatchError

__all__ = ["ServeFrontend", "decode_read"]


def _split_lines(buf: bytes) -> tuple[list[bytes], bytes, bool]:
    """Complete lines of ``buf`` (newline stripped), the partial tail, and
    whether the connection must close after those lines.

    The limits are the ones ``StreamReader.readline`` enforces with
    ``limit=MAX_LINE``: a line of up to ``MAX_LINE + 1`` bytes, newline
    included, is returned (``decode_line`` answers the ``+ 1`` case with
    an error reply), while a longer line, or a partial tail already
    longer than ``MAX_LINE``, ends the connection.
    """
    lines = buf.split(b"\n")
    tail = lines.pop()
    if lines and max(map(len, lines)) > MAX_LINE:
        for k, line in enumerate(lines):
            if len(line) > MAX_LINE:
                return lines[:k], b"", True
    return lines, tail, len(tail) > MAX_LINE


#: the stdlib's C scanner with ``json.loads``'s defaults: ``scan(text,
#: i)`` parses the one JSON value that starts at ``text[i]`` and returns
#: it with the index just past it.
_scan = json.decoder.JSONDecoder().scan_once


def _decode_one(line: bytes) -> dict | ProtocolError:
    """:func:`decode_line`'s request, or the error it raises."""
    try:
        return decode_line(line)
    except ProtocolError as exc:
        return exc


def decode_read(lines: list[bytes]) -> list[dict | ProtocolError]:
    """Decode the complete lines of one read, newlines stripped.

    Item ``k`` is what ``decode_line(lines[k] + b"\\n")`` returns, or
    the :class:`ProtocolError` it raises.  An ASCII block is decoded to
    text once and each line scanned at its offset.  The scan is kept
    only when the line starts a JSON object that ends at the line's
    newline and has a string ``op``; ``json.loads`` of that line then
    gives the same object (the newline is trailing whitespace).  A kept
    scan read exactly its own line's bytes, so lines that are invalid
    alone never combine into one parse.  Every other line is decoded by
    ``decode_line`` itself.
    """
    block = b"\n".join(lines)
    if not block.isascii():
        return [_decode_one(line + b"\n") for line in lines]
    text = block.decode("ascii")
    items: list[dict | ProtocolError] = []
    append = items.append
    start = 0
    for line in lines:
        end = start + len(line)
        try:
            msg, stop = _scan(text, start)
        except (StopIteration, ValueError, RecursionError):
            stop = -1
        if (
            stop == end
            and end - start < MAX_LINE
            and msg.__class__ is dict
            and msg.get("op").__class__ is str
        ):
            append(msg)
        else:
            append(_decode_one(line + b"\n"))
        start = end + 1
    return items


#: the classes a JSON number decodes to.  ``bool`` subclasses ``int``
#: but is no number; matching the class exactly keeps it out.
_NUMBER_CLASSES = (int, float)

#: the largest finite float.  ``0 < x <= _FLOAT_MAX`` holds for a JSON
#: number exactly when it is positive, finite and, for an integer, small
#: enough for ``float(x)`` not to overflow, with no conversion made.
_FLOAT_MAX = sys.float_info.max

#: shortest run of submits that goes through one ``submit_batch``; a
#: shorter run goes through scalar ``submit`` calls.  In-process on the
#: serve-socket configuration (C90, SITA, 2 hosts, 20k jobs), 9
#: interleaved rounds, median µs per job: ``submit`` 6.4,
#: ``submit_batch`` of 2 jobs 14.5, of 3 jobs 8.9, of 4 jobs 6.3, of 5
#: jobs 4.8.
_MIN_BATCH = 4

#: the part of a submit's decision record its reply bytes depend on.
_RECORD_KEY = operator.itemgetter("outcome", "reason", "host")


def _number(x: Any, error: str) -> float:
    """``x`` as a float, or :class:`ProtocolError` ``error`` when it is
    not a number or is an integer too large for a float."""
    if x.__class__ in _NUMBER_CLASSES:
        try:
            return float(x)
        except OverflowError:
            pass
    raise ProtocolError(error)


class ServeFrontend:
    """Serve a :class:`DispatchServer` over a Unix or TCP socket."""

    def __init__(self, core: DispatchServer, max_batch: int = 4096) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._core = core
        #: largest ``submit_batch`` request accepted over the wire; a
        #: bound on per-request work under the lock, not on throughput
        #: (clients chunk larger streams).
        self.max_batch = int(max_batch)
        self._lock = asyncio.Lock()
        self._server: asyncio.AbstractServer | None = None
        self.connections = 0
        self.requests = 0
        #: reply bytes of a submit, keyed by ``(outcome, reason, host)``:
        #: a few entries per host, read and filled under the lock.
        self._submit_replies: dict[tuple, bytes] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start_unix(self, path: str | Path) -> None:
        self._server = await asyncio.start_unix_server(
            self._handle, path=str(path), limit=MAX_LINE
        )

    async def start_tcp(self, host: str, port: int) -> None:
        self._server = await asyncio.start_server(
            self._handle, host=host, port=port, limit=MAX_LINE
        )

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start_unix/start_tcp first"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        # Swap-then-await: the shared reference is cleared before any
        # suspension point, so a concurrent close() cannot double-close.
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()

    # ------------------------------------------------------------------
    # per-connection loop
    # ------------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        async with self._lock:
            self.connections += 1
        tail = b""
        try:
            while True:
                try:
                    data = await reader.read(MAX_LINE)
                except asyncio.CancelledError:
                    # Event-loop shutdown while idle on this connection.
                    # Returning (instead of re-raising) keeps the streams
                    # machinery from logging a spurious traceback when it
                    # polls task.exception() in its connection callback.
                    break
                except ConnectionError:
                    break  # peer reset: this connection is unrecoverable
                if data:
                    lines, tail, closing = _split_lines(tail + data)
                    items = decode_read(lines)
                else:
                    # EOF: a final line without its newline is still a
                    # request, answered before the connection closes.
                    items, closing = [_decode_one(tail)] if tail else [], True
                if items and not await self._answer(items, writer):
                    break
                if closing:
                    break
        finally:
            async with self._lock:
                self.connections -= 1
            writer.close()
            # CancelledError is a BaseException, so suppress(Exception)
            # alone would let an event-loop-shutdown cancellation escape
            # from this final await and the streams machinery would log a
            # spurious traceback — same rationale as the read catch.
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    async def _answer(
        self, items: list[dict | ProtocolError], writer: asyncio.StreamWriter
    ) -> bool:
        """Answer the decoded lines ``items`` in order with one write;
        False once the peer is gone."""
        replies: list[bytes] = []
        try:
            async with self._lock:
                self._apply_all(items, replies)
        finally:
            # If a request raises unexpectedly, the requests applied
            # before it have changed the core: their replies still go out.
            writer.write(b"".join(replies))
        try:
            await writer.drain()
        except ConnectionError:
            return False
        return True

    def _apply_all(self, items: list[dict | ProtocolError], out: list[bytes]) -> None:
        """Apply decoded requests in order, appending each reply to ``out``.

        ``items`` holds request dicts and the errors of lines that did
        not decode.  Consecutive submits the core takes without raising
        are collected into a run and go through :meth:`_submit_run`:
        numbers (``bool`` is not one), a size and an estimate (the size
        when not given) positive and finite, an arrival finite and not
        below the previous one (a missing arrival is the previous one,
        as after scalar submits).  The numbers stay as the JSON gave
        them; ``0 < x <= _FLOAT_MAX`` also keeps out integers too large
        for a float.  Any other request ends the run and goes through
        :meth:`_apply`.  Synchronous, like :meth:`_apply`: the caller
        holds the lock.
        """
        core = self._core
        arrivals: list[Any] = []
        sizes: list[Any] = []
        estimates: list[Any] = []
        last = core.now
        for item in items:
            if item.__class__ is not dict:
                self._submit_run(arrivals, sizes, estimates, out)
                out.append(encode({"ok": False, "error": str(item)}))
                continue
            self.requests += 1
            if item["op"] == "submit":
                size = item.get("size")
                arrival = item.get("arrival", last)
                estimate = item.get("size_estimate")
                if estimate is None:
                    estimate = size
                if (
                    size.__class__ in _NUMBER_CLASSES
                    and arrival.__class__ in _NUMBER_CLASSES
                    and estimate.__class__ in _NUMBER_CLASSES
                    and 0 < size <= _FLOAT_MAX
                    and 0 < estimate <= _FLOAT_MAX
                    and last <= arrival <= _FLOAT_MAX
                ):
                    arrivals.append(arrival)
                    sizes.append(size)
                    estimates.append(estimate)
                    last = arrival
                    continue
            self._submit_run(arrivals, sizes, estimates, out)
            out.append(encode(self._apply(item)))
            last = core.now
        self._submit_run(arrivals, sizes, estimates, out)

    def _submit_run(
        self, arrivals: list, sizes: list, estimates: list, out: list[bytes]
    ) -> None:
        """Submit a run of checked jobs, append their replies and empty it.

        A run of ``_MIN_BATCH`` or more goes through one
        ``submit_batch(collect=True)``, a shorter one through ``submit``
        per job.  A submit reply depends only on ``(outcome, reason,
        host)``, so its bytes come from a cache keyed by that tuple.
        """
        if not arrivals:
            return
        core = self._core
        if len(arrivals) < _MIN_BATCH:
            records = [
                core.submit(size, arrival, size_estimate=estimate)
                for arrival, size, estimate in zip(arrivals, sizes, estimates)
            ]
        else:
            records = core.submit_batch(arrivals, sizes, estimates, collect=True)
        cache = self._submit_replies
        replies = list(map(cache.get, map(_RECORD_KEY, records)))
        if None in replies:
            for k, reply in enumerate(replies):
                if reply is None:
                    key = _RECORD_KEY(records[k])
                    if key not in cache:
                        cache[key] = encode({"ok": True, **records[k]})
                    replies[k] = cache[key]
        out += replies
        arrivals.clear()
        sizes.clear()
        estimates.clear()

    def _apply(self, msg: dict) -> dict:
        """Route one request into the core.

        Synchronous on purpose: the caller holds the lock, and with no
        ``await`` inside, the mutation is atomic with respect to every
        other connection.
        """
        op = msg["op"]
        try:
            if op == "submit":
                size = _number(msg.get("size"), "submit requires a numeric 'size'")
                arrival = _number(
                    msg.get("arrival", self._core.now), "'arrival' must be numeric"
                )
                estimate = msg.get("size_estimate")
                if estimate is not None:
                    estimate = _number(estimate, "'size_estimate' must be numeric")
                record = self._core.submit(size, arrival, size_estimate=estimate)
                return {"ok": True, **record}
            if op == "submit_batch":
                jobs = msg.get("jobs")
                if not isinstance(jobs, list) or not jobs:
                    raise ProtocolError(
                        "submit_batch requires a non-empty 'jobs' list of "
                        "[arrival, size] or [arrival, size, estimate] rows"
                    )
                if len(jobs) > self.max_batch:
                    raise ProtocolError(
                        f"batch of {len(jobs)} exceeds max_batch "
                        f"{self.max_batch}"
                    )
                arrivals: list[float] = []
                sizes: list[float] = []
                estimates: list[float] = []
                bad_row = (
                    "each job must be [arrival, size] or "
                    "[arrival, size, estimate] with numeric entries"
                )
                for row in jobs:
                    if not isinstance(row, list) or len(row) not in (2, 3):
                        raise ProtocolError(bad_row)
                    values = [_number(x, bad_row) for x in row]
                    arrivals.append(values[0])
                    sizes.append(values[1])
                    estimates.append(values[-1])
                records = self._core.submit_batch(
                    arrivals, sizes, estimates, collect=True
                )
                return {"ok": True, "results": records}
            if op == "status":
                return {"ok": True, "status": self._core.status()}
            if op == "drain":
                self._core.drain()
                return {"ok": True, "counters": self._core.counters()}
            return {
                "ok": False,
                "error": f"unknown op {op!r} (known: {', '.join(KNOWN_OPS)})",
            }
        except (ProtocolError, ValueError, OnlineDispatchError) as exc:
            return {"ok": False, "error": str(exc)}
