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

Clients may pipeline.  Each wake-up of a connection takes every complete
line already received, decodes them outside the lock, applies them in
order under **one** lock hold and writes all their replies with one
``write``.  Replies come back in request order, and several of them may
arrive in one segment.  A run of two or more consecutive ``submit``
lines that pass the core's own checks goes through one
:meth:`DispatchServer.submit_batch`, which is outcome-equivalent to the
scalar submits it replaces.  Every other line takes the one-request
path (:meth:`ServeFrontend._apply`), so each reply, error messages
included, has the bytes it would have had if sent alone.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
from pathlib import Path
from typing import Any

from .protocol import KNOWN_OPS, MAX_LINE, ProtocolError, decode_line, encode
from .server import DispatchServer, OnlineDispatchError

__all__ = ["ServeFrontend"]


def _split_lines(buf: bytes) -> tuple[list[bytes], bytes, bool]:
    """Complete lines of ``buf`` (newline kept), the partial tail, and
    whether the connection must close after those lines.

    The limits are the ones ``StreamReader.readline`` enforces with
    ``limit=MAX_LINE``: a line of up to ``MAX_LINE + 1`` bytes, newline
    included, is returned (``decode_line`` answers the ``+ 1`` case with
    an error reply), while a longer line, or a partial tail already
    longer than ``MAX_LINE``, ends the connection.
    """
    lines: list[bytes] = []
    start = 0
    while end := buf.find(b"\n", start) + 1:
        if end - start > MAX_LINE + 1:
            return lines, b"", True
        lines.append(buf[start:end])
        start = end
    tail = buf[start:]
    return lines, tail, len(tail) > MAX_LINE


#: the classes a JSON number decodes to.  ``bool`` subclasses ``int``
#: but is no number; matching the class exactly keeps it out.
_NUMBER_CLASSES = (int, float)


def _number(x: Any, error: str) -> float:
    """``x`` as a float, or :class:`ProtocolError` ``error`` when it is
    not a number or is an integer too large for a float."""
    if x.__class__ in _NUMBER_CLASSES:
        try:
            return float(x)
        except OverflowError:
            pass
    raise ProtocolError(error)


def _run_job(msg: dict, last: float) -> tuple[float, float, float] | None:
    """``(arrival, size, estimate)`` of a submit the core takes without
    raising, else None (the line then takes the one-request path).

    ``last`` is the core's clock after the preceding submits.  The size
    and the estimate (the size when not given) must be positive and
    finite, and the arrival finite and not below ``last``.  A missing
    arrival defaults to ``last``, as it would after scalar submits.
    """
    size = msg.get("size")
    arrival = msg.get("arrival", last)
    estimate = msg.get("size_estimate")
    if estimate is None:
        estimate = size
    if not (
        size.__class__ in _NUMBER_CLASSES
        and arrival.__class__ in _NUMBER_CLASSES
        and estimate.__class__ in _NUMBER_CLASSES
    ):
        return None
    try:
        size, arrival, estimate = float(size), float(arrival), float(estimate)
    except OverflowError:  # an integer too large for a float
        return None
    if 0.0 < size < math.inf and 0.0 < estimate < math.inf and last <= arrival < math.inf:
        return arrival, size, estimate
    return None


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
                else:
                    # EOF: a final line without its newline is still a
                    # request, answered before the connection closes.
                    lines, closing = [tail] if tail else [], True
                if lines and not await self._answer(lines, writer):
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

    async def _answer(self, lines: list[bytes], writer: asyncio.StreamWriter) -> bool:
        """Answer ``lines`` in order with one write; False once the peer
        is gone."""
        items: list[dict | bytes] = []
        for line in lines:
            try:
                items.append(decode_line(line))
            except ProtocolError as exc:
                items.append(encode({"ok": False, "error": str(exc)}))
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

    def _apply_all(self, items: list[dict | bytes], out: list[bytes]) -> None:
        """Apply decoded requests in order, appending each reply to ``out``.

        ``items`` holds request dicts and the encoded replies of lines
        that did not decode.  Consecutive submits that :func:`_run_job`
        accepts are collected into a run: a run of two or more goes
        through one ``submit_batch(collect=True)``, a run of one through
        ``submit`` (a one-job batch costs several scalar submits).  Any
        other request ends the run and goes through :meth:`_apply`.
        Synchronous, like :meth:`_apply`: the caller holds the lock.
        """
        core = self._core
        run: list[tuple[float, float, float]] = []
        last = core.now
        for item in items:
            if isinstance(item, bytes):
                self._submit_run(run, out)
                out.append(item)
                continue
            self.requests += 1
            job = _run_job(item, last) if item["op"] == "submit" else None
            if job is None:
                self._submit_run(run, out)
                out.append(encode(self._apply(item)))
                last = core.now
                continue
            last = job[0]
            run.append(job)
        self._submit_run(run, out)

    def _submit_run(
        self, run: list[tuple[float, float, float]], out: list[bytes]
    ) -> None:
        """Submit a run of ``(arrival, size, estimate)`` jobs and empty it."""
        if not run:
            return
        if len(run) == 1:
            arrival, size, estimate = run[0]
            records = [self._core.submit(size, arrival, size_estimate=estimate)]
        else:
            arrivals, sizes, estimates = zip(*run)
            records = self._core.submit_batch(
                arrivals, sizes, estimates, collect=True
            )
        cache = self._submit_replies
        for record in records:
            key = (record["outcome"], record["reason"], record["host"])
            reply = cache.get(key)
            if reply is None:
                reply = cache[key] = encode({"ok": True, **record})
            out.append(reply)
        run.clear()

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
