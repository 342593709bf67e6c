"""Asyncio newline-JSON front end over a :class:`DispatchServer`.

The core is synchronous and single-threaded by design (determinism);
this module is the *only* place concurrency exists.  The concurrency
discipline, which the ``SIM211`` lint rule enforces mechanically:

* every touch of shared mutable state — the core and the connection
  counter — happens inside ``async with self._lock``;
* the core's methods are plain synchronous calls, so no ``await`` can
  interleave another connection's request into a half-applied mutation;
* per-connection objects (reader, writer, parsed message) are owned by
  one coroutine and need no lock.

Requests across connections therefore serialize at the lock in arrival
order, which is exactly the semantics of one operator feeding the core.
"""

from __future__ import annotations

import asyncio
import contextlib
from pathlib import Path

from .protocol import KNOWN_OPS, MAX_LINE, ProtocolError, decode_line, encode
from .server import DispatchServer, OnlineDispatchError

__all__ = ["ServeFrontend"]


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
        try:
            while True:
                try:
                    line = await reader.readline()
                except asyncio.CancelledError:
                    # Event-loop shutdown while idle on this connection.
                    # Returning (instead of re-raising) keeps the streams
                    # machinery from logging a spurious traceback when it
                    # polls task.exception() in its connection callback.
                    break
                except (ValueError, ConnectionError):
                    # over-long line (LimitOverrunError is a ValueError)
                    # or peer reset: this connection is unrecoverable.
                    break
                if not line:
                    break
                try:
                    msg = decode_line(line)
                except ProtocolError as exc:
                    reply = {"ok": False, "error": str(exc)}
                else:
                    async with self._lock:
                        self.requests += 1
                        reply = self._apply(msg)
                writer.write(encode(reply))
                try:
                    await writer.drain()
                except ConnectionError:
                    break
        finally:
            async with self._lock:
                self.connections -= 1
            writer.close()
            # CancelledError is a BaseException, so suppress(Exception)
            # alone would let an event-loop-shutdown cancellation escape
            # from this final await and the streams machinery would log a
            # spurious traceback — same rationale as the readline catch.
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    def _apply(self, msg: dict) -> dict:
        """Route one request into the core.

        Synchronous on purpose: the caller holds the lock, and with no
        ``await`` inside, the mutation is atomic with respect to every
        other connection.
        """
        op = msg["op"]
        try:
            if op == "submit":
                size = msg.get("size")
                if not isinstance(size, (int, float)):
                    raise ProtocolError("submit requires a numeric 'size'")
                arrival = msg.get("arrival", self._core.now)
                if not isinstance(arrival, (int, float)):
                    raise ProtocolError("'arrival' must be numeric")
                estimate = msg.get("size_estimate")
                if estimate is not None and not isinstance(estimate, (int, float)):
                    raise ProtocolError("'size_estimate' must be numeric")
                record = self._core.submit(
                    float(size), float(arrival), size_estimate=estimate
                )
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
                for row in jobs:
                    if (
                        not isinstance(row, list)
                        or len(row) not in (2, 3)
                        or not all(isinstance(x, (int, float)) for x in row)
                    ):
                        raise ProtocolError(
                            "each job must be [arrival, size] or "
                            "[arrival, size, estimate] with numeric entries"
                        )
                    arrivals.append(float(row[0]))
                    sizes.append(float(row[1]))
                    estimates.append(float(row[2] if len(row) == 3 else row[1]))
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
