"""Single-connection asyncio client for ``repro serve --socket``.

Every request line is encoded before a phase starts, so the client's
per-request work inside a phase is one write and one ``readline``.
Replies come back in request order (one connection, served in order),
so reply ``i`` answers request ``i`` and is parsed only after the phase.

Two kinds of phase:

* closed loop (:func:`closed_loop`): keep ``window`` requests
  outstanding and send more as replies arrive; the wall time of the
  phase gives the saturation throughput;
* open loop (:func:`open_loop`): request ``i`` is due at
  ``t0 + i / rate`` whatever the server is doing.  Latency is measured
  from the due time, so a stall also counts against the requests queued
  behind it, and the send time minus the due time is the generator's
  own lateness.  Below about 10k req/s the sleep between sends would be
  rounded to the event loop's millisecond timer and dominate the
  measured latency, so the benchmark keeps rates above that.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

__all__ = ["OpenLoopResult", "closed_loop", "connect", "open_loop", "request"]

#: how long a server may take to start accepting, in seconds.
CONNECT_TIMEOUT = 120.0


class ServerGone(RuntimeError):
    """The server closed the connection or exited early."""


async def connect(path: str, alive) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Poll until the Unix socket accepts; ``alive()`` false aborts."""
    deadline = time.monotonic() + CONNECT_TIMEOUT
    while True:
        try:
            return await asyncio.open_unix_connection(path, limit=1 << 20)
        except (FileNotFoundError, ConnectionRefusedError):
            if not alive():
                raise ServerGone("server exited before accepting") from None
            if time.monotonic() > deadline:
                raise ServerGone(f"server not accepting after {CONNECT_TIMEOUT}s") from None
            await asyncio.sleep(0.002)


async def _read_n(reader, n: int, replies: list, stamps: list | None, progress=None) -> None:
    clock = time.perf_counter
    try:
        for i in range(n):
            line = await reader.readline()
            if not line:
                raise ServerGone(f"connection closed after {i} of {n} replies")
            replies.append(line)
            if stamps is not None:
                stamps.append(clock())
            if progress is not None:
                progress.set()
    finally:
        # Wake a waiting sender on failure too, so it can see the error.
        if progress is not None:
            progress.set()


async def closed_loop(
    reader, writer, lines: list[bytes], window: int
) -> tuple[float, list[bytes]]:
    """Pipelined phase; returns (wall seconds, raw replies)."""
    n = len(lines)
    replies: list[bytes] = []
    progress = asyncio.Event()
    t0 = time.perf_counter()
    task = asyncio.create_task(_read_n(reader, n, replies, None, progress))
    sent = 0
    # Refill in chunks so the client does one write per chunk of
    # replies rather than one per reply.
    chunk = max(1, window // 8)
    try:
        while sent < n:
            room = window - (sent - len(replies))
            if room >= min(chunk, n - sent):
                k = min(n, sent + room)
                writer.write(b"".join(lines[sent:k]))
                sent = k
                await writer.drain()
            else:
                progress.clear()
                await progress.wait()
                if task.done():
                    break
        await task
    finally:
        if not task.done():
            task.cancel()
    return time.perf_counter() - t0, replies


@dataclass
class OpenLoopResult:
    latencies_ms: list[float]
    late_ms: list[float]
    replies: list[bytes]


async def open_loop(reader, writer, lines: list[bytes], rate: float) -> OpenLoopResult:
    """Scheduled phase at ``rate`` requests per second."""
    n = len(lines)
    replies: list[bytes] = []
    stamps: list[float] = []
    clock = time.perf_counter
    sent_at = [0.0] * n
    task = asyncio.create_task(_read_n(reader, n, replies, stamps))
    t0 = clock() + 0.001
    sent = 0
    try:
        while sent < n:
            now = clock()
            k = min(n, max(0, int((now - t0) * rate) + 1))
            if k > sent:
                writer.write(b"".join(lines[sent:k]))
                for j in range(sent, k):
                    sent_at[j] = now
                sent = k
                await writer.drain()
            if task.done():
                break
            delay = t0 + sent / rate - clock()
            # Sleep through long gaps; spin (yielding to the reader)
            # through short ones, which the loop's timer cannot resolve.
            await asyncio.sleep(delay - 0.001 if delay > 0.002 else 0)
        await task
    finally:
        if not task.done():
            task.cancel()
    due = [t0 + i / rate for i in range(n)]
    return OpenLoopResult(
        latencies_ms=[(stamps[i] - due[i]) * 1e3 for i in range(n)],
        late_ms=[(sent_at[i] - due[i]) * 1e3 for i in range(n)],
        replies=replies,
    )


async def request(reader, writer, line: bytes) -> bytes:
    """One request, one reply."""
    writer.write(line)
    await writer.drain()
    reply = await reader.readline()
    if not reply:
        raise ServerGone("connection closed before the reply")
    return reply
