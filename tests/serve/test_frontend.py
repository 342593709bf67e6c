"""Socket front end: request routing, per-line errors, connection life,
pipelining and line framing."""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import random

import numpy as np
import pytest

from repro.core.policies import LeastWorkLeftPolicy
from repro.serve import DispatchServer
from repro.serve.frontend import ServeFrontend, _split_lines
from repro.serve.protocol import MAX_LINE, ProtocolError, decode_line, encode
from repro.serve.runner import add_serve_arguments, build_server
from repro.workloads.catalog import get_workload


def converse(tmp_path, core, client, timeout=60.0):
    """Serve ``core`` on a Unix socket and run ``client(reader, writer)``
    on one connection; returns the client's result and the front end."""

    async def session():
        frontend = ServeFrontend(core)
        path = tmp_path / "serve.sock"
        await frontend.start_unix(path)
        try:
            reader, writer = await asyncio.open_unix_connection(str(path))
            try:
                result = await asyncio.wait_for(client(reader, writer), timeout)
            finally:
                writer.close()
                with contextlib.suppress(ConnectionError):
                    await writer.wait_closed()
            return result, frontend
        finally:
            await frontend.close()

    return asyncio.run(session())


def one_at_a_time(lines):
    """Client: one request per write, each reply read before the next
    request is sent; returns the raw reply lines."""

    async def client(reader, writer):
        replies = []
        for line in lines:
            writer.write(line if isinstance(line, bytes) else line.encode())
            await writer.drain()
            replies.append(await reader.readline())
        return replies

    return client


def talk(tmp_path, lines, core=None):
    """One-at-a-time conversation; returns the decoded replies."""
    core = core or DispatchServer(2, LeastWorkLeftPolicy(), strict=True)
    replies, frontend = converse(tmp_path, core, one_at_a_time(lines))
    return [json.loads(r) for r in replies], frontend


def req(**kw):
    return json.dumps(kw) + "\n"


class TestFrontend:
    def test_submit_status_drain(self, tmp_path):
        replies, frontend = talk(
            tmp_path,
            [
                req(op="submit", size=2.0, arrival=0.0),
                req(op="submit", size=1.0, arrival=1.0),
                req(op="drain"),
                req(op="status"),
            ],
        )
        sub1, sub2, drain, status = replies
        assert sub1 == {
            "host": 0, "ok": True, "outcome": "admitted", "reason": "admit",
        }
        assert sub2["ok"] and sub2["outcome"] == "admitted"
        assert drain["ok"]
        assert drain["counters"]["completed"] == 2
        assert drain["counters"]["in_flight"] == 0
        doc = status["status"]
        assert all(doc["invariant"].values())
        assert frontend.requests == 4

    def test_errors_do_not_tear_down_the_connection(self, tmp_path):
        replies, _ = talk(
            tmp_path,
            [
                "not json at all\n",
                req(op="warp"),
                req(op="submit", size="large"),
                req(op="submit", size=-1.0, arrival=0.0),
                req(op="submit", size=1.0, arrival=0.0),  # still works
            ],
        )
        bad_json, bad_op, bad_type, bad_size, good = replies
        assert not bad_json["ok"] and "invalid JSON" in bad_json["error"]
        assert not bad_op["ok"] and "unknown op" in bad_op["error"]
        assert not bad_type["ok"] and "numeric" in bad_type["error"]
        assert not bad_size["ok"] and "positive" in bad_size["error"]
        assert good["ok"] and good["outcome"] == "admitted"

    def test_arrival_defaults_to_server_clock(self, tmp_path):
        replies, _ = talk(
            tmp_path,
            [
                req(op="submit", size=1.0, arrival=7.0),
                req(op="submit", size=1.0),  # no arrival: server's now
                req(op="status"),
            ],
        )
        assert replies[0]["ok"] and replies[1]["ok"]
        assert replies[2]["status"]["clock"] >= 7.0

    def test_connection_counter_returns_to_zero(self, tmp_path):
        _, frontend = talk(tmp_path, [req(op="status")])
        assert frontend.connections == 0

    def test_submit_batch_op(self, tmp_path):
        replies, _ = talk(
            tmp_path,
            [
                req(op="submit_batch", jobs=[[0.0, 2.0], [1.0, 1.0, 1.5]]),
                req(op="drain"),
            ],
        )
        batch, drain = replies
        assert batch["ok"]
        assert [r["outcome"] for r in batch["results"]] == ["admitted"] * 2
        assert all(isinstance(r["host"], int) for r in batch["results"])
        assert drain["counters"]["completed"] == 2

    def test_submit_batch_validation(self, tmp_path):
        replies, _ = talk(
            tmp_path,
            [
                req(op="submit_batch", jobs=[]),
                req(op="submit_batch", jobs=[[0.0, "x"]]),
                req(op="submit_batch", jobs=[[0.0, 1.0], [1.0, -2.0]]),
                req(op="status"),
            ],
        )
        empty, bad_row, bad_size, status = replies
        assert not empty["ok"] and "non-empty" in empty["error"]
        assert not bad_row["ok"] and "numeric" in bad_row["error"]
        assert not bad_size["ok"] and "positive" in bad_size["error"]
        # atomic: the invalid batch admitted nothing
        assert status["status"]["counters"]["accepted"] == 0

    def test_submit_batch_rejects_non_finite_arrival(self, tmp_path):
        replies, _ = talk(
            tmp_path,
            [
                req(op="submit_batch", jobs=[[0.0, 1.0], [float("nan"), 1.0]]),
                req(op="submit_batch", jobs=[[0.0, 1.0], [float("inf"), 1.0]]),
                req(op="submit", size=1.0, arrival=float("nan")),
                req(op="status"),
                req(op="submit_batch", jobs=[[0.0, 1.0], [1.0, 1.0]]),
            ],
        )
        nan_batch, inf_batch, nan_submit, status, good = replies
        for reply in (nan_batch, inf_batch, nan_submit):
            assert not reply["ok"] and "arrival must be finite" in reply["error"]
        assert status["status"]["counters"]["accepted"] == 0
        assert status["status"]["clock"] == 0.0
        assert good["ok"] and len(good["results"]) == 2


#: requests whose numbers are not numbers, and the error each gets:
#: an integer too large for a float, and JSON booleans (``bool`` is an
#: ``int`` subclass in Python, not a number in JSON).
NOT_NUMBERS = {
    "submit-size-overflow": (
        {"op": "submit", "size": 10**400, "arrival": 1.0},
        "submit requires a numeric 'size'",
    ),
    "submit-arrival-overflow": (
        {"op": "submit", "size": 1.0, "arrival": 10**400},
        "'arrival' must be numeric",
    ),
    "submit-estimate-overflow": (
        {"op": "submit", "size": 1.0, "arrival": 1.0, "size_estimate": 10**400},
        "'size_estimate' must be numeric",
    ),
    "submit_batch-overflow": (
        {"op": "submit_batch", "jobs": [[1.0, 1.0], [1.5, 10**400]]},
        "each job must be [arrival, size] or [arrival, size, estimate] "
        "with numeric entries",
    ),
    "submit-size-bool": (
        {"op": "submit", "size": True, "arrival": 1.0},
        "submit requires a numeric 'size'",
    ),
    "submit-arrival-bool": (
        {"op": "submit", "size": 1.0, "arrival": True},
        "'arrival' must be numeric",
    ),
    "submit-estimate-bool": (
        {"op": "submit", "size": 1.0, "arrival": 1.0, "size_estimate": True},
        "'size_estimate' must be numeric",
    ),
    "submit_batch-bool": (
        {"op": "submit_batch", "jobs": [[True, True]]},
        "each job must be [arrival, size] or [arrival, size, estimate] "
        "with numeric entries",
    ),
}


@pytest.mark.parametrize("mode", ["one-at-a-time", "pipelined"])
@pytest.mark.parametrize("name", sorted(NOT_NUMBERS))
def test_non_numbers_get_an_error_reply(tmp_path, name, mode):
    msg, error = NOT_NUMBERS[name]
    lines = [
        req(op="submit", size=1.0, arrival=0.0),
        req(**msg),
        req(op="submit", size=1.0, arrival=2.0),
        req(op="submit", size=1.0, arrival=3.0),
        req(op="status"),
    ]
    client = (
        one_at_a_time(lines)
        if mode == "one-at-a-time"
        else pipelined("".join(lines).encode(), [])
    )
    core = DispatchServer(2, LeastWorkLeftPolicy(), strict=True)
    raw, frontend = converse(tmp_path, core, client)
    replies = [json.loads(r) for r in raw]
    assert replies[1] == {"ok": False, "error": error}
    # the connection keeps serving, and the bad line admitted nothing
    assert [r["outcome"] for r in (replies[0], *replies[2:4])] == ["admitted"] * 3
    assert replies[4]["status"]["counters"]["accepted"] == 3
    assert frontend.requests == len(lines)


# ----------------------------------------------------------------------
# pipelining: many requests per read give the bytes of one per read
# ----------------------------------------------------------------------

#: the four ways a core can take a run of submits: the fast path's
#: batch kernel, the engine under faults, the cutoff manager's scalar
#: loop, and a finite-rate admission bucket's scalar loop.
CORES = {
    "sita-fastpath": ["c90", "--policy", "sita", "--hosts", "2", "--seed", "1"],
    "lwl-faulted": [
        "c90", "--policy", "lwl", "--hosts", "3", "--seed", "2",
        "--mtbf", "200000", "--mttr", "20000",
    ],
    "sita-refit": [
        "c90", "--policy", "sita", "--hosts", "2", "--seed", "3",
        "--refit", "--refit-window", "64", "--refit-every", "16",
    ],
    "sita-rate-limited": [
        "c90", "--policy", "sita", "--hosts", "2", "--seed", "4",
        "--rate", "0.0002", "--burst", "2",
    ],
}


#: a line that does not decode; ``frontend.requests`` does not count it.
BAD_JSON = '{"op": "submit", "size": \n'


def make_core(argv):
    parser = argparse.ArgumentParser()
    add_serve_arguments(parser)
    return build_server(parser.parse_args(argv))


def script(seed, n_jobs=240):
    """A seeded request script: valid submits in every accepted form,
    each kind of bad line, and status/drain/submit_batch in between."""
    rng = random.Random(seed)
    trace = get_workload("c90").make_trace(
        load=0.7, n_hosts=2, n_jobs=n_jobs, rng=seed
    )
    jobs = list(zip(trace.arrival_times.tolist(), trace.service_times.tolist()))
    lines = []
    shift = 0.0
    i = 0
    while i < len(jobs):
        if i == 2 * len(jobs) // 3:
            lines.append(req(op="drain"))
            shift = 1e8  # the drain ran the clock past the stream
        t, size = jobs[i]
        t += shift
        i += 1
        u = rng.random()
        if u < 0.55:
            lines.append(req(op="submit", size=size, arrival=t))
        elif u < 0.62:
            lines.append(req(op="submit", size=size))
        elif u < 0.68:
            estimate = size * rng.uniform(0.5, 2.0)
            lines.append(req(op="submit", size=size, arrival=t, size_estimate=estimate))
        elif u < 0.71:
            lines.append(req(op="submit", size=size, arrival=t, size_estimate=None))
        elif u < 0.73:
            # not numbers: JSON booleans and an integer too big for a float
            lines.append(
                rng.choice(
                    [
                        req(op="submit", size=True, arrival=t),
                        req(op="submit", size=size, arrival=False),
                        req(op="submit", size=size, arrival=t, size_estimate=True),
                        req(op="submit", size=10**400, arrival=t),
                        req(op="submit", size=size, arrival=t, size_estimate=10**400),
                        req(op="submit_batch", jobs=[[t, True]]),
                        req(op="submit_batch", jobs=[[t, size, 10**400]]),
                    ]
                )
            )
        elif u < 0.76:
            lines.append(req(op="submit", size=size, arrival=t - 50_000.0))
        elif u < 0.79:
            bad = rng.choice([float("nan"), float("inf"), float("-inf")])
            lines.append(req(op="submit", size=size, arrival=bad))
        elif u < 0.81:
            lines.append(BAD_JSON)
        elif u < 0.83:
            lines.append(req(op="warp", size=size))
        elif u < 0.86:
            bad = rng.choice([0.0, -1.0, "big", float("nan")])
            lines.append(req(op="submit", size=bad, arrival=t))
        elif u < 0.88:
            lines.append(req(op="submit", size=size, arrival=t, size_estimate="x"))
        elif u < 0.91:
            lines.append(req(op="status"))
        else:
            rows = [[t, size]] + [[a + shift, s] for a, s in jobs[i : i + rng.randint(0, 4)]]
            i += len(rows) - 1
            lines.append(req(op="submit_batch", jobs=rows))
    return [*lines, req(op="drain"), req(op="status")]


def pipelined(data, cuts):
    """Client: the whole script in one stream cut at byte offsets
    ``cuts``, yielding between pieces so lines straddle server reads;
    returns the raw reply lines."""
    n_replies = data.count(b"\n")

    async def client(reader, writer):
        async def read_all():
            return [await reader.readline() for _ in range(n_replies)]

        replies = asyncio.ensure_future(read_all())
        try:
            for lo, hi in zip([0, *cuts], [*cuts, len(data)]):
                writer.write(data[lo:hi])
                await writer.drain()
                await asyncio.sleep(0)
        except BaseException:
            replies.cancel()
            raise
        return await replies

    return client


def reference_replies(core, lines):
    """The one-request path in-process, no socket and no runs: decode,
    :meth:`ServeFrontend._apply` and encode, one line at a time."""
    frontend = ServeFrontend(core)
    replies = []
    for line in lines:
        try:
            reply = frontend._apply(decode_line(line.encode()))
        except ProtocolError as exc:
            reply = {"ok": False, "error": str(exc)}
        replies.append(encode(reply))
    return replies


def estimates(core):
    """Size estimates of the routed jobs in submission order on the fast
    path (the job table has no estimate column).  ``None`` on the event
    path, whose completion log keeps no estimate: there the job table's
    hosts are what the estimates decided."""
    fp = core._fastpath
    return None if fp is None else fp._est[: fp.m].copy()


def without_timing(reply):
    doc = json.loads(reply)
    doc["status"].pop("latency")
    return doc


def assert_same_conversation(lines, replies_a, replies_b):
    assert len(replies_a) == len(replies_b) == len(lines)
    for line, a, b in zip(lines, replies_a, replies_b):
        if '"op": "status"' in line:
            # wall-clock latency fields are the only difference allowed
            assert without_timing(a) == without_timing(b)
        else:
            assert a == b, line


class TestPipelining:
    @pytest.mark.parametrize("seed", [5, 6])
    @pytest.mark.parametrize("core_name", sorted(CORES))
    def test_pipelined_bytes_equal_one_at_a_time(self, tmp_path, core_name, seed):
        lines = script(seed)
        data = "".join(lines).encode()
        rng = random.Random(seed)
        cuts = sorted(rng.sample(range(1, len(data)), len(lines) // 3))

        cores = [make_core(CORES[core_name]) for _ in range(3)]
        reference = reference_replies(cores[0], lines)
        single, _ = converse(tmp_path, cores[1], one_at_a_time(lines))
        piped, frontend = converse(tmp_path, cores[2], pipelined(data, cuts))

        assert_same_conversation(lines, reference, single)
        assert_same_conversation(lines, reference, piped)
        assert frontend.requests == len(lines) - lines.count(BAD_JSON)
        counters = [core.counters() for core in cores]
        assert counters[0] == counters[1] == counters[2]
        tables = [core.job_table() for core in cores]
        for core, table in zip(cores[1:], tables[1:]):
            assert table.keys() == tables[0].keys()
            for key in table:
                np.testing.assert_array_equal(table[key], tables[0][key], err_msg=key)
            est, ref = estimates(core), estimates(cores[0])
            assert (est is None) == (ref is None)
            if ref is not None:
                np.testing.assert_array_equal(est, ref)

    @pytest.mark.parametrize("core_name", ["sita-fastpath", "sita-rate-limited"])
    def test_numbers_at_the_run_bounds_equal_one_at_a_time(self, tmp_path, core_name):
        """Integers, the largest floats, integers on either side of the
        float overflow, zero and non-finite estimates, repeated and
        missing arrivals: in a pipelined run each line gets the bytes
        and the core the state of the one-request path.  (Cores without
        faults: a faulted engine would step its heartbeats up to an
        arrival near the largest float.  Sizes near it stay out: their
        completions overflow, which is no concern of the front end.)"""
        big = 1.7976931348623157e308  # the largest float
        huge = 2**1024 - 2**970  # the smallest integer float() rejects
        rows = [
            {"size": 3, "arrival": 1},
            {"size": 2.5, "arrival": 1},
            {"size": 4},
            {"size": 1, "arrival": 2, "size_estimate": 7},
            {"size": 1.0, "arrival": 2.0, "size_estimate": 0.0},
            {"size": 1.0, "arrival": 2.0, "size_estimate": -1},
            {"size": 1.0, "arrival": 2.0, "size_estimate": float("nan")},
            {"size": 1.0, "arrival": 2.0, "size_estimate": float("inf")},
            {"size": 1.0, "arrival": 3.0, "size_estimate": big},
            {"size": huge, "arrival": 4.0},
            {"size": huge, "arrival": 4.0, "size_estimate": 1.0},
            {"size": 1.0, "arrival": 0.5},
            {"size": 1.0, "arrival": 5, "size_estimate": huge - 1},
            {"size": 1.0, "arrival": 5, "size_estimate": huge},
            {"size": 2**53 + 1, "arrival": 2**53 + 1},
            {"size": 1.0, "arrival": 2**53},
            {"size": 1.0},
            {"size": 1.0, "arrival": 1e300},
            {"size": 1.0, "arrival": huge},
            {"size": 1.0, "arrival": big},
            {"size": 1.0},
            {"size": 1.0, "arrival": float("inf")},
        ]
        lines = [req(op="submit", **row) for row in rows] + [req(op="status")]
        cores = [make_core(CORES[core_name]) for _ in range(2)]
        reference = reference_replies(cores[0], lines)
        piped, _ = converse(tmp_path, cores[1], pipelined("".join(lines).encode(), []))
        assert_same_conversation(lines, reference, piped)
        assert cores[0].counters() == cores[1].counters()
        tables = [core.job_table() for core in cores]
        for key in tables[0]:
            np.testing.assert_array_equal(tables[1][key], tables[0][key], err_msg=key)

    def test_a_deeply_nested_line_gets_an_error_reply(self, tmp_path):
        """A line nested deeper than the JSON parser recurses gets one
        error reply; the good lines read in the same block get theirs."""
        deep = '{"op":"status","x":' + "[" * 30_000 + "\n"
        lines = [
            req(op="submit", size=1.0, arrival=0.0),
            deep,
            req(op="submit", size=2.0, arrival=1.0),
        ]
        core = make_core(CORES["sita-fastpath"])
        replies, _ = converse(tmp_path, core, pipelined("".join(lines).encode(), []))
        docs = [json.loads(reply) for reply in replies]
        assert [doc["ok"] for doc in docs] == [True, False, True]
        assert docs[1]["error"] == "invalid JSON: nested too deeply"
        assert replies == reference_replies(make_core(CORES["sita-fastpath"]), lines)

    @pytest.mark.parametrize(
        ("n_lines", "calls"),
        [
            (50, {"submit": 0, "submit_batch": 1}),
            (1, {"submit": 1, "submit_batch": 0}),
            # below the measured break-even a run goes scalar
            (2, {"submit": 2, "submit_batch": 0}),
            (3, {"submit": 3, "submit_batch": 0}),
            (4, {"submit": 0, "submit_batch": 1}),
        ],
    )
    def test_a_run_is_one_batch_and_a_lone_submit_is_scalar(
        self, tmp_path, n_lines, calls
    ):
        core = make_core(CORES["sita-fastpath"])
        seen = dict.fromkeys(calls, 0)
        for name in calls:
            method = getattr(core, name)

            def counted(*args, _method=method, _name=name, **kwargs):
                seen[_name] += 1
                return _method(*args, **kwargs)

            setattr(core, name, counted)
        lines = [req(op="submit", size=1.0, arrival=float(k)) for k in range(n_lines)]
        replies, _ = converse(
            tmp_path, core, pipelined("".join(lines).encode(), [])
        )
        assert seen == calls
        assert [json.loads(r)["outcome"] for r in replies] == ["admitted"] * n_lines


# ----------------------------------------------------------------------
# framing: the limits of a readline with limit=MAX_LINE
# ----------------------------------------------------------------------


def until_eof(data):
    """Client: send ``data``, half-close, and read until the server
    closes; returns everything received."""

    async def client(reader, writer):
        with contextlib.suppress(ConnectionError):
            writer.write(data)
            await writer.drain()
            writer.write_eof()
        received = b""
        with contextlib.suppress(ConnectionError):
            while chunk := await reader.read(1 << 16):
                received += chunk
        return received

    return client


def status_line(length):
    """A ``status`` request of exactly ``length`` bytes, newline included."""
    head = '{"op":"status","pad":"'
    tail = '"}\n'
    return (head + "x" * (length - len(head) - len(tail)) + tail).encode()


def find_loop_split(buf):
    """Reference splitter, one ``find`` per line: complete lines (newline
    kept), the partial tail, and whether to close."""
    lines = []
    start = 0
    while end := buf.find(b"\n", start) + 1:
        if end - start > MAX_LINE + 1:
            return lines, b"", True
        lines.append(buf[start:end])
        start = end
    tail = buf[start:]
    return lines, tail, len(tail) > MAX_LINE


#: line lengths (newline included) around the framing limits.
LINE_LENGTHS = [1, 2, 40, MAX_LINE - 1, MAX_LINE, MAX_LINE + 1, MAX_LINE + 2]
TAIL_LENGTHS = [0, 1, 40, MAX_LINE - 1, MAX_LINE, MAX_LINE + 1, MAX_LINE + 2, 2 * MAX_LINE]


@pytest.mark.parametrize("seed", range(40))
def test_split_equals_the_find_loop(seed):
    """``_split_lines`` gives the reference's lines (newline stripped),
    tail and close flag around every framing limit."""
    rng = random.Random(seed)
    lengths = [rng.choice(LINE_LENGTHS) for _ in range(rng.randint(0, 6))]
    body = b"".join(b"x" * (n - 1) + b"\n" for n in lengths)
    buf = body + b"y" * rng.choice(TAIL_LENGTHS)
    lines, tail, closing = _split_lines(buf)
    assert ([line + b"\n" for line in lines], tail, closing) == find_loop_split(buf)


class TestFraming:
    GOOD = req(op="submit", size=1.0, arrival=0.0).encode()

    def exchange(self, tmp_path, data):
        core = DispatchServer(2, LeastWorkLeftPolicy(), strict=True)
        received, frontend = converse(tmp_path, core, until_eof(data))
        return [json.loads(r) for r in received.splitlines()], frontend

    def test_max_line_is_answered(self, tmp_path):
        line = status_line(MAX_LINE)
        assert len(line) == MAX_LINE
        (status, good), _ = self.exchange(tmp_path, line + self.GOOD)
        assert status["ok"] and "status" in status
        assert good["ok"] and good["outcome"] == "admitted"

    def test_one_byte_over_is_an_error_reply(self, tmp_path):
        (error, good), frontend = self.exchange(
            tmp_path, status_line(MAX_LINE + 1) + self.GOOD
        )
        assert error == {
            "ok": False, "error": f"request line exceeds {MAX_LINE} bytes",
        }
        # the connection stayed open for the next request
        assert good["ok"] and good["outcome"] == "admitted"
        assert frontend.requests == 1

    @pytest.mark.parametrize("extra", [2, 3, MAX_LINE])
    def test_longer_lines_close_the_connection(self, tmp_path, extra):
        data = self.GOOD + status_line(MAX_LINE + extra) + self.GOOD
        replies, frontend = self.exchange(tmp_path, data)
        # the request before the long line is answered, none after it
        assert [r["outcome"] for r in replies] == ["admitted"]
        assert frontend.requests == 1

    def test_long_partial_line_closes_the_connection(self, tmp_path):
        replies, _ = self.exchange(tmp_path, self.GOOD + b"x" * (MAX_LINE + 1))
        assert [r["outcome"] for r in replies] == ["admitted"]

    def test_final_line_without_newline_is_answered(self, tmp_path):
        data = self.GOOD + req(op="submit", size=2.0, arrival=1.0).rstrip("\n").encode()
        replies, frontend = self.exchange(tmp_path, data)
        assert [r["outcome"] for r in replies] == ["admitted", "admitted"]
        assert frontend.requests == 2
        assert frontend.connections == 0

    def test_replies_before_a_fatal_line_are_delivered(self, tmp_path):
        # A 400-digit size is an error reply, not a fatal line: the
        # lines after it are answered on the same connection.
        big = b'{"op":"submit","arrival":1.0,"size":1' + b"0" * 400 + b"}\n"
        replies, frontend = self.exchange(tmp_path, self.GOOD + big + self.GOOD)
        assert replies[1] == {"ok": False, "error": "submit requires a numeric 'size'"}
        assert [r.get("outcome") for r in replies] == ["admitted", None, "admitted"]
        assert frontend.requests == 3

        # An unexpected exception escapes the handler; the requests
        # before it in the same read were applied and keep their
        # replies, as when sent one by one.
        core = DispatchServer(2, LeastWorkLeftPolicy(), strict=True)

        def broken_status():
            raise RuntimeError("status exploded")

        core.status = broken_status
        data = self.GOOD + req(op="status").encode() + self.GOOD
        received, frontend = converse(tmp_path, core, until_eof(data))
        replies = [json.loads(r) for r in received.splitlines()]
        assert [r["outcome"] for r in replies] == ["admitted"]
        assert frontend.requests == 2
