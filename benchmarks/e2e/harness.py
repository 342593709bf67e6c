"""Run one workload: repeats in fresh processes, checks, statistics.

The harness is the only process that generates load.  Each repeat is one
fresh child: ``worker.py`` for the in-process workloads, ``python -m
repro serve --socket`` (or its traced twin) for ``serve-socket``, so at
most two processes exist at a time.  Times are taken around public calls
only: the worker times ``run_experiment`` / ``run_stream`` from outside,
and the socket is timed by the client.  Set-up time runs from spawning
the child to the point where it is ready (imports done and server built,
or the socket accepting).

Correctness, which feeds ``failed`` and ``error_rate``:

* for the seeds under ``reference/`` the outputs must match the
  committed ones (floats to a relative 1e-9);
* for any other seed every repeat must give identical outputs;
* on every seed, one repeat also checks the fast path against the event
  engine (``worker.py``), and the socket replies are checked against an
  in-process ``submit_batch(collect=True)`` replay of the same stream.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import os
import platform
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import loadgen
from .metrics import BY_NAME, by_role, summarize
from .worker import make_stream, serve_args

ROOT = Path(__file__).resolve().parents[2]
E2E = Path(__file__).resolve().parent
OUT = E2E / "out"
WORKER = E2E / "worker.py"
REFERENCE_DIR = E2E / "reference"

DEFAULT_SEED = 20000731
REFERENCE_SEEDS = (20000731, 11)
#: relative tolerance for reference floats; loose enough for a change
#: in tie-breaking order, tight enough for any real behaviour change.
REFERENCE_RTOL = 1e-9
MIN_REPEATS = 3
#: per-child wall-clock limit, seconds.
CHILD_TIMEOUT = 170

#: workload -> (kind, most repeats per run).  Why each exists is in
#: README.md and BENCHMARK.json.
WORKLOADS = {
    "sweep-unbalanced": ("sweep", 5),
    "sweep-balanced": ("sweep", 7),
    "serve-stream": ("serve", 5),
    "serve-faulted": ("serve", 12),
    "serve-socket": ("socket", 3),
}

#: ``repro serve`` arguments of the socket workload.
SOCKET_SERVE_ARGS = ["c90", "--policy", "sita", "--hosts", "2", "--seed", "1"]


@dataclass(frozen=True)
class SocketPlan:
    """One socket repeat: a warm-up, then saturation bursts with an
    open-loop phase between each two, then ``drain`` and ``status``.

    Each burst is one ``work_s`` sample.  Several bursts spread over the
    repeat let the median ride out a stall that hits one of them.
    """

    warmup: int
    #: requests per saturation burst, sent with ``window`` outstanding.
    saturation: int
    window: int
    #: open-loop phases as (requests per second, seconds).
    open_loop: tuple[tuple[int, float], ...]

    @property
    def bursts(self) -> int:
        return len(self.open_loop) + 1

    @property
    def total(self) -> int:
        opened = sum(int(r * d) for r, d in self.open_loop)
        return self.warmup + self.saturation * self.bursts + opened


SOCKET_FULL = SocketPlan(10_000, 60_000, 256, ((15_000, 1.0), (30_000, 1.0)))
SOCKET_QUICK = SocketPlan(1_000, 5_000, 256, ((15_000, 0.2), (30_000, 0.2)))


class BenchmarkError(RuntimeError):
    """A child failed to run; the benchmark cannot produce a result."""


def check_checkout() -> None:
    """Refuse to run where the program's sources are missing."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(
            f"no program sources under {ROOT / 'src'}; run from a full checkout"
        )


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------


def _same(a, b, rtol: float) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b or math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k], rtol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y, rtol) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def mismatched_ops(kind: str, got: dict, want: dict, n_ops: int, rtol: float) -> int:
    """Operations whose outputs differ: rows for a sweep; for a server
    any difference in its accounting fails every job of the repeat."""
    if kind == "sweep":
        if got["columns"] != want["columns"] or len(got["rows"]) != len(want["rows"]):
            return n_ops
        return sum(not _same(g, w, rtol) for g, w in zip(got["rows"], want["rows"]))
    return 0 if _same(got, want, rtol) else n_ops


def load_reference(workload: str, seed: int, reference_dir: Path | None) -> dict | None:
    if reference_dir is None:
        return None
    path = Path(reference_dir) / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(str(seed))


class Tally:
    """Attempted and failed operations of one run."""

    def __init__(self, kind: str, reference: dict | None) -> None:
        self.kind = kind
        self.reference = reference
        self.first: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.notes = [
            "outputs compared with the committed reference"
            if reference is not None
            else "outputs compared across repeats (no reference for this seed and size)"
        ]

    def outputs(self, got: dict, n_ops: int, failed_here: int = 0) -> None:
        """Fold one repeat's outputs in, against the reference if there
        is one and otherwise against the first repeat."""
        self.attempted += n_ops
        if self.reference is not None:
            bad = mismatched_ops(self.kind, got, self.reference, n_ops, REFERENCE_RTOL)
            what = "reference"
        elif self.first is None:
            self.first, bad, what = got, 0, "first repeat"
        else:
            bad = mismatched_ops(self.kind, got, self.first, n_ops, 0.0)
            what = "first repeat"
        if bad:
            self.notes.append(f"{bad} of {n_ops} operations differ from the {what}")
        self.failed += max(bad, failed_here)

    def check(self, doc: dict | None) -> None:
        """An oracle check counts as one operation."""
        if doc is None:
            return
        self.attempted += 1
        self.notes.append(f"oracle {'ok' if doc['ok'] else 'FAILED'}: {doc['detail']}")
        if not doc["ok"]:
            self.failed += 1


@dataclass
class Measured:
    """What one workload's repeats produced, before summarising."""

    tally: Tally
    samples: dict[str, list[float]]
    layers: dict[str, float]
    spans_file: Path | None


def serve_failures(outputs: dict) -> int:
    """Jobs that ended lost, rejected or still in flight; all of them if
    the accounting invariant is broken."""
    c = outputs["counters"]
    if not outputs["invariant"]:
        return c["accepted"]
    return c["lost"] + c["rejected"] + c["in_flight"]


# ----------------------------------------------------------------------
# repeats
# ----------------------------------------------------------------------


def run_repeats(run_one, seconds: float, min_n: int, max_n: int, reserve: float) -> list:
    """Call ``run_one(i)`` until the time budget or ``max_n`` is reached.

    A new repeat starts only if it is expected (from the previous one's
    cost) to end within ``seconds``, leaving ``reserve`` repeats' worth
    of time for what the caller runs afterwards.
    """
    start = time.monotonic()
    done: list = []
    last = 0.0
    while len(done) < max_n:
        elapsed = time.monotonic() - start
        if len(done) >= min_n and elapsed + last * (1.0 + reserve) > seconds:
            break
        t0 = time.monotonic()
        result = run_one(len(done))
        last = time.monotonic() - t0 - result.get("check_s", 0.0)
        done.append(result)
    return done


def _spawn_worker(
    workload: str, seed: int, quick: bool, check: bool, trace: Path | None
) -> dict:
    cmd = [sys.executable, str(WORKER), workload, "--seed", str(seed)]
    if quick:
        cmd.append("--quick")
    if check:
        cmd.append("--check")
    if trace is not None:
        cmd += ["--trace", str(trace)]
    t_spawn = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=False
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchmarkError(f"{workload} worker exited {proc.returncode}:\n{tail}")
    doc = json.loads(lines[-1])
    doc["setup_s"] = doc["t_imported"] - t_spawn + doc["construct_s"]
    return doc


def _layer_metrics(layers: dict, root: str) -> dict[str, float]:
    """Catalog layer metrics from a tracer summary (0 where absent)."""
    out: dict[str, float] = {}
    for m in by_role("layer"):
        layer, _, field = m.name.rpartition(".")
        agg = layers.get(layer)
        if agg is None:
            continue
        if field in ("s", "self_s"):
            out[m.name] = agg[field]
        elif field == "calls":
            out[m.name] = float(agg["calls"])
        elif field.endswith("_per_s"):
            out[m.name] = agg["units"] / agg["s"] if agg["s"] > 0 else 0.0
    if root in layers:
        out["root.wall_s"] = layers[root]["s"]
        out["root.unattributed_s"] = layers[root]["self_s"]
    return out


def run_inprocess(workload: str, seed: int, seconds: float, trace: bool, quick: bool,
                  reference: dict | None) -> Measured:
    kind = WORKLOADS[workload][0]
    max_n = 1 if quick else WORKLOADS[workload][1]
    min_n = 1 if (quick or trace) else MIN_REPEATS
    tally = Tally(kind, reference)

    def one(i: int) -> dict:
        return _spawn_worker(workload, seed, quick, check=(i == 0), trace=None)

    docs = run_repeats(one, seconds, min_n, max_n, reserve=1.5 if trace else 0.0)
    samples: dict[str, list[float]] = {}
    for doc in docs:
        failed = serve_failures(doc["outputs"]) if kind == "serve" else 0
        tally.outputs(doc["outputs"], doc["ops"], failed)
        tally.check(doc["check"])
        row = {
            "setup_s": doc["setup_s"],
            "work_s": doc["work_s"],
            "peak_rss_mb": doc["peak_rss_mb"],
            "mem_growth_mb": doc["mem_growth_mb"],
        }
        if kind == "sweep":
            row["sweep_s"] = doc["work_s"]
        else:
            row["decisions_per_s"] = doc["ops"] / doc["work_s"]
        for name, value in row.items():
            samples.setdefault(name, []).append(value)
    layers: dict[str, float] = {}
    spans_file = None
    if trace:
        spans_file = OUT / f"spans-{workload}.json"
        doc = _spawn_worker(workload, seed, quick, check=False, trace=spans_file)
        failed = serve_failures(doc["outputs"]) if kind == "serve" else 0
        tally.outputs(doc["outputs"], doc["ops"], failed)
        layers = _layer_metrics(doc["layers"], doc["root"])
        base = summarize(samples["work_s"])["median"]
        layers["root.trace_overhead_pct"] = (doc["work_s"] - base) / base * 100.0
        if kind == "serve":
            c = doc["outputs"]["counters"]
            for name in ("retries", "handoff_failures"):
                layers[f"serve.{name}_per_decision"] = c[name] / c["accepted"]
    return Measured(tally, samples, layers, spans_file)


# ----------------------------------------------------------------------
# the socket workload
# ----------------------------------------------------------------------


def _encode_submit(arrival: float, size: float) -> bytes:
    return json.dumps({"op": "submit", "size": size, "arrival": arrival},
                      separators=(",", ":")).encode() + b"\n"


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        rest = fh.read().rpartition(")")[2].split()
    return (int(rest[11]) + int(rest[12])) / os.sysconf("SC_CLK_TCK")


def _proc_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise BenchmarkError("VmHWM missing from /proc status")


async def _drive(
    proc: subprocess.Popen, sock: str, plan: SocketPlan, lines: list[bytes]
) -> dict:
    reader, writer = await loadgen.connect(sock, lambda: proc.poll() is None)
    t_ready = time.monotonic()
    pid = proc.pid
    try:
        cpu_start = _proc_cpu_s(pid)
        w = plan.warmup
        _, replies = await loadgen.closed_loop(reader, writer, lines[:w], plan.window)
        g0 = time.process_time()
        pos = w
        sat_s: list[float] = []
        sat_cpu = 0.0
        phases = []
        for k in range(plan.bursts):
            c0 = _proc_cpu_s(pid)
            wall, got = await loadgen.closed_loop(
                reader, writer, lines[pos : pos + plan.saturation], plan.window
            )
            sat_cpu += _proc_cpu_s(pid) - c0
            sat_s.append(wall)
            replies += got
            pos += plan.saturation
            if k < len(plan.open_loop):
                rate, duration = plan.open_loop[k]
                n = int(rate * duration)
                phase = await loadgen.open_loop(reader, writer, lines[pos : pos + n], rate)
                phases.append(phase)
                replies += phase.replies
                pos += n
        g1 = time.process_time()
        drain = await loadgen.request(reader, writer, b'{"op":"drain"}\n')
        status = await loadgen.request(reader, writer, b'{"op":"status"}\n')
        cpu_end = _proc_cpu_s(pid)
        hwm = _proc_hwm_mb(pid)
    finally:
        writer.close()
        with contextlib.suppress(ConnectionError):
            await writer.wait_closed()
    return {
        "t_ready": t_ready,
        "sat_s": sat_s,
        "server_cpu_sat_s": sat_cpu,
        "server_cpu_s": cpu_end - cpu_start,
        "loadgen_cpu_s": g1 - g0,
        "loadgen_requests": pos - w,
        "peak_rss_mb": hwm,
        "phases": phases,
        "replies": replies,
        "drain": json.loads(drain),
        "status": json.loads(status),
    }


def _socket_repeat(
    seed: int, plan: SocketPlan, lines: list[bytes], trace: Path | None
) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    # Relative to the checkout root (the child's cwd), which keeps the
    # path under the 107-byte limit of a Unix socket address.
    sock = str((OUT / "serve.sock").relative_to(ROOT))
    (ROOT / sock).unlink(missing_ok=True)
    if trace is None:
        cmd = [sys.executable, "-m", "repro", "serve", *SOCKET_SERVE_ARGS, "--socket", sock]
    else:
        cmd = [sys.executable, str(WORKER), "socket-server", "--seed", str(seed),
               "--socket", sock, "--trace", str(trace), "--", *SOCKET_SERVE_ARGS]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    errlog = OUT / "serve-socket.stderr"
    with errlog.open("w") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
        try:
            doc = asyncio.run(_drive(proc, sock, plan, lines))
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
            try:
                stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                stdout, _ = proc.communicate()
            (ROOT / sock).unlink(missing_ok=True)
    if proc.returncode != 0:
        tail = "\n".join(errlog.read_text().strip().splitlines()[-15:])
        raise BenchmarkError(f"serve-socket server exited {proc.returncode}:\n{tail}")
    doc["setup_s"] = doc["t_ready"] - t_spawn
    if trace is not None:
        doc["layers"] = json.loads(stdout.strip().splitlines()[-1])["layers"]
    return doc


def socket_replay(stream: list[tuple[float, float]]) -> tuple[list[int], dict]:
    """Hosts and post-drain counters of an in-process replay."""
    from repro.serve.runner import build_server

    core = build_server(serve_args(SOCKET_SERVE_ARGS))
    records = core.submit_batch([a for a, _ in stream], [s for _, s in stream], collect=True)
    core.drain()
    return [r["host"] for r in records], core.counters()


def _socket_failures(doc: dict, hosts: list[int], counters: dict) -> int:
    """Requests failed: an error reply, a wrong host, or (for all of
    them) accounting that differs from the replay's."""
    n = len(doc["replies"]) + 2
    if not (doc["drain"].get("ok") and doc["status"].get("ok")):
        return n
    status = doc["status"]["status"]
    if doc["drain"]["counters"] != counters or not all(status["invariant"].values()):
        return n
    bad = 0
    for raw, host in zip(doc["replies"], hosts):
        reply = json.loads(raw)
        ok = reply.get("ok") and reply.get("outcome") == "admitted"
        if not (ok and reply.get("host") == host):
            bad += 1
    return bad


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def _socket_inputs(seed: int, plan: SocketPlan) -> tuple[list, list[bytes]]:
    args = serve_args(SOCKET_SERVE_ARGS)
    stream = make_stream(args.workload, args.load, args.hosts, plan.total, seed)
    return stream, [_encode_submit(a, s) for a, s in stream]


def run_socket(seed: int, seconds: float, trace: bool, quick: bool,
               reference: dict | None) -> Measured:
    plan = SOCKET_QUICK if quick else SOCKET_FULL
    stream, lines = _socket_inputs(seed, plan)
    hosts, counters = socket_replay(stream)
    tally = Tally("socket", reference)
    max_n = 1 if quick else WORKLOADS["serve-socket"][1]
    min_n = 1 if (quick or trace) else MIN_REPEATS

    def one(_i: int) -> dict:
        return _socket_repeat(seed, plan, lines, None)

    docs = run_repeats(one, seconds, min_n, max_n, reserve=1.2 if trace else 0.0)
    samples: dict[str, list[float]] = {}

    def fold(doc: dict) -> None:
        n_ops = len(doc["replies"]) + 2
        tally.outputs({"counters": doc["drain"].get("counters")}, n_ops,
                      _socket_failures(doc, hosts, counters))

    for doc in docs:
        fold(doc)
        samples.setdefault("work_s", []).extend(doc["sat_s"])
        samples.setdefault("socket_rps", []).extend(plan.saturation / s for s in doc["sat_s"])
        saturated = plan.saturation * plan.bursts
        row = {
            "setup_s": doc["setup_s"],
            "peak_rss_mb": doc["peak_rss_mb"],
            "serve.frontend.server_cpu_us_per_req": doc["server_cpu_sat_s"] / saturated * 1e6,
            "loadgen.cpu_us_per_req": doc["loadgen_cpu_s"] / doc["loadgen_requests"] * 1e6,
        }
        late = [x for p in doc["phases"] for x in p.late_ms]
        row["loadgen.late_p99_ms"] = _percentile(late, 99)
        row["loadgen.late_max_ms"] = max(late)
        row["loadgen.late_p99_ms.samples"] = float(len(late))
        for (rate, _), phase in zip(plan.open_loop, doc["phases"]):
            tag = f"{rate // 1000}k"
            row[f"socket_p50_ms_{tag}"] = _percentile(phase.latencies_ms, 50)
            row[f"socket_p99_ms_{tag}"] = _percentile(phase.latencies_ms, 99)
            row[f"socket_p99_ms_{tag}.samples"] = float(len(phase.latencies_ms))
        for name, value in row.items():
            samples.setdefault(name, []).append(value)
    layers: dict[str, float] = {}
    spans_file = None
    if trace:
        spans_file = OUT / "spans-serve-socket.json"
        doc = _socket_repeat(seed, plan, lines, spans_file)
        fold(doc)
        layers = _layer_metrics(doc["layers"], root="")
        traced = sum(agg["self_s"] for agg in doc["layers"].values())
        layers["serve.frontend.unattributed_s"] = doc["server_cpu_s"] - traced
        # No span encloses the socket server's work; its root is the
        # server process's CPU time over the requests.
        layers["root.wall_s"] = doc["server_cpu_s"]
        layers["root.unattributed_s"] = layers["serve.frontend.unattributed_s"]
        base = summarize(samples["work_s"])["median"]
        traced_s = summarize(doc["sat_s"])["median"]
        layers["root.trace_overhead_pct"] = (traced_s - base) / base * 100.0
    return Measured(tally, samples, layers, spans_file)


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------


_DEFAULT = object()


def run_workload(workload: str, seed: int = DEFAULT_SEED, seconds: float = 25.0,
                 trace: bool = False, quick: bool = False, reference_dir=_DEFAULT) -> dict:
    """Run one workload and return its result document.

    References apply to full-size runs; ``reference_dir`` overrides the
    committed directory (tests point it at a perturbed copy).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    check_checkout()
    if reference_dir is _DEFAULT:
        reference_dir = None if quick else REFERENCE_DIR
    reference = load_reference(workload, seed, reference_dir)
    if WORKLOADS[workload][0] == "socket":
        m = run_socket(seed, seconds, trace, quick, reference)
    else:
        m = run_inprocess(workload, seed, seconds, trace, quick, reference)
    m.samples["error_rate"] = [m.tally.failed / m.tally.attempted]
    metrics = {}
    for name, values in m.samples.items():
        metrics[name] = {"unit": BY_NAME[name].unit, **summarize(values)}
    for name, value in m.layers.items():
        if name not in metrics:
            metrics[name] = {"unit": BY_NAME[name].unit, **summarize([value])}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "quick": quick,
        "repeats": len(m.samples["setup_s"]),
        "correct": m.tally.failed == 0,
        "attempted": m.tally.attempted,
        "failed": m.tally.failed,
        "checks": m.tally.notes,
        "spans_file": None if m.spans_file is None else str(m.spans_file.relative_to(ROOT)),
        "metrics": metrics,
    }


def record_outputs(workload: str, seed: int, quick: bool = False) -> dict:
    """One repeat's outputs, as the reference files hold them."""
    check_checkout()
    if WORKLOADS[workload][0] == "socket":
        plan = SOCKET_QUICK if quick else SOCKET_FULL
        stream, lines = _socket_inputs(seed, plan)
        doc = _socket_repeat(seed, plan, lines, None)
        hosts, counters = socket_replay(stream)
        if _socket_failures(doc, hosts, counters):
            raise BenchmarkError("socket replies disagree with the in-process replay")
        return {"counters": doc["drain"]["counters"]}
    return _spawn_worker(workload, seed, quick, check=False, trace=None)["outputs"]


def final_line(result: dict) -> dict:
    """The one-line result: the end-to-end metrics, or with tracing the
    per-layer metrics (0 for a layer this workload never calls)."""
    names = [m.name for m in by_role("layer" if result["trace"] else "e2e")]
    metrics = {}
    for name in names:
        entry = result["metrics"].get(name)
        value = entry["median"] if entry is not None else 0.0
        metrics[name] = {"value": value, "unit": BY_NAME[name].unit}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def report(result: dict) -> str:
    """Human-readable lines: every measured metric with unit and spread."""
    lines = [
        f"# {result['workload']}  seed={result['seed']}  repeats={result['repeats']}"
        f"  trace={int(result['trace'])}  quick={int(result['quick'])}"
    ]
    for note in result["checks"]:
        lines.append(f"  check: {note}")
    lines.append(
        f"  correct={result['correct']}  attempted={result['attempted']}"
        f"  failed={result['failed']}"
    )
    for name, m in result["metrics"].items():
        spread = f"  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}]" if m["n"] > 1 else ""
        lines.append(f"  {name:<44} {m['median']:>14.6g} {m['unit']}{spread}")
    if result["spans_file"]:
        lines.append(f"  spans: {result['spans_file']}")
    return "\n".join(lines)


def machine() -> dict:
    """The hardware and interpreter a result was measured on."""
    cpu = platform.processor() or ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(terse=True),
    }
