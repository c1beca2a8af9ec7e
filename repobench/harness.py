"""Shared machinery for the repository benchmark.

Everything a workload needs that is not about its own traffic lives here:
locating the program's sources, starting and stopping a ``repro serve``
process, the set-up repetitions behind ``setup_s``, latency statistics,
benchmark-owned spans for the traced run, planted-truth F1, provenance,
and printing the result.

The benchmark drives the program only through its public entry points:
the ``repro serve`` command line, :class:`repro.server.MatchServiceClient`
and the ``repro`` package's public classes and functions.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
SPEC_PATH = ROOT / "BENCHMARK.json"
LAYER_MAP_PATH = BENCH_DIR / "layer_map.json"
#: Scratch space inside the checkout: repositories, logs, span dumps and
#: run records.  Ignored by git.
WORK_ROOT = ROOT / ".repobench"

#: How many times each run repeats its set-up; ``setup_s`` is the median.
SETUP_REPETITIONS = 3
#: How long a ``repro serve`` process may take to announce its URL.
SERVER_START_TIMEOUT_S = 90.0
#: How long a stopped server may take to drain and exit after SIGTERM.
SERVER_STOP_TIMEOUT_S = 30.0
#: Score agreement demanded between a served answer and its reference.
SCORE_TOLERANCE = 1e-9


class ProgramMissing(RuntimeError):
    """The checkout does not hold the program's sources."""


def require_program() -> None:
    """Make ``import repro`` resolve to this checkout's sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(
            f"no program sources at {SRC / 'repro'}; run from a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_spec() -> dict[str, Any]:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def load_layer_map() -> dict[str, Any]:
    with open(LAYER_MAP_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def derive_seed(seed: int, *labels: object) -> int:
    """A child seed, stable across processes (``hash()`` is salted)."""
    text = ":".join([str(seed), *map(str, labels)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


# ---------------------------------------------------------------------------
# Scratch directories
# ---------------------------------------------------------------------------
@contextlib.contextmanager
def scratch_dir(label: str):
    """A fresh directory under ``.repobench/`` removed on exit."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{label}-", dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------------------
# The server under test
# ---------------------------------------------------------------------------
def _terminate_with_parent() -> None:
    """In the child: ask Linux to SIGTERM it if the benchmark dies first,
    so a killed run never leaves a server behind."""
    import ctypes

    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


class ServerProcess:
    """One ``repro serve`` process over a pooled WAL repository file.

    Threaded (one process), so the benchmark process can open the same
    file through its own ``MetadataRepository`` and write while it serves.
    """

    def __init__(self, db_path: Path, log_path: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self._log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--db", str(db_path), "--backend", "pooled", "--port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
            env=env,
            cwd=str(ROOT),
            preexec_fn=_terminate_with_parent,
        )
        try:
            self.url = self._await_announce()
        except BaseException:
            self.stop()
            raise

    def _await_announce(self) -> str:
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not selector.select(timeout=deadline - time.monotonic()):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    raise RuntimeError(
                        f"repro serve exited with status {self.proc.wait()} "
                        "before announcing"
                    )
                if " serving on " in line:
                    return line.split(" serving on ", 1)[1].split()[0]
        raise RuntimeError("repro serve did not announce its URL in time")

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (VmHWM), in MiB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM, wait for the graceful drain, kill only as a last resort."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=SERVER_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        elif self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def own_peak_rss_mb() -> float:
    """This process's peak resident set, in MiB (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class PeakRss:
    """Peak RSS of the serving process once a fixed number of requests is
    answered (or at the end of the run, if it answers fewer).

    A timed run answers more requests on faster code; reading the peak at
    a fixed count keeps that extra work from reading as a memory cost.
    """

    def __init__(self, read: Callable[[], float], after: int):
        self.read = read
        self.after = after
        self.value: float | None = None

    def answered(self, count: int) -> None:
        """Call with the running total of answered requests."""
        if count == self.after:
            self.value = self.read()

    def result(self) -> float:
        return self.value if self.value is not None else self.read()


# ---------------------------------------------------------------------------
# Closed-loop samples and statistics
# ---------------------------------------------------------------------------
@dataclass
class Sample:
    """One request as the client saw it."""

    kind: str
    seconds: float
    ok: bool = True
    problem: str = ""
    traced: bool = False


@dataclass
class Traffic:
    """Everything a timed closed loop produced."""

    samples: list[Sample] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for sample in self.samples if not sample.ok)

    def fail(self, index: int, problem: str) -> None:
        """Count an already-timed request as failed (a check it missed)."""
        sample = self.samples[index]
        if sample.ok:
            sample.ok = False
            sample.problem = problem


class RequestFailed(Exception):
    """A request that got no usable reply (non-2xx or transport error)."""


def post(client, spans, endpoint: str, request, response_type):
    """One POST through the public client, timed and (maybe) traced.

    Returns ``(response, cache_status, seconds)``; raises
    :class:`RequestFailed` on a non-2xx reply, a transport error or a reply
    that does not decode, with the elapsed time attached, so the caller
    counts it rather than abort.
    """
    from repro.server import MatchServerError

    started = time.perf_counter()
    try:
        with spans.span("request"):
            with spans.span("server.transport"):
                payload = client.post_json(endpoint, request.to_dict())
            cache_status = client.last_cache_status
            with spans.span("server.client_decode_ms"):
                response = response_type.from_dict(payload)
    except MatchServerError as exc:
        raise RequestFailed(f"http-{exc.status}", time.perf_counter() - started) from exc
    except OSError as exc:
        raise RequestFailed("transport", time.perf_counter() - started) from exc
    except Exception as exc:  # a malformed envelope, a truncated body, ...
        raise RequestFailed(
            f"error-{type(exc).__name__}", time.perf_counter() - started) from exc
    return response, cache_status, time.perf_counter() - started


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``.

    ``layer`` holds the per-layer counts and ratios the workload measured
    itself; timings come from ``spans``.  ``server_delta`` is the server's
    counters over the traced traffic (None for in-process workloads).
    """

    traffic: Traffic
    setup_seconds: list[float]
    rss_mb: float
    f1: float
    details: dict[str, Any] = field(default_factory=dict)
    spans: "SpanLog | None" = None
    server_delta: dict[str, Any] | None = None
    layer: dict[str, float] = field(default_factory=dict)


def percentile(values: list[float], fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def latency_metrics(traffic: Traffic) -> tuple[dict[str, float], dict[str, Any]]:
    """Mean latency (ms) and throughput over a closed loop, plus counts.

    The median and p90 go into the counts, with the sample counts behind
    them, but are not reported as metrics.  A shared host can run in two
    speed states far apart, each lasting seconds to minutes, so request
    latencies form two clusters, and a percentile jumps from one cluster
    to the other whenever the share of slow time in a run crosses it.
    The mean moves smoothly with that share.
    """
    latencies = [sample.seconds for sample in traffic.samples]
    metrics = {
        "mean_ms": statistics.fmean(latencies) * 1000.0,
        "throughput_rps": len(latencies) / traffic.wall_seconds,
    }
    p90_ms = percentile(latencies, 0.90) * 1000.0
    counts: dict[str, Any] = {
        "n": len(latencies),
        "p50_ms": statistics.median(latencies) * 1000.0,
        "p90_ms": p90_ms,
        "beyond_p90": sum(1 for value in latencies if value * 1000.0 > p90_ms),
    }
    by_kind: dict[str, list[float]] = {}
    for sample in traffic.samples:
        by_kind.setdefault(sample.kind, []).append(sample.seconds)
    counts["by_kind"] = {
        kind: {"n": len(values), "p50_ms": statistics.median(values) * 1000.0,
               "max_ms": max(values) * 1000.0}
        for kind, values in sorted(by_kind.items())
    }
    return metrics, counts


def timed_setup(
    build: Callable[[Path], Any],
    teardown: Callable[[Any], None],
    work: Path,
) -> tuple[Any, list[float]]:
    """Run ``build`` :data:`SETUP_REPETITIONS` times; keep the last state.

    Each repetition starts from an empty directory, so every one pays the
    full set-up; the median of the timings is ``setup_s``.
    """
    timings: list[float] = []
    state = None
    for repetition in range(SETUP_REPETITIONS):
        if state is not None:
            teardown(state)
            state = None
        directory = work / f"setup{repetition}"
        directory.mkdir()
        started = time.perf_counter()
        state = build(directory)
        timings.append(time.perf_counter() - started)
    # The benchmark's own inputs (schemata, pair pools, recordings) would
    # otherwise be rescanned by every full collection during the timed
    # loop, charging the program for the benchmark's heap.
    gc.collect()
    gc.freeze()
    return state, timings


# ---------------------------------------------------------------------------
# Benchmark-owned spans (the traced run)
# ---------------------------------------------------------------------------
class SpanLog:
    """Spans recorded by the benchmark around its calls into each layer.

    A span is ``(id, parent, name, request, start, end)``; spans of one
    request share the request id (the root span's id).  Spans stay in
    memory and are written out once, at the end of the run.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, int, float, float]] = []
        self._ids = itertools.count()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent, request = stack[-1] if stack else (None, span_id)
        stack.append((span_id, request))
        started = time.perf_counter()
        try:
            yield
        finally:
            ended = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, request, started, ended))

    def _child_time(self) -> dict[int, float]:
        """Per span id, the summed duration of its direct children."""
        child_time: dict[int, float] = {}
        for _, parent, _, _, started, ended in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (ended - started)
        return child_time

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus its children's."""
        child_time = self._child_time()
        by_name: dict[str, list[float]] = {}
        for span_id, _, name, _, started, ended in self.spans:
            by_name.setdefault(name, []).append(
                (ended - started) - child_time.get(span_id, 0.0)
            )
        return by_name

    def roots(self, name: str) -> list[tuple[float, float]]:
        """(duration, self time) of every root span called ``name``."""
        child_time = self._child_time()
        return [
            (ended - started, (ended - started) - child_time.get(span_id, 0.0))
            for span_id, parent, root, _, started, ended in self.spans
            if parent is None and root == name
        ]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                [
                    {
                        "id": span_id, "parent": parent, "name": name,
                        "request": request, "start": started, "end": ended,
                    }
                    for span_id, parent, name, request, started, ended in self.spans
                ],
                handle,
            )


class NoSpans:
    """The untraced stand-in: ``span()`` records nothing."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


def span_schedule(spans: SpanLog | None, seed: int):
    """``i -> (spans, traced)`` for the i-th request of a closed loop.

    Untraced runs never trace.  The traced run traces about half of the
    requests, chosen by a seeded coin per request number rather than by
    parity, so which requests are traced never lines up with a workload's
    write cadence; traced and untraced requests share one mix and one
    server, and their difference is the tracing overhead.
    """
    quiet = NoSpans()
    if spans is None:
        return lambda index: (quiet, False)

    def schedule(index: int):
        if derive_seed(seed, "traced", index) % 2 == 0:
            return spans, True
        return quiet, False

    return schedule


def layer_values(
    spans: SpanLog, units: dict[str, str], names: Iterable[str]
) -> dict[str, float]:
    """Mean self time per call for every span named like a timing metric.

    A metric the traced run never entered reads 0.0: that layer did no
    work on this workload.
    """
    scale = {"ms": 1e3, "us": 1e6, "s": 1.0}
    self_times = spans.self_times()
    values: dict[str, float] = {}
    for name in names:
        unit = units[name]
        if unit not in scale:
            continue
        recorded = self_times.get(name)
        values[name] = statistics.fmean(recorded) * scale[unit] if recorded else 0.0
    return values


# ---------------------------------------------------------------------------
# Planted truth
# ---------------------------------------------------------------------------
def facet_truth(source, target) -> set[tuple[str, str]]:
    """Element pairs planted as one facet of one concept on both sides.

    Works on any two :class:`repro.synthetic.GeneratedSchema` objects; on
    a generated pair it reproduces the generator's ``truth_pairs``.
    """
    by_facet: dict[Any, list[str]] = {}
    for element_id, facet in target.facet_of_element.items():
        by_facet.setdefault(facet, []).append(element_id)
    return {
        (element_id, other)
        for element_id, facet in source.facet_of_element.items()
        for other in by_facet.get(facet, ())
    }


@dataclass
class F1Tally:
    """Micro-averaged F1 over many answered requests."""

    true_positives: int = 0
    predicted: int = 0
    relevant: int = 0

    def add(self, predicted: set, truth: set) -> None:
        self.true_positives += len(predicted & truth)
        self.predicted += len(predicted)
        self.relevant += len(truth)

    @property
    def f1(self) -> float:
        denominator = self.predicted + self.relevant
        return 2.0 * self.true_positives / denominator if denominator else 0.0


def same_scores(served, reference) -> bool:
    """Same correspondence pairs, scores equal to :data:`SCORE_TOLERANCE`."""
    mine = {(c.source_id, c.target_id): c.score for c in served}
    theirs = {(c.source_id, c.target_id): c.score for c in reference}
    return mine.keys() == theirs.keys() and all(
        abs(mine[pair] - theirs[pair]) <= SCORE_TOLERANCE for pair in mine
    )


# ---------------------------------------------------------------------------
# Provenance and output
# ---------------------------------------------------------------------------
def host_speed_ms() -> float:
    """Median time of a fixed pure-Python loop, in ms.

    Recorded before and after each run's traffic: on a shared machine the
    CPU speed drifts by tens of percent over minutes, and this is how a
    reader tells such drift from a change in the program.
    """
    timings = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value
        timings.append(time.perf_counter() - started)
    return statistics.median(timings) * 1000.0


def source_digest() -> str:
    """SHA-256 over the program's sources: identifies the code measured."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    """The checkout's commit, or None where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def provenance(seed: int) -> dict[str, Any]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def print_result(
    workload: str,
    seed: int,
    trace: bool,
    metrics: dict[str, float],
    traffic: Traffic,
    details: dict[str, Any],
    spans: SpanLog | None,
) -> None:
    """Check the metric set against BENCHMARK.json, record, and print.

    Human-readable lines first (every metric with its unit and direction,
    then provenance); the last line is one JSON object with ``correct``,
    ``attempted``, ``failed`` and ``metrics``.
    """
    spec = load_spec()
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    expected = {entry["name"]: entry for entry in entries}
    if metrics.keys() != expected.keys():
        missing = sorted(expected.keys() - metrics.keys())
        extra = sorted(metrics.keys() - expected.keys())
        raise RuntimeError(f"metric set mismatch: missing {missing}, extra {extra}")
    failures: dict[str, int] = {}
    for sample in traffic.samples:
        if not sample.ok:
            failures[sample.problem] = failures.get(sample.problem, 0) + 1
    record = {
        "workload": workload,
        "trace": trace,
        "provenance": provenance(seed),
        "requests": {
            "attempted": traffic.attempted,
            "succeeded": traffic.attempted - traffic.failed,
            "failed": traffic.failed,
            "failed_ratio": traffic.failed / traffic.attempted,
            "failures": failures,
        },
        "metrics": {
            name: {"value": value, "unit": expected[name]["unit"],
                   "better": expected[name]["better"]}
            for name, value in metrics.items()
        },
        **details,
    }
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    results = WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    if spans is not None:
        spans.dump(WORK_ROOT / "traces" / f"{stem}.json")
    for name, value in metrics.items():
        entry = expected[name]
        print(f"{name:<34} {value:>14.6g} {entry['unit']:<14} ({entry['better']} is better)")
    print(f"requests: {json.dumps(record['requests'])}")
    print(f"provenance: {json.dumps(record['provenance'])}")
    for key, value in details.items():
        print(f"{key}: {json.dumps(value)}")
    print(
        json.dumps(
            {
                "correct": traffic.failed == 0,
                "attempted": traffic.attempted,
                "failed": traffic.failed,
                "metrics": {
                    name: {"value": value, "unit": expected[name]["unit"]}
                    for name, value in metrics.items()
                },
            }
        ),
        flush=True,
    )
