"""Shared plumbing: spans, percentiles, memory, host record, result line.

Every workload module exposes ``run(ctx) -> Outcome``.  ``run.py`` builds
the :class:`Context`, calls the workload, and hands the outcome to
:func:`emit`, which prints one line per metric (name, value, unit) and,
as the last line of standard output, the JSON result object.

Metric names and units come from ``BENCHMARK.json`` at the checkout root,
so the declared set and the printed set cannot drift apart: :func:`emit`
refuses to print a result whose metric names differ from the declaration.
"""

from __future__ import annotations

import bisect
import ctypes
import hashlib
import json
import math
import os
import platform
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from speedprobe import PERIOD_S, REFERENCE_S, SLOWDOWN_EXPONENT

#: ``prctl`` option: the signal a child gets when its parent exits.
PR_SET_PDEATHSIG = 1


class BenchFailure(Exception):
    """The benchmark cannot produce a result (missing program, bad set-up)."""


@dataclass
class Context:
    """What a workload gets: its seed, its time budget and where to write."""

    root: Path
    seed: int
    seconds: float
    trace: bool
    out_dir: Path
    workload: str
    #: The CPU this process is pinned to, and another one if there is one.
    cpu: int = 0
    spare_cpu: Optional[int] = None
    #: Spans of the traced run (``None`` on the untraced run).
    tracer: Optional["Tracer"] = None


@dataclass
class Outcome:
    """A workload's verdict and its measured metrics."""

    attempted: int
    failed: int
    #: Human-readable reasons for every failed or wrong op.
    problems: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    #: Extra facts for the run record (sample counts, ladder steps, ...).
    notes: dict[str, Any] = field(default_factory=dict)


# -- spans ---------------------------------------------------------------------


class Tracer:
    """In-memory span recorder: name, start, end, parent, op id.

    Spans nest through a stack, so it serves one thread; spans measured on
    other threads are appended afterwards with :meth:`add`.  Nothing is
    written until :meth:`dump` at the end of the run.
    """

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self.op: Optional[int] = None

    @contextmanager
    def span(self, name: str) -> Iterator[dict[str, Any]]:
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, op: Optional[int]) -> None:
        """Record a span measured elsewhere (a request on a client thread)."""
        self.spans.append(
            {"name": name, "start": start, "end": end, "parent": None, "op": op}
        )

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name.

        Self time is a span's duration minus the part of it that its child
        spans cover.  Children of one parent run one after another on the
        parent's thread, so the covered part is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for record in self.spans:
            parent = record["parent"]
            if parent is not None:
                covered[parent] += record["end"] - record["start"]
        totals: dict[str, float] = {}
        for position, record in enumerate(self.spans):
            own = record["end"] - record["start"] - covered[position]
            totals[record["name"]] = totals.get(record["name"], 0.0) + own
        return totals

    def durations(self, name: str) -> list[float]:
        return [
            record["end"] - record["start"]
            for record in self.spans
            if record["name"] == name
        ]

    def dump(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


# -- host speed ----------------------------------------------------------------


def pin_cpus() -> tuple[int, Optional[int]]:
    """Pin this process to one CPU; return it and a spare CPU, if any."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[0], cpus[1] if len(cpus) > 1 else None


def child_setup(cpu: int) -> Callable[[], None]:
    """``preexec_fn`` for a child: pin it to ``cpu``; SIGTERM it if we die."""

    def setup() -> None:
        os.sched_setaffinity(0, {cpu})
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_PDEATHSIG, signal.SIGTERM)

    return setup


class OpClock:
    """Raw op times and their monotonic windows, normalized afterwards."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.windows: list[tuple[float, float]] = []

    def record(self, start: float, seconds: float) -> None:
        """One op that began at ``time.monotonic()`` ``start``."""
        self.raw.append(seconds)
        self.windows.append((start, start + seconds))


class SpeedLog:
    """Samples written by a ``speedprobe`` monitor process."""

    #: Samples this far outside an interval still describe its speed: two
    #: and a half sampling periods, so even a short interval has about five.
    MARGIN_S = 2.5 * PERIOD_S

    def __init__(self, path: Path) -> None:
        self._samples: list[tuple[float, float, float]] = []
        for line in path.read_text().splitlines():
            moment, seconds, steal = line.split()
            self._samples.append((float(moment), float(seconds), float(steal)))
        if not self._samples:
            raise BenchFailure(f"no speed samples in {path}")
        self._moments = [sample[0] for sample in self._samples]

    def factor(self, start: float, end: float) -> float:
        """The speed factor of ``[start, end]``.

        ``REFERENCE_S`` over the mean probe around the interval, to the
        power ``SLOWDOWN_EXPONENT``.
        """
        near = [
            seconds for moment, seconds, _steal in self._samples
            if start - self.MARGIN_S <= moment <= end + self.MARGIN_S
        ]
        if not near:
            near = [min(self._samples, key=lambda s: abs(s[0] - start))[1]]
        return (REFERENCE_S * len(near) / sum(near)) ** SLOWDOWN_EXPONENT

    def _steal_at(self, moment: float) -> float:
        """Cumulative steal at ``moment``, interpolated between samples."""
        after = bisect.bisect_left(self._moments, moment)
        if after == 0:
            return self._samples[0][2]
        if after == len(self._samples):
            return self._samples[-1][2]
        (t0, _, s0), (t1, _, s1) = self._samples[after - 1], self._samples[after]
        return s0 + (s1 - s0) * (moment - t0) / (t1 - t0) if t1 > t0 else s1

    def steal(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` the hypervisor did not run the CPU."""
        return max(0.0, self._steal_at(end) - self._steal_at(start))

    def normalized(self, seconds: float, start: float, end: float) -> float:
        """An interval's host-normalized seconds: less steal, speed-scaled."""
        return max(0.0, seconds - self.steal(start, end)) * self.factor(start, end)

    def normalize(self, raw: list[float], windows: list) -> list[float]:
        return [
            self.normalized(seconds, start, end)
            for seconds, (start, end) in zip(raw, windows)
        ]


class SpeedMonitor:
    """``speedprobe`` processes on one CPU: the probe, and maybe a spinner.

    Use as a context manager around the measured work; :meth:`stop` ends
    the processes and returns their :class:`SpeedLog`.  The spinner is for
    a CPU that the measured work leaves idle between requests.
    """

    def __init__(self, ctx: Context, cpu: int, spin: bool = False) -> None:
        self.path = ctx.out_dir / f"{ctx.workload}-seed{ctx.seed}-speed.log"
        self.path.write_text("")
        modes = [["--out", str(self.path)]] + ([["--spin"]] if spin else [])
        script = str(Path(__file__).with_name("speedprobe.py"))
        self.procs = [
            subprocess.Popen(
                [sys.executable, script, "--cpu", str(cpu), *mode],
                preexec_fn=child_setup(cpu),
            )
            for mode in modes
        ]
        # Wait for the first sample, so the measured work is covered.
        deadline = time.monotonic() + 30
        while not self.path.read_text() and time.monotonic() < deadline:
            time.sleep(0.01)

    def stop(self) -> SpeedLog:
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            code = proc.wait(timeout=30)
            if code != 0:
                raise BenchFailure(f"speed monitor exited with code {code}")
        return SpeedLog(self.path)

    def kill(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def __enter__(self) -> "SpeedMonitor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.kill()


# -- string-hash orders ----------------------------------------------------------

#: The string-hash orders (``PYTHONHASHSEED``) an untraced in-process run
#: samples, one child process each.  The program's speed depends on the
#: order in which sets of strings iterate: the same WG-Log closure takes
#: 0.6 s under one order and 1.1 s under another.  A single random order
#: per run would put that spread into every run-to-run comparison; a fixed
#: set of orders per run keeps it out, and every figure still covers
#: several orders rather than one lucky one.
HASH_SEEDS = (0, 1, 2, 3)


@dataclass
class Part:
    """What one measuring child reports: its samples and its verdict."""

    raw: list[float]
    windows: list[tuple[float, float]]
    setup_raw: list[float]
    setup_windows: list[tuple[float, float]]
    failed: int
    problems: list[str]
    peak_rss_mb: float

    @classmethod
    def of(cls, clock: OpClock, setup_clock: OpClock, failed: int,
           problems: list[str]) -> "Part":
        return cls(clock.raw, clock.windows, setup_clock.raw,
                   setup_clock.windows, failed, problems, peak_rss_mb())


def part_main(measure: Callable[[int, float, Any], Part]) -> None:
    """Entry point of a measuring child.

    ``<script> --seed S --seconds T --shared JSON`` calls
    ``measure(S, T, shared)`` and prints the :class:`Part` as JSON.
    """
    import argparse

    parser = argparse.ArgumentParser(description="one string-hash order")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--shared", default="null")
    args = parser.parse_args()
    part = measure(args.seed, args.seconds, json.loads(args.shared))
    print(json.dumps(part.__dict__))


def measure_in_hash_orders(
    ctx: Context,
    script: Path,
    shared: Any = None,
    hash_seeds: tuple[int, ...] = HASH_SEEDS,
) -> tuple[list[Part], SpeedLog]:
    """Run ``script``'s untraced ops once per order in ``hash_seeds``.

    The children run on this process's CPU and share ``ctx.seconds``;
    ``shared`` (JSON) carries what the parent prepared once for all of
    them, such as reference digests.  A monitor probes the CPU meanwhile;
    the returned log normalizes the children's samples.
    """
    share = ctx.seconds / len(hash_seeds)
    parts = []
    with SpeedMonitor(ctx, ctx.cpu) as monitor:
        for hash_seed in hash_seeds:
            env = program_env(ctx.root)
            env["PYTHONHASHSEED"] = str(hash_seed)
            completed = subprocess.run(
                [sys.executable, str(script), "--seed", str(ctx.seed),
                 "--seconds", repr(share), "--shared", json.dumps(shared)],
                cwd=ctx.root, env=env, capture_output=True, text=True,
                timeout=60 + 3 * share, check=False,
                preexec_fn=child_setup(ctx.cpu),
            )
            if completed.returncode != 0:
                raise BenchFailure(
                    f"{script.name} under PYTHONHASHSEED={hash_seed} failed: "
                    f"{completed.stderr[-800:]}"
                )
            parts.append(Part(**json.loads(completed.stdout.splitlines()[-1])))
        log = monitor.stop()
    return parts, log


def outcome_of_parts(parts: list[Part], log: SpeedLog) -> Outcome:
    """Pool the children's samples into the end-to-end metrics.

    Each hash order weighs the same however many ops fitted in its share
    of the run, as every order is equally likely in a real process.
    """
    raw = [part.raw for part in parts]
    latencies = [log.normalize(part.raw, part.windows) for part in parts]
    setups = [
        value for part in parts
        for value in log.normalize(part.setup_raw, part.setup_windows)
    ]
    mean_latency = sum(sum(values) / len(values) for values in latencies) / len(parts)
    attempted = sum(len(values) for values in latencies)
    outcome = Outcome(
        attempted=attempted,
        failed=sum(part.failed for part in parts),
        problems=[problem for part in parts for problem in part.problems],
    )
    outcome.notes = {
        "ops": attempted,
        "ops_per_hash_order": [len(part.raw) for part in parts],
        "raw_p50_ms_per_hash_order": [1000 * median(part.raw) for part in parts],
        "steal_s": log.steal(parts[0].windows[0][0], parts[-1].windows[-1][1]),
        "raw_latency_p50_ms": 1000 * weighted_percentile(raw, 0.50),
        "raw_latency_p95_ms": 1000 * weighted_percentile(raw, 0.95),
        "setup_samples_s": setups,
        "raw_setup_samples_s": [v for part in parts for v in part.setup_raw],
    }
    outcome.end_to_end = {
        "setup_s": median(setups),
        "latency_p50_ms": 1000 * weighted_percentile(latencies, 0.50),
        "latency_p95_ms": 1000 * weighted_percentile(latencies, 0.95),
        "ops_per_s": ratio(1.0, mean_latency),
        "peak_rss_mb": max(part.peak_rss_mb for part in parts),
    }
    return outcome


# -- statistics ----------------------------------------------------------------


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1) of a non-empty list."""
    if not values:
        raise BenchFailure("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def weighted_percentile(groups: list[list[float]], share: float) -> float:
    """Nearest-rank percentile of pooled groups, each group weighing 1."""
    weighted = sorted(
        (value, 1.0 / len(group)) for group in groups for value in group
    )
    if not weighted:
        raise BenchFailure("percentile of an empty sample")
    target = share * sum(weight for _value, weight in weighted)
    reached = 0.0
    for value, weight in weighted:
        reached += weight
        if reached >= target - 1e-9:
            return value
    return weighted[-1][0]


def median(values: list[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- processes and memory ------------------------------------------------------


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    status = Path(f"/proc/{pid if pid is not None else 'self'}/status")
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchFailure(f"no VmHWM line in {status}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of a process and all its threads."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    # Fields after the parenthesised command name; utime and stime are
    # fields 14 and 15 of the line.
    fields = stat.rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def program_env(root: Path) -> dict[str, str]:
    """Environment for a child process that must import the checkout's code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def source_digest(root: Path) -> str:
    """SHA-256 over the program's source files (names and contents)."""
    hasher = hashlib.sha256()
    base = root / "src"
    for path in sorted(base.rglob("*.py")):
        hasher.update(str(path.relative_to(base)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def git_commit(root: Path) -> Optional[str]:
    """The checkout's commit, or ``None`` where it is not a git repository."""
    if not (root / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() or None


def host_record(ctx: Context) -> dict[str, Any]:
    """Seed and host facts, so a claim can be re-checked on another seed."""
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": ctx.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(ctx.root),
        "src_sha256": source_digest(ctx.root),
        "platform": platform.platform(),
    }


# -- declaration and result ----------------------------------------------------


def load_declaration(root: Path) -> dict[str, Any]:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        raise BenchFailure(f"{path} is missing")
    return json.loads(path.read_text(encoding="utf-8"))


def emit(
    declaration: dict[str, Any], ctx: Context, outcome: Outcome
) -> dict[str, Any]:
    """Print every metric by name and unit, then the JSON result line."""
    section = "per_layer" if ctx.trace else "end_to_end"
    declared = {entry["name"]: entry["unit"] for entry in declaration[section]}
    measured = outcome.per_layer if ctx.trace else outcome.end_to_end
    if set(measured) != set(declared):
        raise BenchFailure(
            f"{section} metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(measured))}, "
            f"undeclared {sorted(set(measured) - set(declared))}"
        )
    correct = outcome.failed == 0 and not outcome.problems
    for problem in outcome.problems[:20]:
        print(f"WRONG: {problem}")
    print(
        f"{ctx.workload} seed={ctx.seed} trace={int(ctx.trace)}: "
        f"{outcome.attempted} ops, {outcome.failed} failed, "
        f"correct={correct}"
    )
    for name in declared:
        print(f"  {name:32s} {measured[name]:14.6g} {declared[name]}")
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(measured[name]), "unit": declared[name]}
            for name in declared
        },
    }
    record = {
        "host": host_record(ctx),
        "result": result,
        "notes": outcome.notes,
        "problems": outcome.problems,
    }
    stem = f"{ctx.workload}-seed{ctx.seed}-trace{int(ctx.trace)}"
    record_path = ctx.out_dir / f"{stem}.json"
    record_path.write_text(json.dumps(record, indent=2, default=str))
    if ctx.tracer is not None:
        ctx.tracer.dump(ctx.out_dir / f"{stem}.spans.json")
    print(f"record: {record_path.relative_to(ctx.root)}")
    sys.stdout.flush()
    return result
