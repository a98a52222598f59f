"""Closed-loop runner, host-speed scaling, statistics, set-up probes and provenance.

One client: the next op starts only after the last one returned.  Each op is
timed alone; its oracle check runs after the clock stops, so the timed
section is the sum of op latencies.

The speed of a shared host drifts by a quarter or more within a minute, and
every wall time drifts with it.  So a timed run also times a fixed piece of
reference work (a ``Reference``) between windows of op time, and scales each
window's latencies by the reference's nominal time over the median of its
timings around the window: reported times read as they would on a host where
the reference work takes its nominal time.  In-process ops are scaled by a
pure-Python loop; ``python -m qhcube`` children by a bare interpreter start,
which tracks them far better than any in-process loop.  The raw times are
printed beside the scaled ones.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Runs end on the whole round that brings the timed section nearest to the
#: requested seconds, once at least this many ops ran (10 samples beyond p90).
MIN_OPS = 110

#: Hard stop for one run, whatever the rounds: the run must end in 180 s.
MAX_WALL_S = 120.0

#: An in-process op slower than this counts as failed.
OP_LIMIT_S = 30.0

#: Reference timings on each side of a window that set its scale factor.
SMOOTH = 3


@dataclass
class Op:
    """One call into the program, with the check of its output.

    ``check`` returns None when the output is right, else what is wrong.
    ``known`` tells whether a wrong output is the listed known failure.
    """

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    known: Callable[[Any], bool] | None = None
    argv: list[str] | None = None


def reference_work() -> tuple[int, Fraction]:
    """Fixed pure-Python work of the program's kind: rationals and tuple-keyed dicts."""
    table: dict = {}
    acc = Fraction(0)
    for i in range(1, 500):
        key = ((i * 37) & 511, i % 7)
        table[key] = table.get(key, 0) + i
        acc += Fraction(i % 13 - 6, i % 7 + 1)
    return len(table), acc


def reference_s(repeats: int = 3) -> float:
    """Median time of the reference loop, now."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def bare_start_s() -> float:
    """Wall time of one bare ``python -c pass`` child, now."""
    return wall_child_median([sys.executable, "-c", "pass"], 1)


@dataclass(frozen=True)
class Reference:
    """Reference work timed next to the program's, and the time it is scaled to.

    ``nominal_s`` is about the work's median on a 2-vCPU Xeon VM.  ``window_s``
    is the op time between two timings.  ``in_child`` is code that prints the
    work's time from inside a set-up probe; without it the probe is scaled by
    a timing taken just before it.
    """

    name: str
    measure: Callable[[], float]
    nominal_s: float
    window_s: float
    in_child: str | None = None


LOOP = Reference("reference_loop", reference_s, 0.0025, 0.2,
                 "from perfbench.harness import reference_s\nprint(reference_s(5))\n")
BARE = Reference("bare_start", bare_start_s, 0.065, 0.5)


@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)
    #: Latencies scaled to the nominal host (timed runs only); a time-limited
    #: op keeps its raw latency, which is the limit, not work.
    scaled: list[float] = field(default_factory=list)
    limited: set[int] = field(default_factory=set)
    #: Reference timings, and the op count at the end of each window
    #: between two of them.
    references: list[float] = field(default_factory=list)
    windows: list[int] = field(default_factory=list)
    by_kind: dict[str, int] = field(default_factory=dict)
    known: int = 0
    failures: list[str] = field(default_factory=list)
    rounds: int = 0
    check_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def op_time(self) -> float:
        return math.fsum(self.latencies)


def run_op(op: Op, tally: Tally, limit: float = OP_LIMIT_S, tracer=None) -> tuple[str, Any]:
    """Time one op, check it, and record it; returns (status, result).

    With a tracer, the op runs as one trace of the tracer.
    """
    start = time.perf_counter()
    try:
        if tracer is None:
            result = op.call()
        else:
            with tracer.trace(op.kind):
                result = op.call()
    except Exception as exc:  # a raising op is a failed op, not a harness error
        result = exc
    elapsed = time.perf_counter() - start
    checked = time.perf_counter()
    if isinstance(result, Exception) and op.known is None:
        problem = f"raised {type(result).__name__}: {result}"
    else:
        problem = op.check(result)
    if problem is None and elapsed > limit:
        problem = f"took {elapsed:.1f}s, over the {limit}s limit"
    status = "ok"
    if problem is not None:
        if op.known is not None and op.known(result):
            status = "known"
            tally.known += 1
        else:
            status = "fail"
            tally.failures.append(f"{op.kind}: {problem}")
    tally.check_s += time.perf_counter() - checked
    if getattr(result, "timed_out", False):
        tally.limited.add(len(tally.latencies))
    tally.latencies.append(elapsed)
    tally.by_kind[op.kind] = tally.by_kind.get(op.kind, 0) + 1
    return status, result


def scale_latencies(tally: Tally, reference: Reference) -> None:
    """Scale each window's latencies by the nominal over the median of the
    ``SMOOTH`` reference timings on each side of it."""
    tally.scaled = []
    start = 0
    for i, end in enumerate(tally.windows):
        near = tally.references[max(0, i + 1 - SMOOTH):i + 1 + SMOOTH]
        factor = reference.nominal_s / statistics.median(near)
        tally.scaled += [raw if j in tally.limited else raw * factor
                         for j, raw in enumerate(tally.latencies[start:end], start)]
        start = end


def run_rounds(rounds: Iterator[list[Op]], seconds: float, tally: Tally,
               reference: Reference = LOOP) -> None:
    """Run whole rounds for about ``seconds`` of (raw) op time, timing the
    reference between windows, then scale the latencies."""
    def close_window() -> None:
        tally.references.append(reference.measure())
        tally.windows.append(len(tally.latencies))

    wall = time.perf_counter()
    tally.references.append(reference.measure())
    window = 0.0
    try:
        for ops in rounds:
            for op in ops:
                run_op(op, tally)
                window += tally.latencies[-1]
                if window >= reference.window_s:
                    close_window()
                    window = 0.0
                if time.perf_counter() - wall > MAX_WALL_S:
                    tally.failures.append("run stopped at the wall-time cap")
                    return
            tally.rounds += 1
            # Another round of the mean length would end farther from ``seconds``.
            done = tally.op_time
            if tally.attempted >= MIN_OPS and done + done / tally.rounds / 2 >= seconds:
                return
    finally:
        if not tally.windows or tally.windows[-1] < len(tally.latencies):
            close_window()
        scale_latencies(tally, reference)


def percentile(values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def child_env() -> dict[str, str]:
    """Children import the checkout and keep bytecode caches, as an installed
    package would, so a cold call pays start-up and import, not compilation."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@dataclass
class Completed:
    code: int | None
    out: str
    err: str
    timed_out: bool
    elapsed: float


def run_child(argv: list[str], timeout: float) -> Completed:
    """Run one child to completion, or kill it at the time limit and reap it."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            argv,
            capture_output=True,
            text=True,
            env=child_env(),
            cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        return Completed(None, _text(exc.stdout), _text(exc.stderr), True,
                         time.perf_counter() - start)
    return Completed(proc.returncode, proc.stdout, proc.stderr, False,
                     time.perf_counter() - start)


def _text(data) -> str:
    if data is None:
        return ""
    return data.decode(errors="replace") if isinstance(data, bytes) else data


def timed_child_median(code: str, repeats: int, reference: Reference,
                       timeout: float = 60.0) -> tuple[float, float]:
    """Median of the time each fresh interpreter prints, raw and scaled.

    ``code`` prints its time on one line.  The scaled time is the raw one
    times the reference's nominal over its timing in or just before the child.
    """
    raw, scaled = [], []
    for _ in range(repeats):
        before = None if reference.in_child else reference.measure()
        done = run_child([sys.executable, "-c", code + (reference.in_child or "")], timeout)
        if done.code != 0:
            raise RuntimeError(f"set-up probe failed: {done.err.strip()[-300:]}")
        lines = done.out.strip().splitlines()
        took = float(lines[-2] if reference.in_child else lines[-1])
        timing = float(lines[-1]) if reference.in_child else before
        raw.append(took)
        scaled.append(took * reference.nominal_s / timing)
    return statistics.median(raw), statistics.median(scaled)


def wall_child_median(argv: list[str], repeats: int) -> float:
    values = []
    for _ in range(repeats):
        done = run_child(argv, 60.0)
        if done.code != 0:
            raise RuntimeError(f"probe {argv} failed: {done.err.strip()[-300:]}")
        values.append(done.elapsed)
    return statistics.median(values)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(workload: str, seed: int, trace: bool, tally: Tally,
               reference: Reference | None = None) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "rounds": tally.rounds,
        "samples": tally.attempted,
        "samples_by_kind": dict(sorted(tally.by_kind.items())),
        "timed_s": round(tally.op_time, 6),
        "check_s": round(tally.check_s, 6),
        "reference": None if reference is None else {
            "work": reference.name,
            "nominal_ms": reference.nominal_s * 1e3,
            "timings": len(tally.references),
            "quartiles_ms": _quartiles_ms(tally.references),
        },
    }


def _quartiles_ms(values: list[float]) -> list[float] | None:
    """First quartile, median and third quartile, in ms."""
    if len(values) < 2:
        return None
    return [round(v * 1e3, 4) for v in statistics.quantiles(values, n=4)]


def emit(lines: Iterable[str], result: dict) -> None:
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=False), flush=True)
