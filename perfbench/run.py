"""Run one qhcube benchmark workload and print its metrics.

    python3 perfbench/run.py --workload quantum-ring --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a separate
traced run.  Lines before it give every metric by name and unit, and the
run's provenance.  End-to-end times are scaled to a nominal host speed
measured by reference work timed next to them (see ``perfbench.harness``);
each line gives the raw time beside the scaled one.  ``failed_frac`` (failed ops, listed known failures
included, over attempted ops) is 0 on three workloads, so it appears only in
those lines and in the provenance; the JSON ``failed`` counts unexpected
failures alone, which makes ``correct`` false.
Run it from anywhere; it uses the ``src/`` next to its own directory.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("quantum-ring", "localization", "blowup-ring", "cli-cold")

#: Fresh interpreters per set-up measurement; setup_s is their median.
SETUP_REPEATS = 9

#: Whole rounds in the traced run (fixed, so counts repeat exactly per seed).
TRACE_ROUNDS = {"quantum-ring": 2, "localization": 1, "blowup-ring": 2, "cli-cold": 1}

SETUP_PROBE = """import time
t0 = time.perf_counter()
import qhcube
from perfbench.run import workload
workload({name!r}, {seed}).setup()
print(time.perf_counter() - t0)
"""

IMPORT_PROBE = """import time
t0 = time.perf_counter()
import qhcube.cli
print(time.perf_counter() - t0)
"""


def workload(name: str, seed: int):
    from perfbench.wl_blowup import BlowupRingWorkload
    from perfbench.wl_cli import CliColdWorkload
    from perfbench.wl_localization import LocalizationWorkload
    from perfbench.wl_quantum import QuantumRingWorkload

    kinds = {"quantum-ring": QuantumRingWorkload, "localization": LocalizationWorkload,
             "blowup-ring": BlowupRingWorkload, "cli-cold": CliColdWorkload}
    return kinds[name](seed)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _final_checks(w) -> tuple[list[str], str | None]:
    return w.final_checks() if hasattr(w, "final_checks") else ([], None)


def timed_run(name: str, seed: int, seconds: float) -> tuple[dict, list[str]]:
    from perfbench import harness as H

    code = IMPORT_PROBE if name == "cli-cold" else SETUP_PROBE.format(name=name, seed=seed)
    reference = H.BARE if name == "cli-cold" else H.LOOP
    setup_raw, setup_s = H.timed_child_median(code, SETUP_REPEATS, reference)
    w = workload(name, seed)
    w.setup()
    tally = H.Tally()
    H.run_rounds(w.rounds(), seconds, tally, reference)
    rss = H.peak_rss_mb(children=name == "cli-cold")
    problems, note = _final_checks(w)
    failed = len(tally.failures) + len(problems)
    times = {}
    for label, latencies in (("scaled", tally.scaled), ("raw", tally.latencies)):
        p50, _ = H.percentile(latencies, 50)
        p90, beyond = H.percentile(latencies, 90)
        times[label] = (len(latencies) / math.fsum(latencies), p50 * 1e3, p90 * 1e3)
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "ops_per_s": _metric(times["scaled"][0], "ops/s"),
        "op_p50_ms": _metric(times["scaled"][1], "ms"),
        "op_p90_ms": _metric(times["scaled"][2], "ms"),
        "peak_rss_mb": _metric(rss, "MB"),
    }
    raw = (setup_raw, *times["raw"])
    failed_frac = (len(tally.failures) + tally.known) / tally.attempted
    lines = [f"{name}  {key}  {m['value']:.6g} {m['unit']}" for key, m in metrics.items()]
    for i, value in enumerate(raw):
        lines[i] += f"  (raw {value:.6g})"
    lines[3] += f"  ({tally.attempted} samples, {beyond} beyond p90)"
    lines.append(f"{name}  failed_frac  {failed_frac:.6g} ratio  "
                 f"({len(tally.failures) + tally.known} of {tally.attempted} ops failed, "
                 f"{tally.known} of them listed known failures)")
    lines += [f"{name}  FAILED  {f}" for f in (tally.failures + problems)[:20]]
    prov = H.provenance(name, seed, False, tally, reference)
    prov["raw"] = dict(zip(list(metrics)[:4], raw))
    prov["second_oracle"] = note
    prov["failed_frac"] = failed_frac
    prov["known_failures"] = tally.known
    lines.append(json.dumps({"provenance": prov}))
    result = {"correct": failed == 0, "attempted": tally.attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def traced_run(name: str, seed: int) -> tuple[dict, list[str]]:
    from perfbench import harness as H
    from perfbench.anchors import run_anchors
    from perfbench.trace import Tracer
    from perfbench.wl_cli import contract_ok, replay

    rounds = TRACE_ROUNDS[name]
    counts = {"cli.timeouts": 0, "cli.contract_violations": 0}
    untraced, traced = H.Tally(), H.Tally()
    tracer = Tracer()
    if name == "cli-cold":
        w = workload(name, seed)
        ops = [op for _, ops in zip(range(rounds), w.rounds()) for op in ops]
        cold = H.Tally()
        replayable = []
        for op in ops:
            _, done = H.run_op(op, cold)
            counts["cli.timeouts"] += done.timed_out
            counts["cli.contract_violations"] += not done.timed_out and not contract_ok(done)
            if not done.timed_out:
                replayable.append(op)
        # The first in-process pass fills the program's caches; it is not timed.
        for tally, trace in ((H.Tally(), None), (untraced, None), (traced, tracer)):
            with tracer.patch() if trace else nullcontext():
                for op in replayable:
                    argv = op.argv
                    H.run_op(H.Op(op.kind, lambda argv=argv: replay(argv), op.check, op.known),
                             tally, tracer=trace)
        attempted, failures = cold.attempted, cold.failures + untraced.failures + traced.failures
    else:
        for tally, trace in ((untraced, None), (traced, tracer)):
            w = workload(name, seed)
            w.setup()
            with tracer.patch() if trace else nullcontext():
                for _, ops in zip(range(rounds), w.rounds()):
                    for op in ops:
                        H.run_op(op, tally, tracer=trace)
        attempted, failures = traced.attempted, untraced.failures + traced.failures
    anchors, wrong = run_anchors()
    failures += [f"{a}: output disagrees with the oracle" for a in wrong]
    interpreter = H.wall_child_median([sys.executable, "-c", "pass"], SETUP_REPEATS)
    cold_import = H.wall_child_median([sys.executable, "-c", "import qhcube.cli"], SETUP_REPEATS)

    metrics = {key: _metric(v, unit) for key, (v, unit) in tracer.metrics().items()}
    metrics["cli.interpreter_s"] = _metric(interpreter, "s")
    metrics["cli.import_s"] = _metric(cold_import - interpreter, "s")
    for key, v in counts.items():
        metrics[key] = _metric(v, "count")
    metrics["trace.untraced_s"] = _metric(untraced.op_time, "s")
    metrics["trace.traced_s"] = _metric(traced.op_time, "s")
    metrics["trace.overhead_frac"] = _metric(traced.op_time / untraced.op_time - 1, "ratio")
    for key, v in anchors.items():
        metrics[key] = _metric(v, "s")
    lines = [f"{name}  {key}  {m['value']:.6g} {m['unit']}" for key, m in metrics.items()]
    lines += [f"{name}  FAILED  {f}" for f in failures[:20]]
    prov = H.provenance(name, seed, True, traced)
    prov["trace_rounds"] = rounds
    lines.append(json.dumps({"provenance": prov}))
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return result, lines


def run_all(args) -> int:
    """Every workload, each in its own interpreter, one after the other."""
    from perfbench import harness as H

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = H.run_child(argv, 900.0)
        lines = done.out.strip().splitlines()
        if done.code != 0 or not lines:
            print(done.err, file=sys.stderr)
            return 1
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = m
    print(json.dumps(combined), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qhcube" / "__init__.py").is_file():
        print(f"error: no qhcube sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import qhcube

    if Path(qhcube.__file__).resolve().parent != SRC / "qhcube":
        print(f"error: imported qhcube from {qhcube.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.trace:
        result, lines = traced_run(args.workload, args.seed)
    else:
        result, lines = timed_run(args.workload, args.seed, args.seconds)
    from perfbench.harness import emit

    emit(lines, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
