"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these out of the repository's default test collection.
"""

from __future__ import annotations

import itertools
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import qhcube  # noqa: E402

from perfbench import forms as F  # noqa: E402
from perfbench import harness as H  # noqa: E402
from perfbench import oracles as O  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402
from perfbench.wl_blowup import BlowupRingWorkload  # noqa: E402
from perfbench.wl_cli import FORMATS, SUBCOMMANDS, VARIANTS, CliColdWorkload, replay  # noqa: E402
from perfbench.wl_localization import LocalizationWorkload  # noqa: E402
from perfbench.wl_quantum import QuantumRingWorkload  # noqa: E402


# -- the oracles accept the program's outputs at n <= 3 ------------------------------


def test_quantum_oracle_accepts_program():
    w = QuantumRingWorkload(7)
    for n in (1, 2, 3):
        ring = qhcube.quantum_ring(n)
        for slot in range(20):
            a, b = w.random_class(n, slot), w.random_class(n, slot + 3)
            pa, pb = w.program(n, a), w.program(n, b)
            assert F.quantum_of(pa * pb, n) == O.q_mul(a, b)
            assert F.quantum_of(pa * pb, n) == O.sympy_q_mul(a, b, n)
            assert F.quantum_of(pa.cup(pb), n) == O.q_cup(a, b)
            assert pa.pairing(pb) == O.q_pairing(a, b, n)
            assert F.quantum_of(pa**3, n) == O.q_pow(a, 3, n)
            assert F.quantum_of(pa.seidel(), n) == O.q_seidel(a, n)
        for i, j, k in itertools.product(range(1 << n), repeat=3):
            for d in itertools.product((0, 1), repeat=n):
                query = qhcube.GWQuery(frozenset(O.members_of(i)), frozenset(O.members_of(j)),
                                       frozenset(O.members_of(k)),
                                       qhcube.SphereClass(d))
                assert qhcube.gw_coefficient(ring, query) == O.q_gw(n, i, j, k, d)
        assert w.check_solve(n, qhcube.solve_structure_constants(n)) is None


def test_localization_oracle_accepts_program():
    w = LocalizationWorkload(7)
    for n in (1, 2, 3):
        for m in range(1 << n):
            members = O.members_of(m)
            assert F.table_of(qhcube.basis_a(n, members), n) == O.loc_a(n, m)
            b = qhcube.basis_b(n, members)
            assert F.table_of(b, n) == O.loc_b(n, m)
            assert F.by_mask(b.decompose(), n) == O.loc_decompose(O.loc_b(n, m), n)
        assert [F.table_of(c, n) for c in qhcube.chern_series(n)] == O.loc_chern(n)
        for size in range(1, 6):
            _, s = w.combination(n, size)
            _, t = w.combination(n, 3)
            product = w.program(n, s) * w.program(n, t)
            assert F.table_of(product, n) == O.loc_mul(s, t)
            assert F.quantum_of(product.reduce_to_ordinary(), n) == O.loc_reduce(
                O.loc_mul(s, t), n)
            assert qhcube.gkm_check(n, product.values) is O.loc_gkm_ok(O.loc_mul(s, t), n)


def test_blowup_oracle_accepts_program():
    w = BlowupRingWorkload(7)
    for i in range(30):
        a, b = w.random_class(1 + i % 4), w.random_class(1 + (i + 1) % 4)
        pa, pb = w.program(a), w.program(b)
        assert F.blowup_of(pa * pb) == O.bl_mul(a, b)
        assert F.blowup_of(pa**4) == O.bl_pow(a, 4)
    term, c = (1, 2, 1), Fraction(-3, 2)
    assert F.blowup_of(w.program({term: c})**40) == w.powers.monomial_power(term, c, 40)
    assert qhcube.gw_sign_solver() == O.bl_gw_signs()
    assert qhcube.derive_chern_numbers() == O.BL_CHERN
    assert w.final_checks()[0] == []


def test_cli_oracles_accept_program_outputs():
    w = CliColdWorkload(7)
    for sub in SUBCOMMANDS:
        for variant in range(VARIANTS):
            for fmt in FORMATS:
                argv, expected = w.invocation(sub, variant, random.Random(variant).randint(1, 3))
                argv = ["--format", fmt, *argv]
                assert expected.check(fmt)(replay(argv)) is None, argv
    for _ in range(10):
        op = w.op("hostile", fmt="json")
        assert op.check(replay(op.argv)) is None, op.argv


# -- wrong results, timeouts and known failures are counted ---------------------------


def test_corrupted_result_counts_as_failed():
    w = QuantumRingWorkload(3)
    op = w.op("mul", 3)
    tally = H.Tally()
    assert H.run_op(op, tally)[0] == "ok"
    corrupted = H.Op(op.kind, lambda: op.call() + 1, op.check)
    assert H.run_op(corrupted, tally)[0] == "fail"
    assert tally.attempted == 2 and len(tally.failures) == 1

    cli = CliColdWorkload(3)
    op = cli.op("regular", "seidel", 0, "text")
    done = replay(op.argv)
    done.out = done.out.replace("q1", "q2")
    assert op.check(done) is not None


def test_sleeping_child_counts_as_timeout():
    tally = H.Tally()
    argv = [sys.executable, "-c", "import time; time.sleep(30)"]
    op = CliColdWorkload(1).op("regular", "seidel", 0, "text")
    sleeper = H.Op("seidel", lambda: H.run_child(argv, 0.5), op.check)
    status, done = H.run_op(sleeper, tally)
    assert done.timed_out and status == "fail"
    assert tally.latencies[0] < 10


def test_known_failure_is_counted_but_not_unexpected():
    cli = CliColdWorkload(1)
    op = cli.op("known", "nested-5000")
    tally = H.Tally()
    status, done = H.run_op(op, tally)
    assert done.code == 1 and status == "known"
    assert tally.known == 1 and not tally.failures


# -- host-speed scaling ---------------------------------------------------------------


def test_windows_scale_by_nominal_over_nearby_reference():
    reference = H.Reference("fixed", lambda: 0.0, 1.0, 0.1)
    tally = H.Tally(latencies=[1.0, 2.0, 3.0, 4.0], limited={3},
                    references=[2.0, 2.0, 4.0], windows=[2, 4])
    H.scale_latencies(tally, reference)
    # Both windows see the median of all three timings, 2.0; the time-limited
    # op keeps its raw latency.
    assert tally.scaled == [0.5, 1.0, 1.5, 4.0]


def test_run_covers_every_op_with_a_window():
    w = QuantumRingWorkload(2)
    tally = H.Tally()
    H.run_rounds(iter([[w.op("mul", 3, slot) for slot in range(H.MIN_OPS)]]), 0.0, tally)
    assert len(tally.scaled) == tally.attempted == H.MIN_OPS
    assert tally.windows[-1] == H.MIN_OPS
    assert len(tally.references) == len(tally.windows) + 1


# -- tracing --------------------------------------------------------------------------


def test_span_self_times_add_up_to_root():
    tracer = Tracer(keep=True)
    w = LocalizationWorkload(5)
    ops = [w.op("decompose", 3), w.op("reduce", 3), QuantumRingWorkload(5).op("solve", 3)]
    original = qhcube.quantum.QuantumClass.__mul__
    with tracer.patch():
        assert qhcube.quantum.QuantumClass.__mul__ is not original
        for op in ops:
            H.run_op(op, H.Tally(), tracer=tracer)
    assert qhcube.quantum.QuantumClass.__mul__ is original
    assert sum(tracer.self_ns.values()) + tracer.root_self_ns == tracer.root_ns
    assert tracer.calls["gkm.decompose"] == 2 and tracer.calls["quantum.solve"] == 1
    assert tracer.calls["linsolve.solve"] == 1 and tracer.counts["linsolve.equations"] > 0
    by_id = {span[1]: span for span in tracer.spans}
    for trace_id, _, parent, name, start, end in tracer.spans:
        if parent is not None:
            p = by_id[parent]
            assert p[0] == trace_id and p[4] <= start <= end <= p[5]
    roots = [s for s in tracer.spans if s[2] is None]
    assert len(roots) == len(ops)


# -- the command itself -------------------------------------------------------------------


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "quantum-ring",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and '"correct"' not in done.stdout


def test_same_seed_same_inputs():
    first = [op.argv for op in next(CliColdWorkload(11).rounds())]
    again = [op.argv for op in next(CliColdWorkload(11).rounds())]
    other = [op.argv for op in next(CliColdWorkload(12).rounds())]
    assert first == again and first != other
    assert QuantumRingWorkload(11).plan() == QuantumRingWorkload(11).plan()
