"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in the
captured output section) and enforces its runtime budget.
"""

import itertools
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from qhcube import (
    EquivariantClass,
    MomentAssignment,
    SubsetPoint,
    all_points,
    basis_a,
    basis_b,
    betti_numbers,
    chern_series,
    higher_order_infeasibility,
    moment_value,
    positivity_decomposition,
    quantum_ring,
    solve_structure_constants,
)
from qhcube.blowup import (
    BASIS,
    BlowupClass,
    REFERENCE_INVARIANTS,
    derive_chern_numbers,
    gw_sign_solver,
    seidel_blowup,
    stratum_from_invariants,
)
from qhcube.rings import ANY_DEGREE


@contextmanager
def criterion(num: int, description: str, budget_seconds: float):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL      {description}")
        raise
    elapsed = time.monotonic() - started
    print(f"criterion {num:2d} PASS {elapsed:7.3f}s {description}")
    assert elapsed < budget_seconds, (
        f"criterion {num} exceeded its {budget_seconds}s budget ({elapsed:.2f}s)"
    )


def subsets(n):
    for k in range(n + 1):
        yield from (frozenset(c) for c in itertools.combinations(range(1, n + 1), k))


def test_criterion_1_seidel_identity():
    with criterion(1, "Seidel action on the basis, n <= 6", 1.0):
        for n in range(1, 7):
            ring = quantum_ring(n)
            full = frozenset(range(1, n + 1))
            for i_set in subsets(n):
                expected = ring.x_set(full - i_set)
                for i in i_set:
                    expected = expected * ring.q(i)
                assert ring.x_set(i_set).seidel() == expected


def test_criterion_2_ring_presentation():
    with criterion(2, "x_i*x_i = q_i and square-free products classical, n <= 5", 5.0):
        for n in range(1, 6):
            ring = quantum_ring(n)
            for i in range(1, n + 1):
                assert ring.x(i) * ring.x(i) == ring.q(i)
            for i_set in subsets(n):
                indices = sorted(i_set)
                quantum = ring.one()
                classical = ring.one()
                for i in indices:
                    quantum = quantum * ring.x(i)
                    classical = classical.cup(ring.x(i))
                assert quantum == classical == ring.x_set(i_set)


def test_criterion_3_proof_replay():
    with criterion(3, "structure constants re-derived uniquely, n in {1,2,3}", 10.0):
        for n in (1, 2, 3):
            ring = quantum_ring(n)
            table = solve_structure_constants(n)
            assert len(table) == 2**n * n
            for i_set in subsets(n):
                for j in range(1, n + 1):
                    assert table[(i_set, j)] == ring.x_set(i_set) * ring.x(j)


def test_criterion_4_higher_order_infeasibility():
    with criterion(4, "infeasibility certificate empty, n <= 10; relaxed non-vacuous", 1.0):
        for n in range(1, 11):
            assert higher_order_infeasibility(n) == []
        assert higher_order_infeasibility(3, relaxed=True) != []


def test_criterion_5_equivariant_basis_suite():
    with criterion(5, "triangularity, duality, decompose round trip, n <= 4", 10.0):
        for n in range(1, 5):
            ring = quantum_ring(n)
            full = frozenset(range(1, n + 1))
            for i_set in subsets(n):
                a = basis_a(n, i_set)
                for j_set in subsets(n):
                    if len(j_set) <= len(i_set) and j_set != i_set:
                        assert a.restrict(j_set).is_zero()
                assert basis_b(n, i_set).reduce_to_ordinary() == ring.x_set(full - i_set)
            y = EquivariantClass.y_class(n)
            for i in range(1, n + 1):
                assert basis_b(n, full - {i}) == basis_a(n, [i]) + y
        rng = random.Random(8_128)
        from helpers import random_gkm_class

        for _ in range(100):
            n = rng.randint(1, 4)
            cls = random_gkm_class(rng, n)
            rebuilt = EquivariantClass.zero(n)
            for point, lam in cls.decompose().items():
                rebuilt = rebuilt + basis_a(n, point.members) * lam
            assert rebuilt == cls


def test_criterion_6_chern_classes():
    with criterion(6, "c_1 reduces to 2*sum(x_i); c_k GKM and degree 2k, n <= 4", 5.0):
        for n in range(1, 5):
            ring = quantum_ring(n)
            classes = chern_series(n)
            reduced = classes[0].reduce_to_ordinary()
            expected = ring.zero()
            for i in range(1, n + 1):
                expected = expected + 2 * ring.x(i)
            assert reduced == expected
            for k, c in enumerate(classes, start=1):
                assert c.satisfies_gkm()
                assert c.graded_degree() == 2 * k


def test_criterion_7_morse_combinatorics():
    with criterion(7, "Betti counts n <= 10; broken-line identities n <= 8", 5.0):
        import math

        for n in range(1, 11):
            assert betti_numbers(n) == [math.comb(n, k) for k in range(n + 1)]
        rng = random.Random(65_537)
        for n in range(1, 9):
            areas = MomentAssignment.of(
                [Fraction(rng.randint(1, 10), rng.randint(1, 5)) for _ in range(n)]
            )
            top = SubsetPoint.of(n, *range(1, n + 1))
            for p in all_points(n):
                v = p.broken_line_class()
                assert v.area(areas) == moment_value(top, areas) - moment_value(p, areas)
                assert v.chern_number() == n + p.weight_sum()


def test_criterion_8_quantum_positivity():
    with criterion(8, "tail q-positivity and degree jumps of four, 300 random pairs", 5.0):
        rng = random.Random(1_000_003)
        from helpers import random_homogeneous_quantum_class

        for _ in range(300):
            n = rng.randint(1, 4)
            a = random_homogeneous_quantum_class(rng, n, q_free=True)
            b = random_homogeneous_quantum_class(rng, n, q_free=True)
            classical, tail = positivity_decomposition(a, b)
            assert a * b == classical + tail
            da, db = a.graded_degree(), b.graded_degree()
            for x_mask, q_part in tail.terms:
                assert sum(q_part) >= 1
                if da is not ANY_DEGREE and db is not ANY_DEGREE:
                    assert da + db - 2 * x_mask.bit_count() == 4 * sum(q_part)


def test_criterion_9_blowup_example():
    with criterion(9, "blow-up ring: associativity, Seidel, degrees, GW signs", 1.0):
        one = BlowupClass.unit()
        b = BlowupClass.basis("b")
        f = BlowupClass.basis("f")
        bf = BlowupClass.basis("bf")
        e_cls = BlowupClass.novikov(1, 0)
        elements = [BlowupClass.basis(name) for name in BASIS]
        for x, y, z in itertools.product(elements, repeat=3):
            assert (x * y) * z == x * (y * z)
        assert seidel_blowup(f) == bf - b * e_cls
        assert derive_chern_numbers() == (1, 2)
        signs = gw_sign_solver()
        for p, q in itertools.product(("b", "f"), repeat=2):
            values = {k: signs[(p, q, k)] for k in ("b", "f")}
            assert stratum_from_invariants(values) == (
                BlowupClass.basis(p) * BlowupClass.basis(q)
            ).stratum(1, 0)
        gw_l = REFERENCE_INVARIANTS[("L", ("bf", "bf", "f"))]
        gw_f = REFERENCE_INVARIANTS[("F", ("bf", "b", "b"))]
        assert gw_l == gw_f == 1
        assert stratum_from_invariants({"f": gw_l}) == (bf * bf).stratum(1, 1)
        assert stratum_from_invariants({"b": gw_f}) == (bf * b).stratum(0, 1)


def test_criterion_10_cli_regression():
    with criterion(10, "golden CLI outputs with exit codes", 30.0):
        cases = [
            (["seidel", "--n", "2", "x1"], b"q1*x2\n", 0),
            (["certify", "--n", "5"], b"EMPTY\n", 0),
            (["blowup", "seidel", "f"], b"bf - b*eE\n", 0),
        ]
        for argv, expected, code in cases:
            proc = subprocess.run(
                [sys.executable, "-m", "qhcube", *argv], capture_output=True
            )
            assert proc.returncode == code
            assert proc.stdout == expected
            assert proc.stderr == b""
