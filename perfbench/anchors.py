"""Single timings of the reference calls that later changes quote.

Each anchor runs once, untraced, after the traced ops; its output is checked
against the oracles like any op.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

import qhcube

from . import forms as F
from . import oracles as O
from .harness import run_child


def _sum_pow(n: int, k: int):
    ring = qhcube.quantum_ring(n)
    base = sum((ring.x(i) for i in range(1, n + 1)), ring.zero())
    total = {(1 << i, (0,) * n): Fraction(1) for i in range(n)}
    return (lambda: base**k,
            lambda r: F.quantum_of(r, n) == O.q_pow(total, k, n))


def _seidel_sweep(n: int):
    ring = qhcube.quantum_ring(n)
    basis = [ring.x_set(O.members_of(m)) for m in range(1 << n)]
    return (lambda: [b.seidel() for b in basis],
            lambda rs: all(F.quantum_of(r, n) == O.q_seidel({(m, (0,) * n): 1}, n)
                           for m, r in enumerate(rs)))


def _solve(n: int):
    return (lambda: qhcube.solve_structure_constants(n),
            lambda t: len(t) == n << n and all(
                F.quantum_of(v, n) == O.q_basis_product(O.mask_of(i), j, n)
                for (i, j), v in t.items()))


def _decompose_b(n: int):
    cls = qhcube.basis_b(n, [])
    return (lambda: cls.decompose(),
            lambda r: F.by_mask(r, n) == O.loc_decompose(O.loc_b(n, 0), n))


def _chern(n: int):
    return (lambda: qhcube.chern_series(n),
            lambda cs: [F.table_of(c, n) for c in cs] == O.loc_chern(n))


def _all_points(n: int):
    return (lambda: qhcube.all_points(n),
            lambda ps: len(ps) == 1 << n and str(ps[0]) == "{}"
            and str(ps[-1]) == O.subset_text((1 << n) - 1))


def _cold_cli():
    argv = [sys.executable, "-m", "qhcube", "seidel", "--n", "2", "x1"]
    return (lambda: run_child(argv, 60.0),
            lambda done: done.code == 0 and done.out == "q1*x2\n" and done.err == "")


ANCHORS = {
    "anchor.sum_pow_n8_s": lambda: _sum_pow(8, 8),
    "anchor.seidel_sweep_n10_s": lambda: _seidel_sweep(10),
    "anchor.solve_n4_s": lambda: _solve(4),
    "anchor.decompose_b_n8_s": lambda: _decompose_b(8),
    "anchor.chern_series_n8_s": lambda: _chern(8),
    "anchor.all_points_n16_s": lambda: _all_points(16),
    "anchor.cli_seidel_n2_cold_s": _cold_cli,
}


def run_anchors() -> tuple[dict[str, float], list[str]]:
    """Seconds per anchor, and the anchors whose output was wrong."""
    times, wrong = {}, []
    for name, make in ANCHORS.items():
        call, check = make()
        start = time.perf_counter()
        result = call()
        times[name] = time.perf_counter() - start
        if not check(result):
            wrong.append(name)
    return times, wrong
