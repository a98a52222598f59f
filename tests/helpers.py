"""Deterministic random generators shared across the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from qhcube import (
    EquivariantClass,
    PolyRing,
    Polynomial,
    RewriteSystem,
    Y_RING,
    all_points,
    basis_a,
    quantum_ring,
)
from qhcube.blowup import BASIS, BlowupClass


def random_polynomial(rng: random.Random, ring: PolyRing, max_terms=4, max_exp=2, coeff_bound=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in ring.names)
        coeff = Fraction(rng.randint(-coeff_bound, coeff_bound), rng.randint(1, 3))
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return ring.poly(terms)


# -- the generic route to the quantum ring -----------------------------------------


def quantum_poly_ring(n: int) -> PolyRing:
    """Q[q_1..q_n, x_1..x_n] with deg q_i = 4 and deg x_i = 2."""
    names = [f"q{i}" for i in range(1, n + 1)] + [f"x{i}" for i in range(1, n + 1)]
    return PolyRing(names, [4] * n + [2] * n)


def quantum_rewrite_systems(n: int) -> tuple[RewriteSystem, RewriteSystem]:
    """The rewrites x_i^2 -> q_i (quantum) and x_i^2 -> 0 (classical)."""
    ring = quantum_poly_ring(n)
    quantum = RewriteSystem(ring, {f"x{i}": (2, ring.var(f"q{i}")) for i in range(1, n + 1)})
    classical = RewriteSystem(ring, {f"x{i}": (2, 0) for i in range(1, n + 1)})
    return quantum, classical


def quantum_to_polynomial(cls) -> Polynomial:
    """A quantum class as the square-free polynomial with the same terms."""
    n = cls.ring.n
    terms = {}
    for term in cls.to_json_terms():
        monomial = term["monomial"]
        x_part = [1 if i in monomial["x"] else 0 for i in range(1, n + 1)]
        terms[tuple(monomial["q"]) + tuple(x_part)] = Fraction(term["coeff"])
    return quantum_poly_ring(n).poly(terms)


def polynomial_json_terms(poly: Polynomial, n: int) -> list[dict]:
    """``QuantumClass.to_json_terms`` of a normal-form polynomial, term by term."""
    out = []
    for mono, coeff in poly.terms.items():
        assert all(e <= 1 for e in mono[n:]), "not in normal form"
        x_support = [i for i, e in enumerate(mono[n:], 1) if e]
        out.append({"monomial": {"x": x_support, "q": list(mono[:n])}, "coeff": str(coeff)})
    return out


def random_quantum_class(rng: random.Random, n: int, max_terms=3, max_q=2, coeff_bound=5):
    """A random (not necessarily homogeneous) quantum class in normal form."""
    ring = quantum_ring(n)
    out = ring.zero()
    for _ in range(rng.randint(0, max_terms)):
        members = frozenset(i for i in range(1, n + 1) if rng.random() < 0.5)
        d = tuple(rng.randint(0, max_q) for _ in range(n))
        coeff = Fraction(rng.randint(-coeff_bound, coeff_bound), rng.randint(1, 3))
        out = out + coeff * (ring.x_set(members) * ring.q_monomial(d))
    return out


def random_homogeneous_quantum_class(
    rng: random.Random, n: int, q_free=False, max_terms=3, coeff_bound=5
):
    """A random homogeneous class; with ``q_free`` the degree is twice |I|."""
    ring = quantum_ring(n)
    if q_free:
        m = rng.randint(0, n)
    else:
        m = rng.randint(0, n + 2)
    out = ring.zero()
    for _ in range(rng.randint(1, max_terms)):
        sizes = [k for k in range(0, min(n, m) + 1) if (m - k) % 2 == 0]
        if q_free:
            sizes = [m] if m <= n else []
        if not sizes:
            continue
        k = rng.choice(sizes)
        members = frozenset(rng.sample(range(1, n + 1), k))
        s = (m - k) // 2
        d = [0] * n
        for _ in range(s):
            d[rng.randrange(n)] += 1
        coeff = Fraction(rng.randint(-coeff_bound, coeff_bound), rng.randint(1, 3))
        out = out + coeff * (ring.x_set(members) * ring.q_monomial(d))
    return out


def random_gkm_class(rng: random.Random, n: int, max_y_deg=2, coeff_bound=3):
    """A random integral combination of the triangular basis classes."""
    out = EquivariantClass.zero(n)
    for point in all_points(n):
        if rng.random() < 0.4:
            continue
        terms = {}
        for e in range(max_y_deg + 1):
            c = rng.randint(-coeff_bound, coeff_bound)
            if c:
                terms[(e,)] = Fraction(c)
        if terms:
            out = out + basis_a(n, point.members) * Y_RING.poly(terms)
    return out


def random_blowup_class(rng: random.Random, max_terms=4, max_nov=2, coeff_bound=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        key = (rng.randrange(len(BASIS)), rng.randint(0, max_nov), rng.randint(0, max_nov))
        coeff = Fraction(rng.randint(-coeff_bound, coeff_bound), rng.randint(1, 3))
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return BlowupClass(terms)
