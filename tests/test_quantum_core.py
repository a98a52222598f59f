"""The closed-form quantum core against the generic polynomial + rewrite route."""

import random

import pytest

from qhcube import quantum_ring

from helpers import (
    polynomial_json_terms,
    quantum_poly_ring,
    quantum_rewrite_systems,
    quantum_to_polynomial,
    random_homogeneous_quantum_class,
    random_quantum_class,
)

NS = range(1, 7)


def random_class(rng, n):
    """Inhomogeneous or homogeneous, with up to five terms."""
    if rng.random() < 0.5:
        return random_quantum_class(rng, n, max_terms=5)
    return random_homogeneous_quantum_class(rng, n, max_terms=5)


def assert_same(got, want, n):
    assert str(got) == str(want)
    assert got.to_json_terms() == polynomial_json_terms(want, n)


@pytest.mark.parametrize("n", NS)
def test_generators_match_polynomial_variables(n):
    ring, poly_ring = quantum_ring(n), quantum_poly_ring(n)
    for i in range(1, n + 1):
        assert quantum_to_polynomial(ring.x(i)) == poly_ring.var(f"x{i}")
        assert quantum_to_polynomial(ring.q(i)) == poly_ring.var(f"q{i}")
    assert quantum_to_polynomial(ring.const(3)) == poly_ring.const(3)


@pytest.mark.parametrize("n", NS)
def test_products_match_rewrite_route(n):
    rng = random.Random(4100 + n)
    quantum, classical = quantum_rewrite_systems(n)
    top = (0,) * n + (1,) * n
    for _ in range(40):
        a, b = random_class(rng, n), random_class(rng, n)
        plain = quantum_to_polynomial(a) * quantum_to_polynomial(b)
        assert_same(a * b, plain.normal_form(quantum), n)
        cup = plain.normal_form(classical)
        assert_same(a.cup(b), cup, n)
        assert a.pairing(b) == cup.coefficient(top)


@pytest.mark.parametrize("n", NS)
def test_seidel_matches_rewrite_route(n):
    rng = random.Random(4200 + n)
    quantum, _ = quantum_rewrite_systems(n)
    ring = quantum_ring(n)
    seidel_element = quantum_to_polynomial(ring.x_set(range(1, n + 1)))
    for _ in range(40):
        a = random_class(rng, n)
        want = (seidel_element * quantum_to_polynomial(a)).normal_form(quantum)
        assert_same(a.seidel(), want, n)
