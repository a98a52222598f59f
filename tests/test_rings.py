"""Polynomial substrate: arithmetic, rewriting, grading, symmetric functions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhcube import (
    ANY_DEGREE,
    INHOMOGENEOUS,
    PolyRing,
    RewriteSystem,
    UnknownVariableError,
    VariableMismatchError,
    elementary_symmetric,
)

XY_RING = PolyRing(("x1", "x2", "y"), (2, 2, 2))
QX_RING = PolyRing(("q1", "q2", "x1", "x2"), (4, 4, 2, 2))
A_RING = PolyRing(("a1", "a2", "a3", "y"), (2, 2, 2, 2))


def quantum_rules(ring=QX_RING):
    return RewriteSystem(
        ring, {f"x{i}": (2, ring.var(f"q{i}")) for i in (1, 2)}
    )


def classical_rules(ring=QX_RING):
    return RewriteSystem(ring, {f"x{i}": (2, 0) for i in (1, 2)})


# -- add ---------------------------------------------------------------------


def test_add_identity():
    x1 = XY_RING.var("x1")
    assert x1 + XY_RING.zero() == x1


def test_add_inverse():
    x1 = XY_RING.var("x1")
    assert x1 + (-1) * x1 == XY_RING.zero()


def test_add_collects_terms():
    x1, y = XY_RING.var("x1"), XY_RING.var("y")
    assert (x1 + y) + (x1 - y) == 2 * x1


def test_add_requires_same_ring():
    with pytest.raises(VariableMismatchError):
        XY_RING.var("x1") + QX_RING.var("x1")


# -- mul ---------------------------------------------------------------------


def test_mul_unit():
    p = XY_RING.var("x1") + 3 * XY_RING.var("y")
    assert XY_RING.one() * p == p


def test_mul_expansion():
    a1, y = A_RING.var("a1"), A_RING.var("y")
    expected = a1 * a1 + 2 * a1 * y + y * y
    assert (a1 + y) * (a1 + y) == expected


def test_mul_monomials():
    x1, x2 = XY_RING.var("x1"), XY_RING.var("x2")
    assert (x1 * x2).coefficient({"x1": 1, "x2": 1}) == 1
    assert len((x1 * x2).terms) == 1


def test_ring_axioms_random():
    rng = random.Random(20_2310)
    from helpers import random_polynomial

    for _ in range(200):
        a = random_polynomial(rng, A_RING)
        b = random_polynomial(rng, A_RING)
        c = random_polynomial(rng, A_RING)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


# -- normal_form ---------------------------------------------------------------


def test_normal_form_square():
    x1 = QX_RING.var("x1")
    assert (x1 * x1).normal_form(quantum_rules()) == QX_RING.var("q1")


def test_normal_form_cube():
    x1 = QX_RING.var("x1")
    expected = QX_RING.var("q1") * QX_RING.var("x1")
    assert (x1 * x1 * x1).normal_form(quantum_rules()) == expected


def test_normal_form_reduced_fixed():
    p = QX_RING.var("x1") * QX_RING.var("x2")
    assert p.normal_form(quantum_rules()) == p


def test_normal_form_classical_kills_squares():
    x1 = QX_RING.var("x1")
    assert (x1 * x1).normal_form(classical_rules()).is_zero()


@st.composite
def qx_polys(draw):
    monos = st.tuples(*[st.integers(0, 2)] * 4)
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    return QX_RING.poly(draw(st.dictionaries(monos, coeffs, max_size=4)))


@settings(max_examples=80, deadline=None)
@given(qx_polys())
def test_normal_form_idempotent(p):
    rules = quantum_rules()
    once = p.normal_form(rules)
    assert once.normal_form(rules) == once


@settings(max_examples=80, deadline=None)
@given(qx_polys(), qx_polys())
def test_normal_form_is_quotient_homomorphism(a, b):
    rules = quantum_rules()
    lhs = (a * b).normal_form(rules)
    rhs = (a.normal_form(rules) * b.normal_form(rules)).normal_form(rules)
    assert lhs == rhs


def test_rewrite_system_rejects_low_power():
    with pytest.raises(ValueError):
        RewriteSystem(QX_RING, {"x1": (1, 0)})


def test_rewrite_system_rejects_nonreducing_replacement():
    with pytest.raises(ValueError):
        RewriteSystem(QX_RING, {"x1": (2, QX_RING.var("x1") ** 2)})


# -- substitute ----------------------------------------------------------------


def test_substitute_y_to_zero():
    a1, y = A_RING.var("a1"), A_RING.var("y")
    assert (a1 + y).substitute({"y": 0}) == a1


def test_substitute_empty():
    p = A_RING.var("a1") * A_RING.var("y")
    assert p.substitute({}) == p


def test_substitute_even_power():
    y = A_RING.var("y")
    assert (y * y).substitute({"y": -y}) == y * y


def test_substitute_unknown_variable():
    with pytest.raises(UnknownVariableError):
        A_RING.var("a1").substitute({"zz": 0})


def test_substitute_into_other_ring():
    # a1 -> -y, a2 -> 0, landing in a pure-y ring.
    y_ring = PolyRing(("y",), (2,))
    y = y_ring.var("y")
    p = A_RING.var("a1") * A_RING.var("a2") + A_RING.var("a1") * A_RING.var("y")
    image = p.substitute({"a1": -y, "a2": y_ring.zero(), "a3": y_ring.zero(), "y": y})
    assert image == -(y * y)


# -- elementary symmetric -------------------------------------------------------


def test_sigma_zero():
    assert elementary_symmetric(A_RING, 0, ("a1", "a2")) == A_RING.one()


def test_sigma_two_of_three():
    a1, a2, a3 = (A_RING.var(n) for n in ("a1", "a2", "a3"))
    expected = a1 * a2 + a1 * a3 + a2 * a3
    assert elementary_symmetric(A_RING, 2, ("a1", "a2", "a3")) == expected


def test_sigma_top():
    a1, a2, a3 = (A_RING.var(n) for n in ("a1", "a2", "a3"))
    assert elementary_symmetric(A_RING, 3, ("a1", "a2", "a3")) == a1 * a2 * a3


def test_sigma_out_of_range():
    with pytest.raises(ValueError):
        elementary_symmetric(A_RING, 4, ("a1", "a2", "a3"))


# -- grading ---------------------------------------------------------------------


def test_degree_of_x_product():
    p = QX_RING.var("x1") * QX_RING.var("x2")
    assert p.graded_degree() == 4


def test_degree_of_q():
    assert QX_RING.var("q1").graded_degree() == 4


def test_degree_inhomogeneous():
    p = QX_RING.var("x1") + QX_RING.var("q1")
    assert p.graded_degree() is INHOMOGENEOUS


def test_degree_of_zero_is_any():
    assert QX_RING.zero().graded_degree() is ANY_DEGREE
    assert QX_RING.zero().is_homogeneous(0)
    assert QX_RING.zero().is_homogeneous(6)


def test_degree_additivity_random():
    rng = random.Random(77)
    from helpers import quantum_to_polynomial, random_homogeneous_quantum_class

    for _ in range(100):
        a = random_homogeneous_quantum_class(rng, 2)
        b = random_homogeneous_quantum_class(rng, 2)
        da, db = a.graded_degree(), b.graded_degree()
        if da is ANY_DEGREE or db is ANY_DEGREE:
            continue
        # plain product: degrees add before reduction
        product = quantum_to_polynomial(a) * quantum_to_polynomial(b)
        assert product.graded_degree() in (da + db, ANY_DEGREE)


# -- rendering --------------------------------------------------------------------


def test_rendering_is_canonical():
    p = QX_RING.var("q1") + Fraction(3, 2) * QX_RING.var("q2")
    assert str(p) == "q1 + 3/2*q2"


def test_rendering_signs_and_powers():
    x1 = QX_RING.var("x1")
    q1 = QX_RING.var("q1")
    assert str(-x1) == "-x1"
    assert str(q1 * q1 - x1) == "q1^2 - x1"
    assert str(QX_RING.zero()) == "0"
    assert str(QX_RING.one()) == "1"


def test_equal_polynomials_render_identically():
    rng = random.Random(5)
    from helpers import random_polynomial

    for _ in range(50):
        p = random_polynomial(rng, QX_RING)
        rebuilt = QX_RING.poly(dict(reversed(list(p.terms.items()))))
        assert str(rebuilt) == str(p)
