"""Quantum ring: products, pairing, Seidel action, invariants, proof replay."""

import itertools
import random
from fractions import Fraction

import pytest

from qhcube import (
    ANY_DEGREE,
    GWQuery,
    SphereClass,
    gw_coefficient,
    positivity_decomposition,
    quantum_ring,
    solve_structure_constants,
)
from qhcube.quantum import DimensionMismatchError


def subsets(n):
    for k in range(n + 1):
        yield from (frozenset(c) for c in itertools.combinations(range(1, n + 1), k))


# -- qmul ------------------------------------------------------------------------


def test_square_is_q():
    r = quantum_ring(2)
    assert r.x(1) * r.x(1) == r.q(1)


def test_distinct_product_is_classical():
    r = quantum_ring(2)
    assert r.x(1) * r.x(2) == r.x_set([1, 2])


def test_product_reduces():
    r = quantum_ring(2)
    assert r.x_set([1, 2]) * r.x(1) == r.q(1) * r.x(2)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        quantum_ring(2).x(1) * quantum_ring(3).x(1)


def test_qmul_associative_commutative_random():
    rng = random.Random(314)
    from helpers import random_homogeneous_quantum_class

    for _ in range(300):
        n = rng.randint(1, 4)
        a = random_homogeneous_quantum_class(rng, n)
        b = random_homogeneous_quantum_class(rng, n)
        c = random_homogeneous_quantum_class(rng, n)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a


def test_degree_homogeneity_of_qmul():
    rng = random.Random(59)
    from helpers import random_homogeneous_quantum_class

    for _ in range(100):
        n = rng.randint(1, 4)
        a = random_homogeneous_quantum_class(rng, n)
        b = random_homogeneous_quantum_class(rng, n)
        da, db = a.graded_degree(), b.graded_degree()
        if da is ANY_DEGREE or db is ANY_DEGREE:
            continue
        assert (a * b).graded_degree() in (da + db, ANY_DEGREE)


# -- cup --------------------------------------------------------------------------


def test_cup_square_vanishes():
    r = quantum_ring(2)
    assert r.x(1).cup(r.x(1)) == r.zero()


def test_cup_distinct():
    r = quantum_ring(2)
    assert r.x(1).cup(r.x(2)) == r.x_set([1, 2])


def test_cup_of_basis_monomials():
    for n in range(1, 5):
        r = quantum_ring(n)
        for i_set in subsets(n):
            for j_set in subsets(n):
                product = r.x_set(i_set).cup(r.x_set(j_set))
                if i_set & j_set:
                    assert product == r.zero()
                else:
                    assert product == r.x_set(i_set | j_set)


# -- pairing -----------------------------------------------------------------------


def test_pairing_examples():
    r = quantum_ring(2)
    assert r.x_set([1]).pairing(r.x_set([2])) == 1
    assert r.x_set([1]).pairing(r.x_set([1])) == 0
    assert r.one().pairing(r.x_set([1, 2])) == 1


def test_pairing_is_complement_permutation():
    for n in range(1, 7):
        r = quantum_ring(n)
        full = frozenset(range(1, n + 1))
        for i_set in subsets(n):
            for j_set in subsets(n):
                expected = 1 if j_set == full - i_set else 0
                assert r.x_set(i_set).pairing(r.x_set(j_set)) == expected


# -- seidel ------------------------------------------------------------------------


def test_seidel_of_unit():
    r = quantum_ring(3)
    assert r.one().seidel() == r.x_set([1, 2, 3])


def test_seidel_on_basis_example():
    r = quantum_ring(2)
    assert r.x(1).seidel() == r.q(1) * r.x(2)


def test_seidel_basis_action_and_square():
    for n in range(1, 7):
        r = quantum_ring(n)
        full = frozenset(range(1, n + 1))
        q_all = r.q_monomial((1,) * n)
        for i_set in subsets(n):
            x_i = r.x_set(i_set)
            expected = r.x_set(full - i_set)
            for i in i_set:
                expected = expected * r.q(i)
            assert x_i.seidel() == expected
            assert x_i.seidel().seidel() == q_all * x_i


# -- gw ------------------------------------------------------------------------------


def test_gw_classical_triple():
    # Oracle: the classical integral computed with cup and pairing.
    r = quantum_ring(2)
    query = GWQuery(i={1}, j={2}, k=frozenset(), d=SphereClass.zero(2))
    oracle = r.x_set([1]).cup(r.x_set([2])).pairing(r.x_set(frozenset()))
    assert oracle == 1
    assert gw_coefficient(r, query) == oracle


def test_gw_quantum_triple():
    # Oracle: direct coefficient read off x1*x1 = q1.
    r = quantum_ring(2)
    query = GWQuery(i={1}, j={1}, k={1, 2}, d=SphereClass.unit(2, 1))
    assert (r.x(1) * r.x(1)).coefficient([], (1, 0)) == 1
    assert gw_coefficient(r, query) == 1


def test_gw_degree_rule():
    r = quantum_ring(2)
    query = GWQuery(i={1}, j={2}, k={1}, d=SphereClass.zero(2))
    assert gw_coefficient(r, query) == 0


def test_gw_rejects_ineffective_class():
    with pytest.raises(ValueError):
        GWQuery(i={1}, j={1}, k={1}, d=SphereClass((-1, 0)))


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def test_gw_symmetry():
    for n in range(1, 4):
        r = quantum_ring(n)
        for i_set, j_set, k_set in itertools.product(subsets(n), repeat=3):
            twice_c1 = len(i_set) + len(j_set) + len(k_set) - n
            if twice_c1 < 0 or twice_c1 % 2:
                continue
            for d in _compositions(twice_c1 // 2, n):
                sphere = SphereClass(d)
                value = gw_coefficient(r, GWQuery(i_set, j_set, k_set, sphere))
                for p1, p2, p3 in itertools.permutations((i_set, j_set, k_set)):
                    assert gw_coefficient(r, GWQuery(p1, p2, p3, sphere)) == value


# -- positivity ------------------------------------------------------------------------


def test_positivity_examples():
    r = quantum_ring(2)
    assert positivity_decomposition(r.x(1), r.x(2)) == (r.x_set([1, 2]), r.zero())
    assert positivity_decomposition(r.x(1), r.x(1)) == (r.zero(), r.q(1))
    classical, tail = positivity_decomposition(r.x_set([1, 2]), r.x(1))
    assert classical == r.zero()
    assert tail == r.q(1) * r.x(2)


def test_quantum_tail_positivity_random():
    rng = random.Random(2718)
    from helpers import random_homogeneous_quantum_class

    for _ in range(300):
        n = rng.randint(1, 4)
        a = random_homogeneous_quantum_class(rng, n, q_free=True)
        b = random_homogeneous_quantum_class(rng, n, q_free=True)
        classical, tail = positivity_decomposition(a, b)
        assert a * b == classical + tail
        da, db = a.graded_degree(), b.graded_degree()
        for x_mask, q_part in tail.terms:
            q_total = sum(q_part)
            assert q_total >= 1
            if da is not ANY_DEGREE and db is not ANY_DEGREE:
                drop = da + db - 2 * x_mask.bit_count()
                assert drop == 4 * q_total


# -- structure constant solver -----------------------------------------------------------


def test_solver_n1():
    r = quantum_ring(1)
    table = solve_structure_constants(1)
    assert table == {
        (frozenset(), 1): r.x(1),
        (frozenset([1]), 1): r.q(1),
    }


def test_solver_n2():
    r = quantum_ring(2)
    table = solve_structure_constants(2)
    assert table[(frozenset([1]), 1)] == r.q(1)
    assert table[(frozenset([2]), 2)] == r.q(2)
    assert table[(frozenset([1]), 2)] == r.x_set([1, 2])
    assert table[(frozenset([1, 2]), 1)] == r.q(1) * r.x(2)


def test_solver_matches_qmul():
    for n in (1, 2, 3):
        r = quantum_ring(n)
        table = solve_structure_constants(n)
        for i_set in subsets(n):
            for j in range(1, n + 1):
                assert table[(i_set, j)] == r.x_set(i_set) * r.x(j)


def test_solver_bound():
    with pytest.raises(ValueError):
        solve_structure_constants(5)


# -- json ---------------------------------------------------------------------------------


def test_to_json_terms_shape():
    r = quantum_ring(2)
    payload = (r.q(1) * r.x(2) + Fraction(1, 2) * r.one()).to_json_terms()
    assert payload == [
        {"monomial": {"x": [2], "q": [1, 0]}, "coeff": "1"},
        {"monomial": {"x": [], "q": [0, 0]}, "coeff": "1/2"},
    ]
