"""The mask-table localization core against the generic routes in ``helpers``.

``decompose`` (Moebius inversion), ``reduce_to_ordinary``, the closed forms of
``basis_b`` and ``chern_series`` and the mask-edge ``gkm_check`` are
checked against triangular elimination, the product formulas and the
edge-by-edge check: on seeded tables for n = 1..8, in and out of the span of
the triangular basis, and on hypothesis-drawn tables for n = 1..4.  The
pointwise power is checked against repeated multiplication.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    basis_b_by_product,
    chern_series_by_product,
    decompose_by_elimination,
    gkm_check_by_edges,
    random_gkm_class,
    random_table,
    reduce_by_elimination,
)
from qhcube import (
    EquivariantClass,
    NotInSpanError,
    Y_RING,
    all_points,
    basis_a,
    basis_b,
    chern_series,
    gkm_check,
    y_poly,
)

NS = range(1, 9)

#: Largest n at which the seeded classes are dense and include products; the
#: elimination oracle is O(4^n), so larger n use sparse combinations.
DENSE_N = 6


def sparse_gkm_class(rng: random.Random, n: int, terms=6) -> EquivariantClass:
    """An integral combination of a few triangular basis classes."""
    out = EquivariantClass.zero(n)
    for _ in range(terms):
        members = [i for i in range(1, n + 1) if rng.random() < 0.5]
        lam = y_poly({e: rng.randint(-3, 3) for e in range(3)})
        out = out + basis_a(n, members) * lam
    return out


def in_span_classes(n: int) -> list[EquivariantClass]:
    rng = random.Random(1_000 + n)
    if n > DENSE_N:
        return [sparse_gkm_class(rng, n) for _ in range(3)]
    classes = [random_gkm_class(rng, n) for _ in range(4)]
    return classes + [classes[0] * classes[1], basis_b(n, [])]


def perturbed_classes(n: int) -> list[tuple[EquivariantClass, frozenset]]:
    """In-span classes plus c*y^j at one point J with j < |J|: J is the first failure."""
    rng = random.Random(2_000 + n)
    out = []
    for cls in in_span_classes(n):
        members = frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
        bump = y_poly({rng.randrange(len(members)): rng.choice([-2, -1, 1, 2])})
        out.append((cls + EquivariantClass(n, {members: bump}), members))
    return out


def outcome(decompose, cls):
    """The coefficients in key order, or the error's message, point and power."""
    try:
        return ("ok", list(decompose(cls).items()))
    except NotInSpanError as exc:
        return ("error", str(exc), exc.point, exc.power)


# -- decompose and reduce ----------------------------------------------------------


@pytest.mark.parametrize("n", NS)
def test_decompose_in_span_matches_elimination(n):
    for cls in in_span_classes(n):
        got = outcome(EquivariantClass.decompose, cls)
        assert got[0] == "ok"
        assert got == outcome(decompose_by_elimination, cls)


@pytest.mark.parametrize("n", NS)
def test_decompose_out_of_span_names_the_elimination_point(n):
    for cls, members in perturbed_classes(n):
        got = outcome(EquivariantClass.decompose, cls)
        point = "{" + ",".join(map(str, sorted(members))) + "}"
        assert got == ("error", f"restriction at {point} is not divisible by y^{len(members)}",
                       point, len(members))
        assert got == outcome(decompose_by_elimination, cls)
    rng = random.Random(3_000 + n)
    for _ in range(4):
        cls = random_table(rng, n)
        assert outcome(EquivariantClass.decompose, cls) == outcome(decompose_by_elimination, cls)


@pytest.mark.parametrize("n", NS)
def test_reduce_to_ordinary_matches_elimination(n):
    for cls in in_span_classes(n):
        assert cls.reduce_to_ordinary() == reduce_by_elimination(cls)


def test_not_in_span_error_context():
    delta = EquivariantClass(2, {frozenset([1]): 1})
    with pytest.raises(NotInSpanError) as info:
        delta.decompose()
    assert str(info.value) == "restriction at {1} is not divisible by y^1"
    assert (info.value.point, info.value.power) == ("{1}", 1)


# -- closed forms --------------------------------------------------------------------


@pytest.mark.parametrize("n", NS)
def test_basis_b_matches_product(n):
    chosen = [p.members for p in all_points(n)]
    if n > 5:
        chosen = random.Random(4_000 + n).sample(chosen, 8)
    for members in chosen:
        assert basis_b(n, members) == basis_b_by_product(n, members)


@pytest.mark.parametrize("n", NS)
def test_chern_series_matches_product(n):
    assert chern_series(n) == chern_series_by_product(n)


# -- gkm_check -----------------------------------------------------------------------


@pytest.mark.parametrize("n", NS)
def test_gkm_check_matches_edges(n):
    rng = random.Random(5_000 + n)
    tables = []
    for cls in in_span_classes(n):
        point = rng.choice(all_points(n))
        tables += [
            cls,
            cls + EquivariantClass(n, {point: rng.choice([-1, 1])}),
            cls + EquivariantClass(n, {point: y_poly({1: 2, 2: -1})}),
        ]
    tables += [random_table(rng, n) for _ in range(3)]
    for cls in tables:
        expected = gkm_check_by_edges(cls)
        assert gkm_check(n, cls) is expected
        assert gkm_check(n, cls.values) is expected
        assert cls.satisfies_gkm() is expected


# -- the table and its edge ----------------------------------------------------------


def test_values_follow_the_table():
    cls = random_table(random.Random(6), 3)
    assert list(cls.values) == all_points(3)
    for point, value in cls.values.items():
        mask = sum(1 << (i - 1) for i in point.members)
        assert cls.table[mask] is value
        assert cls.restrict(point) is value
        assert cls.restrict(sorted(point.members)) is value


def test_power_matches_repeated_multiplication():
    rng = random.Random(8)
    for n in range(1, 5):
        for cls in (random_gkm_class(rng, n), random_table(rng, n, max_y_deg=2)):
            expected = EquivariantClass.one(n)
            for k in range(7):
                assert cls**k == expected
                expected = expected * cls


# -- hypothesis: arbitrary small tables ------------------------------------------------


def point_rows(width: int):
    """Strategy: one row of ``width`` small integers per fixed point, for n = 1..4."""
    row = st.lists(st.integers(-2, 2), min_size=width, max_size=width)
    return st.integers(1, 4).flatmap(lambda n: st.lists(row, min_size=2**n, max_size=2**n))


def y_table(rows) -> dict:
    """Point -> the polynomial in y whose coefficients are the point's row."""
    n = len(rows).bit_length() - 1
    return {p: Y_RING.poly({(e,): c for e, c in enumerate(row)})
            for p, row in zip(all_points(n), rows)}


@settings(max_examples=150, deadline=None)
@given(point_rows(3))
def test_hypothesis_tables_match_the_generic_routes(rows):
    cls = EquivariantClass(len(rows).bit_length() - 1, y_table(rows))
    assert outcome(EquivariantClass.decompose, cls) == outcome(decompose_by_elimination, cls)
    assert gkm_check(cls.n, cls) is gkm_check_by_edges(cls)


@settings(max_examples=100, deadline=None)
@given(point_rows(2))
def test_hypothesis_decompose_recovers_coefficients(rows):
    lams = y_table(rows)
    n = len(rows).bit_length() - 1
    cls = EquivariantClass.zero(n)
    for point, lam in lams.items():
        cls = cls + basis_a(n, point.members) * lam
    assert cls.decompose() == lams
    assert cls.reduce_to_ordinary() == reduce_by_elimination(cls)
