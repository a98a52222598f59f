"""Localization model of the equivariant cohomology of the fixed-point hypercube.

An equivariant class is the table of its restrictions to the 2^n fixed points,
each a polynomial in the generator y of H*(BS^1).  Valid tables obey the edge
condition: along every gradient edge the two restrictions differ by a multiple
of y.

Tables are lists indexed by the subset mask of a fixed point (bit i-1 stands
for i).  :class:`SubsetPoint` appears only at the API edge, in the canonical
order of ``all_points``: ascending by (|I|, members lexicographic).

The triangular basis a_I restricts to (-y)^|I| on supersets of I and to zero
elsewhere.  A table t is therefore t_J = sum_{I subset J} lambda_I (-y)^|I|,
and Moebius inversion on the Boolean lattice recovers every coefficient at
once: g_I = sum_{J subset I} (-1)^|I - J| t_J = lambda_I (-y)^|I|, computed by
the in-place subset transform in n 2^(n-1) subtractions.  The table lies in the
span of the basis exactly when every g_I is divisible by y^|I|; ``decompose``
tests this in canonical order.  Setting y = 0 on the coefficients lands in
ordinary cohomology.

The dual classes b_I are defined by the product formula prod_{i not in I}
(a_i + y), which collapses to b_I|_{p_J} = y^(n-|I|) when J is a subset of I
and 0 otherwise; the normalization at p_I is +y^(n-|I|), and we deliberately
do not renormalize the sign.  The total Chern class restricts at p_J to
prod_i (1 + t(2 a_i - y)) = (1 - 3yt)^|J| (1 - yt)^(n-|J|), so each c_k
depends only on |J|.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Union

from . import quantum as quantum_mod
from .errors import QhcubeError
from .hypercube import SubsetPoint, all_points
from .rings import (
    ANY_DEGREE,
    INHOMOGENEOUS,
    PolyRing,
    Polynomial,
    Scalar,
)

#: Coefficient ring of the Borel construction: polynomials in y, deg y = 2.
Y_RING = PolyRing(("y",), (2,))

_Y_ZERO = Y_RING.zero()
_Y_ONE = Y_RING.one()
_Y = Y_RING.var("y")


def y_poly(terms: Mapping[int, Scalar]) -> Polynomial:
    """Polynomial in y from a map y-exponent -> coefficient."""
    return Y_RING.poly({(e,): c for e, c in terms.items()})


class NotInSpanError(QhcubeError):
    """The table is not an integral combination of the triangular basis.

    ``point`` is the first failing fixed point in canonical order, as subset
    text, and ``power`` the power of y its coefficient is not divisible by.
    """

    code = "NotInSpan"

    def __init__(self, message: str, *, point: str | None = None, power: int | None = None):
        super().__init__(message)
        self.point = point
        self.power = power


class _Order(NamedTuple):
    """The fixed points in canonical order: their masks, points and subset texts."""

    masks: tuple[int, ...]
    points: tuple[SubsetPoint, ...]
    labels: tuple[str, ...]


@lru_cache(maxsize=16)
def _canonical(n: int) -> _Order:
    points = tuple(all_points(n))
    return _Order(tuple(_mask_of(n, p.members) for p in points), points,
                  tuple(str(p) for p in points))


def _mask_of(n: int, members: Iterable[int]) -> int:
    mask = 0
    for i in members:
        if not (isinstance(i, int) and 1 <= i <= n):
            raise ValueError(f"members must lie in 1..{n}")
        mask |= 1 << (i - 1)
    return mask


def _size(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    return 1 << n


class EquivariantClass:
    """A total map from the 2^n fixed points to polynomials in y.

    ``table`` is a tuple: ``table[mask]`` is the restriction at the point whose
    members are the set bits of ``mask``.
    """

    __slots__ = ("n", "table")

    def __init__(
        self,
        n: int,
        values: Mapping[Union[SubsetPoint, frozenset, tuple], Union[Polynomial, Scalar]],
    ):
        table = [_Y_ZERO] * _size(n)
        for key, value in values.items():
            if isinstance(key, SubsetPoint):
                if key.n != n:
                    raise ValueError("point dimension does not match the class")
                key = key.members
            table[_mask_of(n, key)] = Y_RING.coerce(value)
        self.n = n
        self.table = tuple(table)

    @classmethod
    def _of(cls, n: int, table: Iterable[Polynomial]) -> "EquivariantClass":
        """A class over a ready mask table, without input checks."""
        new = object.__new__(cls)
        new.n = n
        new.table = tuple(table)
        return new

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "EquivariantClass":
        return cls._of(n, (_Y_ZERO,) * _size(n))

    @classmethod
    def one(cls, n: int) -> "EquivariantClass":
        return cls._of(n, (_Y_ONE,) * _size(n))

    @classmethod
    def y_class(cls, n: int) -> "EquivariantClass":
        """The image of y: the constant table with value y."""
        return cls._of(n, (_Y,) * _size(n))

    # -- algebra -----------------------------------------------------------

    def _other(self, value) -> "EquivariantClass | None":
        if isinstance(value, EquivariantClass):
            if value.n != self.n:
                raise ValueError("classes have different n")
            return value
        return None

    def _pointwise(self, other, op):
        if isinstance(other, (int, Fraction, Polynomial)):
            value = Y_RING.coerce(other)
            return EquivariantClass._of(self.n, [op(v, value) for v in self.table])
        peer = self._other(other)
        if peer is None:
            return NotImplemented
        return EquivariantClass._of(self.n, map(op, self.table, peer.table))

    def __add__(self, other):
        return self._pointwise(other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        return EquivariantClass._of(self.n, [-v for v in self.table])

    def __sub__(self, other):
        return self._pointwise(other, operator.sub)

    def __rsub__(self, other):
        return (-self)._pointwise(other, operator.add)

    def __mul__(self, other):
        """Pointwise product, or scaling by a polynomial in y or a scalar."""
        return self._pointwise(other, operator.mul)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        """Pointwise power by repeated squaring."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = EquivariantClass.one(self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, EquivariantClass):
            return NotImplemented
        return self.n == other.n and self.table == other.table

    def __hash__(self) -> int:
        return hash((self.n, self.table))

    def __repr__(self) -> str:
        body = ", ".join(f"{p}: {v}" for p, v in self.values.items())
        return f"EquivariantClass(n={self.n}, {{{body}}})"

    def is_zero(self) -> bool:
        return not any(self.table)

    # -- restriction and structure ------------------------------------------

    @property
    def values(self) -> dict[SubsetPoint, Polynomial]:
        """Point -> restriction, in canonical order (a fresh dict)."""
        order = _canonical(self.n)
        table = self.table
        return {p: table[m] for m, p in zip(order.masks, order.points)}

    def restrict(self, point: Union[SubsetPoint, Iterable[int]]) -> Polynomial:
        """The stored restriction at a fixed point."""
        if isinstance(point, SubsetPoint):
            if point.n != self.n:
                raise ValueError("point dimension does not match the class")
            point = point.members
        return self.table[_mask_of(self.n, point)]

    def satisfies_gkm(self) -> bool:
        return gkm_check(self.n, self)

    def graded_degree(self):
        """2k when every restriction is a multiple of y^k (zero allowed)."""
        degree = ANY_DEGREE
        for value in self.table:
            d = value.graded_degree()
            if d is ANY_DEGREE:
                continue
            if d is INHOMOGENEOUS:
                return INHOMOGENEOUS
            if degree is ANY_DEGREE:
                degree = d
            elif degree != d:
                return INHOMOGENEOUS
        return degree

    def decompose(self) -> dict[SubsetPoint, Polynomial]:
        """Coefficients lambda_I with self = sum_I lambda_I(y) * a_I.

        The subset transform turns the table into g_I = lambda_I (-y)^|I|;
        dividing by (-y)^|I| in canonical order reads off lambda_I.  A division
        remainder means the table lies outside the span of the basis and
        raises NotInSpanError at the first such point.
        """
        g = list(self.table)
        size = len(g)
        bit = 1
        while bit < size:
            for mask in range(size):
                if mask & bit:
                    g[mask] = g[mask] - g[mask ^ bit]
            bit <<= 1
        order = _canonical(self.n)
        coefficients: dict[SubsetPoint, Polynomial] = {}
        for mask, point in zip(order.masks, order.points):
            value = g[mask]
            k = mask.bit_count()
            if value and k:
                value = _divide_by_y_power(value, k, point)
                if k & 1:
                    value = -value
            coefficients[point] = value
        return coefficients

    def reduce_to_ordinary(self) -> "quantum_mod.QuantumClass":
        """Set y = 0 on the basis coefficients: the ordinary-cohomology image."""
        ring = quantum_mod.quantum_ring(self.n)
        terms = {}
        for point, lam in self.decompose().items():
            constant = lam.coefficient((0,))
            if constant:
                terms[(ring.mask(point.members), ring.zeros)] = constant
        return quantum_mod.QuantumClass(ring, terms)

    def to_json_dict(self) -> dict[str, str]:
        """Subset-string to polynomial-string map, in canonical key order."""
        order = _canonical(self.n)
        # Filled tables repeat a few restriction objects: render each once.
        texts: dict[int, str] = {}
        out = {}
        for mask, label in zip(order.masks, order.labels):
            value = self.table[mask]
            text = texts.get(id(value))
            if text is None:
                text = texts[id(value)] = str(value)
            out[label] = text
        return out


def _divide_by_y_power(value: Polynomial, k: int, point: SubsetPoint) -> Polynomial:
    terms = {}
    for (e,), coeff in value.terms.items():
        if e < k:
            raise NotInSpanError(
                f"restriction at {point} is not divisible by y^{k}", point=str(point), power=k
            )
        terms[(e - k,)] = coeff
    return Y_RING.poly(terms)


#: Shape of ``EquivariantClass.to_json_dict`` output.
EQUIVARIANT_CLASS_JSON_SCHEMA = {
    "type": "object",
    "patternProperties": {r"^\{([0-9]+(,[0-9]+)*)?\}$": {"type": "string"}},
    "additionalProperties": False,
}


def basis_a(n: int, members: Iterable[int]) -> EquivariantClass:
    """The triangular basis class: (-y)^|I| on supersets of I, zero elsewhere."""
    size = _size(n)
    mask = _mask_of(n, members)
    k = mask.bit_count()
    value = y_poly({k: (-1) ** k})
    return EquivariantClass._of(
        n, [value if m & mask == mask else _Y_ZERO for m in range(size)]
    )


def basis_b(n: int, members: Iterable[int]) -> EquivariantClass:
    """The dual basis class prod_{i not in I} (a_i + y): y^(n-|I|) on subsets of I."""
    size = _size(n)
    mask = _mask_of(n, members)
    value = y_poly({n - mask.bit_count(): 1})
    return EquivariantClass._of(
        n, [value if m | mask == mask else _Y_ZERO for m in range(size)]
    )


def gkm_check(n: int, table: Mapping) -> bool:
    """True when every edge difference in a raw value table is divisible by y.

    That is, the restrictions at the two ends of every edge share their
    constant term.
    """
    cls = table if isinstance(table, EquivariantClass) else EquivariantClass(n, table)
    constants = [v.coefficient((0,)) for v in cls.table]
    return all(constants[mask] == constants[mask | 1 << i]
               for mask in range(len(constants)) for i in range(n) if not mask >> i & 1)


def chern_series(n: int) -> list[EquivariantClass]:
    """Components c_1..c_n of the total equivariant Chern class.

    The total class restricts at each fixed point to the product of the n
    factors 1 + t*(2*a_i - y); the component c_k collects the t^k coefficient
    pointwise.  t is an ungraded bookkeeping variable.  With a_i = -y on J and
    0 off it the product is (1 - 3yt)^|J| (1 - yt)^(n-|J|), computed once per
    size |J|.
    """
    ring = PolyRing(("y", "t"), (2, 0))
    yt = ring.var("y") * ring.var("t")
    totals = [(1 - 3 * yt) ** j * (1 - yt) ** (n - j) for j in range(n + 1)]
    weights = [mask.bit_count() for mask in range(_size(n))]
    classes = []
    for k in range(1, n + 1):
        by_size = [y_poly({k: total.coefficient((k, k))}) for total in totals]
        classes.append(EquivariantClass._of(n, [by_size[j] for j in weights]))
    return classes
