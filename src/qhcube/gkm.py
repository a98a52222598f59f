"""Localization model of the equivariant cohomology of the fixed-point hypercube.

An equivariant class is the table of its restrictions to the 2^n fixed
points, each a polynomial in the generator y of H*(BS^1).  Valid tables obey
the edge condition: along every gradient edge the two restrictions differ by
a multiple of y.  The triangular basis a_I (restriction (-y)^|I| exactly on
supersets of I) makes membership constructive: ``decompose`` peels the basis
coefficients off point by point, ascending in |I|, and setting y = 0
afterwards lands in ordinary cohomology.

The dual classes b_I are defined here by the product formula
prod_{i not in I}(a_i + y); their normalization at p_I is +y^(n-|I|), and we
deliberately do not renormalize the sign.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

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


def y_poly(terms: Mapping[int, Scalar]) -> Polynomial:
    """Polynomial in y from a map y-exponent -> coefficient."""
    return Y_RING.poly({(e,): c for e, c in terms.items()})


class NotInSpanError(QhcubeError):
    """The table is not an integral combination of the triangular basis."""

    code = "NotInSpan"


class EquivariantClass:
    """A total map from the 2^n fixed points to polynomials in y."""

    __slots__ = ("n", "values")

    def __init__(
        self,
        n: int,
        values: Mapping[Union[SubsetPoint, frozenset, tuple], Union[Polynomial, Scalar]],
    ):
        self.n = n
        table: dict[SubsetPoint, Polynomial] = {p: Y_RING.zero() for p in all_points(n)}
        for key, value in values.items():
            point = key if isinstance(key, SubsetPoint) else SubsetPoint(n, frozenset(key))
            if point.n != n:
                raise ValueError("point dimension does not match the class")
            if point not in table:
                raise ValueError(f"unexpected point {point}")
            table[point] = Y_RING.coerce(value)
        self.values = table

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "EquivariantClass":
        return cls(n, {})

    @classmethod
    def one(cls, n: int) -> "EquivariantClass":
        return cls(n, {p: 1 for p in all_points(n)})

    @classmethod
    def y_class(cls, n: int) -> "EquivariantClass":
        """The image of y: the constant table with value y."""
        return cls(n, {p: Y_RING.var("y") for p in all_points(n)})

    # -- algebra -----------------------------------------------------------

    def _other(self, value) -> "EquivariantClass | None":
        if isinstance(value, EquivariantClass):
            if value.n != self.n:
                raise ValueError("classes have different n")
            return value
        return None

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Polynomial)):
            other = EquivariantClass(self.n, {p: other for p in self.values})
        peer = self._other(other)
        if peer is None:
            return NotImplemented
        return EquivariantClass(
            self.n, {p: v + peer.values[p] for p, v in self.values.items()}
        )

    __radd__ = __add__

    def __neg__(self):
        return EquivariantClass(self.n, {p: -v for p, v in self.values.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Polynomial)):
            other = EquivariantClass(self.n, {p: other for p in self.values})
        peer = self._other(other)
        if peer is None:
            return NotImplemented
        return self + (-peer)

    def __mul__(self, other):
        """Pointwise product, or scaling by a polynomial in y or a scalar."""
        if isinstance(other, (int, Fraction, Polynomial)):
            scale = Y_RING.coerce(other)
            return EquivariantClass(
                self.n, {p: v * scale for p, v in self.values.items()}
            )
        peer = self._other(other)
        if peer is None:
            return NotImplemented
        return EquivariantClass(
            self.n, {p: v * peer.values[p] for p, v in self.values.items()}
        )

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = EquivariantClass.one(self.n)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, EquivariantClass):
            return NotImplemented
        return self.n == other.n and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.n, tuple(self.values.items())))

    def __repr__(self) -> str:
        body = ", ".join(f"{p}: {v}" for p, v in self.values.items())
        return f"EquivariantClass(n={self.n}, {{{body}}})"

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values.values())

    # -- restriction and structure ------------------------------------------

    def restrict(self, point: Union[SubsetPoint, Iterable[int]]) -> Polynomial:
        """The stored restriction at a fixed point."""
        if not isinstance(point, SubsetPoint):
            point = SubsetPoint(self.n, frozenset(point))
        return self.values[point]

    def satisfies_gkm(self) -> bool:
        return gkm_check(self.n, self.values)

    def graded_degree(self):
        """2k when every restriction is a multiple of y^k (zero allowed)."""
        degree = ANY_DEGREE
        for value in self.values.values():
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

        Triangular elimination ascending in |I|: restrict at p_I, divide by
        (-y)^|I|, subtract.  A division remainder means the table lies outside
        the span of the basis and raises NotInSpanError.
        """
        residual = self
        coefficients: dict[SubsetPoint, Polynomial] = {}
        for point in all_points(self.n):
            value = residual.values[point]
            k = len(point.members)
            if value.is_zero():
                coefficients[point] = Y_RING.zero()
                continue
            lam = _divide_by_y_power(value, k, point) * Fraction((-1) ** k)
            coefficients[point] = lam
            residual = residual - basis_a(self.n, point.members) * lam
        return coefficients

    def reduce_to_ordinary(self) -> "quantum_mod.QuantumClass":
        """Set y = 0 on the basis coefficients: the ordinary-cohomology image."""
        ring = quantum_mod.quantum_ring(self.n)
        result = ring.zero()
        for point, lam in self.decompose().items():
            constant = lam.coefficient((0,))
            if constant:
                result = result + constant * ring.x_set(point.members)
        return result

    def to_json_dict(self) -> dict[str, str]:
        """Subset-string to polynomial-string map, in canonical key order."""
        return {str(p): str(v) for p, v in self.values.items()}


def _divide_by_y_power(value: Polynomial, k: int, point: SubsetPoint) -> Polynomial:
    terms = {}
    for (e,), coeff in value.terms.items():
        if e < k:
            raise NotInSpanError(
                f"restriction at {point} is not divisible by y^{k}"
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
    members = frozenset(members)
    k = len(members)
    value = y_poly({k: (-1) ** k})
    return EquivariantClass(
        n, {p: value for p in all_points(n) if members <= p.members}
    )


def basis_b(n: int, members: Iterable[int]) -> EquivariantClass:
    """The dual basis class, defined as the product of (a_i + y) over i not in I."""
    members = frozenset(members)
    result = EquivariantClass.one(n)
    y = EquivariantClass.y_class(n)
    for i in range(1, n + 1):
        if i not in members:
            result = result * (basis_a(n, [i]) + y)
    return result


def gkm_check(n: int, table: Mapping) -> bool:
    """True when every upward-edge difference in a raw value table is divisible by y."""
    cls = table if isinstance(table, EquivariantClass) else EquivariantClass(n, table)
    for point in all_points(n):
        here = cls.values[point]
        for target, _ in point.upward_edges():
            diff = cls.values[target] - here
            if diff.coefficient((0,)) != 0:
                return False
    return True


def chern_series(n: int) -> list[EquivariantClass]:
    """Components c_1..c_n of the total equivariant Chern class.

    The total class restricts at each fixed point to the product of the n
    factors 1 + t*(2*a_i - y); the component c_k collects the t^k coefficient
    pointwise.  t is an ungraded bookkeeping variable.
    """
    yt_ring = PolyRing(("y", "t"), (2, 0))
    y = yt_ring.var("y")
    t = yt_ring.var("t")
    tables: list[dict[SubsetPoint, Polynomial]] = [dict() for _ in range(n + 1)]
    for point in all_points(n):
        product = yt_ring.one()
        for i in range(1, n + 1):
            a_i = -y if i in point.members else yt_ring.zero()
            product = product * (yt_ring.one() + t * (2 * a_i - y))
        buckets: list[dict] = [dict() for _ in range(n + 1)]
        for (ye, te), coeff in product.terms.items():
            buckets[te][(ye,)] = coeff
        for k in range(n + 1):
            tables[k][point] = Y_RING.poly(buckets[k])
    return [EquivariantClass(n, tables[k]) for k in range(1, n + 1)]
