"""The quantum cohomology ring Q[x_1..x_n, q_1..q_n] / <x_i*x_i - q_i>.

Over the Novikov ring Q[q_1..q_n] the classes have the basis of square-free
monomials x_I, and the product has the closed form

    x_I q^a * x_J q^b = x_{I symmetric-difference J} q^(a + b + 1_{I cap J}),

where 1_K is the indicator vector of K.  The classical cup product keeps the
pairs with I and J disjoint.  The maximal Seidel element x_1*...*x_n maps
x_I q^a to x_{I^c} q^(a + 1_I), a relabelling of terms.  The generic route,
a polynomial product reduced by the rewrite x_i^2 -> q_i, gives the same ring
and is what the tests check this one against.  ``solve_structure_constants``
re-derives the whole product table from degree constraints and associativity
against the Seidel element alone, an independent route to the same ring.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Iterable, Iterator, Union

from .hypercube import SphereClass, render_subset
from .linsolve import InconsistentError, solve_unique_sparse
from .rings import _ZERO, Scalar, StructureAlgebra


class DimensionMismatchError(ValueError):
    """Operands belong to quantum rings with different n."""


@lru_cache(maxsize=None)
def quantum_ring(n: int) -> "QuantumRing":
    return QuantumRing(n)


class QuantumRing:
    """Context object for a fixed n: the basis monomials and constructors.

    A term x_I q^d is keyed by (mask, d): bit n - i of the mask stands for
    x_i, so masks compare like the exponent tuples (x_1..x_n), and d is the
    tuple of q-exponents.  Terms render with the q-part first, e.g. ``q1*x2``.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n
        self.full = (1 << n) - 1
        self.zeros = (0,) * n
        self._bits: dict[int, tuple[int, ...]] = {}

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuantumRing):
            return NotImplemented
        return self.n == other.n

    def __hash__(self) -> int:
        return hash(("QuantumRing", self.n))

    def __repr__(self) -> str:
        return f"QuantumRing(n={self.n})"

    def mask(self, members: Iterable[int]) -> int:
        """The mask of x_I; members are not checked."""
        return sum(1 << (self.n - i) for i in frozenset(members))

    def bits(self, mask: int) -> tuple[int, ...]:
        """The indicator vector (1_I(1), ..., 1_I(n)) of a mask."""
        bits = self._bits.get(mask)
        if bits is None:
            bits = tuple(mask >> (self.n - i) & 1 for i in range(1, self.n + 1))
            self._bits[mask] = bits
        return bits

    def zero(self) -> "QuantumClass":
        return QuantumClass(self, {})

    def one(self) -> "QuantumClass":
        return self.const(1)

    def const(self, value: Scalar) -> "QuantumClass":
        c = Fraction(value)
        return QuantumClass(self, {(0, self.zeros): c} if c else {})

    def x(self, i: int) -> "QuantumClass":
        return self.x_set([i])

    def q(self, i: int) -> "QuantumClass":
        self._check_index(i)
        return self.q_monomial(1 if j == i else 0 for j in range(1, self.n + 1))

    def x_set(self, members: Iterable[int]) -> "QuantumClass":
        """The basis monomial x_I."""
        members = frozenset(members)
        for i in members:
            self._check_index(i)
        return QuantumClass(self, {(self.mask(members), self.zeros): Fraction(1)})

    def q_monomial(self, d: Union[SphereClass, Iterable[int]]) -> "QuantumClass":
        """The Novikov monomial q^d attached to the curve class sum d_i A_i."""
        coeffs = d.coeffs if isinstance(d, SphereClass) else d
        coeffs = tuple(int(v) for v in coeffs)
        if len(coeffs) != self.n:
            raise ValueError("curve class has the wrong length")
        if any(v < 0 for v in coeffs):
            raise ValueError("only effective classes have Novikov monomials")
        return QuantumClass(self, {(0, coeffs): Fraction(1)})

    def basis_subsets(self) -> list[frozenset[int]]:
        out = []
        for k in range(self.n + 1):
            for combo in itertools.combinations(range(1, self.n + 1), k):
                out.append(frozenset(combo))
        return out

    def _check_index(self, i: int):
        if not 1 <= i <= self.n:
            raise ValueError(f"index {i} out of range 1..{self.n}")


class QuantumClass(StructureAlgebra):
    """An element of the quantum cohomology ring, on the basis x_I q^d.

    ``*`` is the quantum product; ``cup`` is the classical product.  Addition,
    negation and scalar multiples behave as expected.  Instances are immutable.
    """

    __slots__ = ()

    mismatch_error = DimensionMismatchError

    def _order(self, key: tuple[int, tuple[int, ...]]) -> tuple:
        mask, d = key
        return (2 * mask.bit_count() + 4 * sum(d), d, mask)

    def _degree(self, key: tuple[int, tuple[int, ...]]) -> int:
        mask, d = key
        return 2 * mask.bit_count() + 4 * sum(d)

    def _render(self, key: tuple[int, tuple[int, ...]]) -> str:
        mask, d = key
        parts = [f"q{i}" if e == 1 else f"q{i}^{e}" for i, e in enumerate(d, 1) if e]
        parts += [f"x{i}" for i, bit in enumerate(self.ring.bits(mask), 1) if bit]
        return "*".join(parts)

    def _unit_key(self) -> tuple[int, tuple[int, ...]]:
        return (0, self.ring.zeros)

    def _product(self, other: "QuantumClass", quantum: bool = True) -> dict:
        """The closed-form basis product; without ``quantum``, the cup product."""
        bits = self.ring.bits
        out: dict = {}
        for (m1, d1), c1 in self.terms.items():
            for (m2, d2), c2 in other.terms.items():
                both = m1 & m2
                if not both:
                    key = (m1 ^ m2, tuple(map(add, d1, d2)))
                elif quantum:
                    key = (m1 ^ m2, tuple(a + b + c for a, b, c in zip(d1, d2, bits(both))))
                else:
                    continue
                acc = out.get(key, _ZERO) + c1 * c2
                if acc:
                    out[key] = acc
                elif key in out:
                    del out[key]
        return out

    def __repr__(self) -> str:
        return f"QuantumClass(n={self.ring.n}, {self})"

    def cup(self, other: "QuantumClass") -> "QuantumClass":
        """Classical cup product: the basis product of disjoint monomials only."""
        return self._new(self._product(self._other(other), quantum=False))

    def pairing(self, other: "QuantumClass") -> Fraction:
        """Integral of the cup product: the coefficient of x_1*...*x_n."""
        return self.cup(other).coefficient(range(1, self.ring.n + 1))

    def seidel(self) -> "QuantumClass":
        """Quantum multiplication by the maximal Seidel element x_1*...*x_n."""
        full, bits = self.ring.full, self.ring.bits
        return self._new(
            {(full ^ m, tuple(map(add, d, bits(m)))): c for (m, d), c in self.terms.items()}
        )

    def coefficient(self, members: Iterable[int], d: Iterable[int] | None = None) -> Fraction:
        """Coefficient of the basis monomial x_I q^d."""
        d = self.ring.zeros if d is None else tuple(int(v) for v in d)
        return super().coefficient((self.ring.mask(members), d))

    def to_json_terms(self) -> list[dict]:
        """Canonical JSON form: one entry per term, in canonical order."""
        bits = self.ring.bits
        return [
            {
                "monomial": {"x": [i for i, b in enumerate(bits(m), 1) if b], "q": list(d)},
                "coeff": str(coeff),
            }
            for (m, d), coeff in self.terms.items()
        ]


#: Shape of ``QuantumClass.to_json_terms`` output.
QUANTUM_CLASS_JSON_SCHEMA = {
    "type": "array",
    "items": {
        "type": "object",
        "properties": {
            "monomial": {
                "type": "object",
                "properties": {
                    "x": {"type": "array", "items": {"type": "integer", "minimum": 1}},
                    "q": {"type": "array", "items": {"type": "integer", "minimum": 0}},
                },
                "required": ["x", "q"],
                "additionalProperties": False,
            },
            "coeff": {"type": "string", "pattern": "^-?[0-9]+(/[0-9]+)?$"},
        },
        "required": ["monomial", "coeff"],
        "additionalProperties": False,
    },
}


@dataclass(frozen=True)
class GWQuery:
    """Insertion data (x_I, x_J, x_K) and an effective curve class."""

    i: frozenset[int]
    j: frozenset[int]
    k: frozenset[int]
    d: SphereClass

    def __post_init__(self):
        object.__setattr__(self, "i", frozenset(self.i))
        object.__setattr__(self, "j", frozenset(self.j))
        object.__setattr__(self, "k", frozenset(self.k))
        if not self.d.is_effective():
            raise ValueError("curve class must be effective")


def gw_coefficient(ring: QuantumRing, query: GWQuery) -> Fraction:
    """Three-point genus-zero invariant <x_I, x_J, x_K> in class sum d_i A_i.

    Extracted from the quantum product: because the intersection pairing is
    the complement permutation on the basis, the invariant is the coefficient
    of x_{K^c} q^d in x_I * x_J.  A query violating the degree selection rule
    |I|+|J|+|K| = n + 2*sum(d) is zero without further computation.
    """
    n = ring.n
    for member in itertools.chain(query.i, query.j, query.k):
        ring._check_index(member)
    if len(query.d.coeffs) != n:
        raise ValueError("curve class has the wrong length")
    if len(query.i) + len(query.j) + len(query.k) != n + 2 * sum(query.d.coeffs):
        return Fraction(0)
    product = ring.x_set(query.i) * ring.x_set(query.j)
    k_complement = frozenset(range(1, n + 1)) - query.k
    return product.coefficient(k_complement, query.d.coeffs)


def positivity_decomposition(
    a: QuantumClass, b: QuantumClass
) -> tuple[QuantumClass, QuantumClass]:
    """Split a quantum product into its classical part and its quantum tail.

    The tail carries only monomials with positive total q-exponent, and each
    tail term drops in x-degree by four times its total q-exponent.
    """
    classical = a.cup(b)
    tail = (a * b) - classical
    return classical, tail


# ---------------------------------------------------------------------------
# Structure-constant solver


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Weak compositions of `total` into `parts` non-negative integers."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _quantum_term_candidates(
    n: int, size_i: int
) -> Iterator[tuple[frozenset[int], tuple[int, ...]]]:
    """Basis monomials x_J q^d that can appear in a product of degree 2(size_i+1)."""
    for s in range(1, (size_i + 1) // 2 + 1):
        size_j = size_i + 1 - 2 * s
        for combo in itertools.combinations(range(1, n + 1), size_j):
            for d in _compositions(s, n):
                yield frozenset(combo), d


def solve_structure_constants(
    n: int, limit: int = 4
) -> dict[tuple[frozenset[int], int], QuantumClass]:
    """Re-derive every product x_I * x_j from first principles.

    Each product is an unknown combination of basis monomials x_J q^d
    constrained by (i) degree homogeneity, (ii) the classical part being the
    cup product, and (iii) associativity against the known action of the
    maximal Seidel element, x_S * x_J = x_{J^c} q_J.  The resulting linear
    system over Q has a unique solution, which is checked against the
    closed-form product before being returned.

    Raises UnderdeterminedError or InconsistentError when the system
    misbehaves (it never does for n within the configured bound).
    """
    if n > limit:
        raise ValueError(f"n={n} exceeds the configured bound {limit}")
    ring = quantum_ring(n)
    full = frozenset(range(1, n + 1))
    subsets = ring.basis_subsets()
    ones = {i: tuple(1 if j == i else 0 for j in range(1, n + 1)) for i in range(1, n + 1)}

    def q_sum(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(x + y for x, y in zip(a, b))

    def subset_exponents(members: frozenset[int]) -> tuple[int, ...]:
        return tuple(1 if i in members else 0 for i in range(1, n + 1))

    columns: dict[tuple[frozenset[int], int, frozenset[int], tuple[int, ...]], int] = {}
    row_terms: dict[tuple[frozenset[int], int], list[tuple[frozenset[int], tuple[int, ...]]]] = {}
    for i_set in subsets:
        for j in range(1, n + 1):
            terms = list(_quantum_term_candidates(n, len(i_set)))
            row_terms[(i_set, j)] = terms
            for j_set, d in terms:
                columns[(i_set, j, j_set, d)] = len(columns)

    def classical_part(i_set: frozenset[int], j: int) -> frozenset[int] | None:
        return i_set | {j} if j not in i_set else None

    # One family of equations per (I, j): x_S * (x_I * x_j) = q_I * (x_{I^c} * x_j),
    # compared coefficient by coefficient on the basis monomials x_K q^e.
    equations: list[tuple[dict[int, Fraction], Fraction]] = []
    ncols = len(columns)
    for i_set in subsets:
        comp = full - i_set
        for j in range(1, n + 1):
            coeffs: dict[tuple[frozenset[int], tuple[int, ...]], dict[int, Fraction]] = {}
            consts: dict[tuple[frozenset[int], tuple[int, ...]], Fraction] = {}

            def put(key, col: int | None, value: Fraction):
                if col is None:
                    consts[key] = consts.get(key, Fraction(0)) + value
                else:
                    bucket = coeffs.setdefault(key, {})
                    bucket[col] = bucket.get(col, Fraction(0)) + value

            # Left side: multiply the unknown expansion of x_I * x_j by x_S.
            cls = classical_part(i_set, j)
            if cls is not None:
                put((full - cls, subset_exponents(cls)), None, Fraction(1))
            for j_set, d in row_terms[(i_set, j)]:
                col = columns[(i_set, j, j_set, d)]
                put((full - j_set, q_sum(d, subset_exponents(j_set))), col, Fraction(1))
            # Right side (subtracted): q_I times the expansion of x_{I^c} * x_j.
            cls = classical_part(comp, j)
            if cls is not None:
                put((cls, subset_exponents(i_set)), None, Fraction(-1))
            for j_set, d in row_terms[(comp, j)]:
                col = columns[(comp, j, j_set, d)]
                put((j_set, q_sum(d, subset_exponents(i_set))), col, Fraction(-1))

            for key in set(coeffs) | set(consts):
                equations.append(
                    (coeffs.get(key, {}), -consts.get(key, Fraction(0)))
                )

    solution = solve_unique_sparse(equations, ncols)

    table: dict[tuple[frozenset[int], int], QuantumClass] = {}
    for i_set in subsets:
        for j in range(1, n + 1):
            cls = classical_part(i_set, j)
            value = ring.x_set(cls) if cls is not None else ring.zero()
            for j_set, d in row_terms[(i_set, j)]:
                coeff = solution[columns[(i_set, j, j_set, d)]]
                if coeff:
                    value = value + coeff * (ring.x_set(j_set) * ring.q_monomial(d))
            expected = ring.x_set(i_set) * ring.x(j)
            if value != expected:
                raise InconsistentError(
                    f"solved product for ({render_subset(i_set)}, {j}) "
                    "disagrees with the closed-form product"
                )
            table[(i_set, j)] = value
    return table
