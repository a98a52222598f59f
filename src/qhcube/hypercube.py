"""Fixed-point combinatorics of a semi-free circle action with isolated fixed points.

Fixed points biject with subsets of {1..n}: the point for I has Morse index
2|I| and weight sum n - 2|I|.  Gradient edges add one element at a time and
carry the sphere classes A_1..A_n; integer combinations of these classes keep
track of areas and Chern numbers.  The module also houses the cardinality-level
constraint system whose emptiness certifies that the maximal Seidel element
has no higher-order corrections.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Union

from .errors import QhcubeError

Scalar = Union[int, Fraction]


class EqualWeightsError(QhcubeError):
    """The two fixed points have equal weight sums; no invariant sphere joins them."""

    code = "EqualWeights"


class NonPositiveError(QhcubeError):
    """The covering multiplicity has the wrong sign for this ordered pair."""

    code = "NonPositive"


@dataclass(frozen=True)
class SubsetPoint:
    """A fixed point p_I, encoded by the subset I of {1..n}."""

    n: int
    members: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        if self.n < 1:
            raise ValueError("n must be positive")
        if not all(isinstance(i, int) and 1 <= i <= self.n for i in self.members):
            raise ValueError(f"members must lie in 1..{self.n}")

    @classmethod
    def of(cls, n: int, *members: int) -> "SubsetPoint":
        return cls(n, frozenset(members))

    def morse_index(self) -> int:
        return 2 * len(self.members)

    def weight_sum(self) -> int:
        return self.n - 2 * len(self.members)

    def complement(self) -> "SubsetPoint":
        return SubsetPoint(self.n, frozenset(range(1, self.n + 1)) - self.members)

    def upward_edges(self) -> list[tuple["SubsetPoint", int]]:
        """Gradient edges into this point's upward neighbours, with sphere index."""
        edges = []
        for i in range(1, self.n + 1):
            if i not in self.members:
                edges.append((SubsetPoint(self.n, self.members | {i}), i))
        return edges

    def broken_line_class(self) -> "SphereClass":
        """Class of the broken gradient line from the maximum down to this point."""
        return SphereClass(
            tuple(0 if i in self.members else 1 for i in range(1, self.n + 1))
        )

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.members), tuple(sorted(self.members)))

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in sorted(self.members)) + "}"


def all_points(n: int) -> list[SubsetPoint]:
    """All 2^n fixed points, ascending by (|I|, members lexicographic)."""
    points = []
    for k in range(n + 1):
        for combo in itertools.combinations(range(1, n + 1), k):
            points.append(SubsetPoint(n, frozenset(combo)))
    return points


def all_edges(n: int) -> Iterator[tuple[SubsetPoint, SubsetPoint, int]]:
    """All (lower, upper, sphere index) gradient edges in canonical order."""
    for p in all_points(n):
        for q, i in p.upward_edges():
            yield p, q, i


@dataclass(frozen=True)
class SphereClass:
    """An integer combination sum_i d_i A_i of the gradient sphere classes."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(d) for d in self.coeffs))

    @classmethod
    def unit(cls, n: int, i: int) -> "SphereClass":
        """The class A_i."""
        if not 1 <= i <= n:
            raise ValueError(f"index {i} out of range 1..{n}")
        return cls(tuple(1 if j == i else 0 for j in range(1, n + 1)))

    @classmethod
    def zero(cls, n: int) -> "SphereClass":
        return cls((0,) * n)

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.coeffs)

    def is_effective(self) -> bool:
        return all(d >= 0 for d in self.coeffs)

    def chern_number(self) -> int:
        """Each A_i has first Chern number 2; the pairing is additive."""
        return 2 * sum(self.coeffs)

    def area(self, assignment: "MomentAssignment") -> Fraction:
        if len(assignment.areas) != len(self.coeffs):
            raise ValueError("area assignment has the wrong length")
        return sum(
            (d * w for d, w in zip(self.coeffs, assignment.areas)), Fraction(0)
        )

    def __add__(self, other: "SphereClass") -> "SphereClass":
        return SphereClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))


@dataclass(frozen=True)
class MomentAssignment:
    """Positive symplectic areas omega_1..omega_n of the classes A_1..A_n."""

    areas: tuple[Fraction, ...]

    def __post_init__(self):
        areas = tuple(Fraction(w) for w in self.areas)
        object.__setattr__(self, "areas", areas)
        if any(w <= 0 for w in areas):
            raise ValueError("all areas must be positive")

    @classmethod
    def ones(cls, n: int) -> "MomentAssignment":
        return cls((Fraction(1),) * n)

    @classmethod
    def of(cls, values: Iterable[Scalar]) -> "MomentAssignment":
        return cls(tuple(Fraction(v) for v in values))

    def __len__(self) -> int:
        return len(self.areas)


def moment_value(p: SubsetPoint, assignment: MomentAssignment) -> Fraction:
    """Normalized moment-map value: half the signed sum of the areas.

    The model puts H(p_I) = (sum_{i in I} w_i - sum_{i not in I} w_i)/2, which
    makes every edge difference equal to w_i and H(p_I) = -H(p_{I^c}).
    """
    if len(assignment) != p.n:
        raise ValueError("area assignment has the wrong length")
    total = Fraction(0)
    for i, w in zip(range(1, p.n + 1), assignment.areas):
        total += w if i in p.members else -w
    return total / 2


def invariant_sphere_chern(x: SubsetPoint, y: SubsetPoint, p: int) -> int:
    """Chern number p*(m(x) - m(y)) of an invariant sphere joining two fixed points.

    Raises EqualWeightsError when the weight sums agree (only the zero class
    could join the points) and NonPositiveError when the multiplicity p has
    the sign that would make the result non-positive.
    """
    if p == 0:
        raise ValueError("multiplicity must be nonzero")
    mx, my = x.weight_sum(), y.weight_sum()
    if mx == my:
        raise EqualWeightsError("fixed points have equal weight sums")
    c = p * (mx - my)
    if c <= 0:
        raise NonPositiveError("multiplicity sign is wrong for this ordered pair")
    return c


def higher_order_infeasibility(n: int, relaxed: bool = False) -> list[tuple[int, int, int]]:
    """Feasible cardinality triples (|I|, |J|, |K|) for a higher-order correction.

    A correction supported on a chain rooted at a point of index 2|K| would
    need c_B := |I|-|J| > 0 and c_A := 2|K|-|I|-|J| >= 0 while the chain
    estimate forces c_A >= 2(2|K|-|I|-|J|); when c_A = 0 the root must satisfy
    c_B = 2(|K|-|J|) with |K| <= |J|.  The returned set is provably empty;
    ``relaxed=True`` drops the |K| <= |J| condition (a non-vacuity check).
    """
    feasible = []
    for i, j, k in itertools.product(range(n + 1), repeat=3):
        c_b = i - j
        if c_b <= 0:
            continue
        c_a = 2 * k - i - j
        if c_a < 0:
            continue
        if c_a < 2 * (2 * k - i - j):
            continue
        if c_a == 0:
            if c_b != 2 * (k - j):
                continue
            if not relaxed and k > j:
                continue
        feasible.append((i, j, k))
    return feasible


def betti_numbers(n: int) -> list[int]:
    """Count of fixed points by half Morse index, i.e. dim H_{2k}."""
    counts = [0] * (n + 1)
    for p in all_points(n):
        counts[p.morse_index() // 2] += 1
    return counts


def render_subset(members: Iterable[int]) -> str:
    return "{" + ",".join(str(i) for i in sorted(members)) + "}"
