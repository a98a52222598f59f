"""Quantum cohomology of the one-point blow-up of the projective plane.

The cohomology basis is {1, b, f, bf}: b and f are dual to the exceptional
divisor and the fiber class, bf is the point class.  Novikov monomials track
effective multiples of the exceptional class E and the fiber class F; the
quantum product is the bilinear extension of a six-entry table.  This ring is
the standard counterexample in which the Seidel automorphism acquires
higher-order Novikov corrections (the circle action has non-isolated fixed
sets), in contrast with the hypercube rings.

The degrees of the Novikov variables are not free parameters: requiring every
table entry to be degree-homogeneous forces deg e^E = 2 and deg e^F = 4,
i.e. Chern numbers 1 and 2; ``derive_chern_numbers`` recovers them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping

from .linsolve import InconsistentError, solve_unique
from .rings import _ZERO, Scalar, StructureAlgebra

#: Cohomology basis names, in storage order.
BASIS = ("1", "b", "f", "bf")
BASIS_DEGREE = (0, 2, 2, 4)

#: deg e^E and deg e^F (twice the Chern numbers).
NOVIKOV_DEGREE = (2, 4)

#: Intersection pairing on the basis: g[i][j] = integral of e_i * e_j.
PAIRING = (
    (Fraction(0), Fraction(0), Fraction(0), Fraction(1)),
    (Fraction(0), Fraction(-1), Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(1), Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
)

# Term key: (basis index, E exponent, F exponent).
TermKey = tuple[int, int, int]

# Quantum products of basis elements: entries (basis, dE, dF, coefficient).
# Unit row and commutativity fill in the rest.
_TABLE: dict[tuple[int, int], tuple[tuple[int, int, int, int], ...]] = {
    (1, 1): ((3, 0, 0, -1), (1, 1, 0, 1), (0, 0, 1, 1)),  # b*b = -bf + b eE + eF
    (1, 2): ((3, 0, 0, 1), (1, 1, 0, -1)),  # b*f = bf - b eE
    (2, 2): ((1, 1, 0, 1),),  # f*f = b eE
    (3, 1): ((2, 0, 1, 1),),  # bf*b = f eF
    (3, 2): ((0, 1, 1, 1),),  # bf*f = e^(E+F)
    (3, 3): ((1, 1, 1, 1), (2, 1, 1, 1)),  # bf*bf = (b+f) e^(E+F)
}


def _basis_product(i: int, j: int) -> tuple[tuple[int, int, int, int], ...]:
    if i == 0:
        return ((j, 0, 0, 1),)
    if j == 0:
        return ((i, 0, 0, 1),)
    entry = _TABLE.get((i, j))
    if entry is None:
        entry = _TABLE[(j, i)]
    return entry


class BlowupClass(StructureAlgebra):
    """A rational combination of basis elements with Novikov monomials e^(dE+eF)."""

    __slots__ = ()

    def __init__(self, terms: Mapping[TermKey, Scalar]):
        clean: dict[TermKey, Fraction] = {}
        for (basis, d, e), coeff in terms.items():
            if not 0 <= basis < len(BASIS):
                raise ValueError(f"basis index {basis} out of range")
            if d < 0 or e < 0:
                raise ValueError("Novikov exponents must be non-negative")
            c = Fraction(coeff)
            if c:
                key = (int(basis), int(d), int(e))
                acc = clean.get(key, _ZERO) + c
                if acc:
                    clean[key] = acc
                elif key in clean:
                    del clean[key]
        super().__init__(None, clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "BlowupClass":
        return cls({})

    @classmethod
    def basis(cls, name: str) -> "BlowupClass":
        return cls({(BASIS.index(name), 0, 0): 1})

    @classmethod
    def unit(cls) -> "BlowupClass":
        return cls.basis("1")

    @classmethod
    def novikov(cls, d: int, e: int) -> "BlowupClass":
        """The pure Novikov monomial e^(dE + eF)."""
        return cls({(0, d, e): 1})

    # -- the algebra on (basis, dE, dF) keys ---------------------------------

    def _order(self, key: TermKey) -> tuple[int, int, int, int]:
        # Classical stratum first, then by Novikov monomial, then basis order.
        basis, d, e = key
        return (-d - e, -e, -d, -basis)

    def _degree(self, key: TermKey) -> int:
        basis, d, e = key
        return BASIS_DEGREE[basis] + d * NOVIKOV_DEGREE[0] + e * NOVIKOV_DEGREE[1]

    def _render(self, key: TermKey) -> str:
        basis, d, e = key
        parts = []
        if basis != 0:
            parts.append(BASIS[basis])
        if d == 1:
            parts.append("eE")
        elif d > 1:
            parts.append(f"eE^{d}")
        if e == 1:
            parts.append("eF")
        elif e > 1:
            parts.append(f"eF^{e}")
        return "*".join(parts)

    def _unit_key(self) -> TermKey:
        return (0, 0, 0)

    def _product(self, other: "BlowupClass") -> dict[TermKey, Fraction]:
        """Quantum product: the table on basis elements, Novikov exponents add."""
        out: dict[TermKey, Fraction] = {}
        for (b1, d1, e1), c1 in self.terms.items():
            for (b2, d2, e2), c2 in other.terms.items():
                for basis, dd, de, coeff in _basis_product(b1, b2):
                    key = (basis, d1 + d2 + dd, e1 + e2 + de)
                    acc = out.get(key, _ZERO) + c1 * c2 * coeff
                    if acc:
                        out[key] = acc
                    elif key in out:
                        del out[key]
        return out

    # -- structure -----------------------------------------------------------

    def novikov_strata(self) -> set[tuple[int, int]]:
        return {(d, e) for (_, d, e) in self.terms}

    def stratum(self, d: int, e: int) -> dict[int, Fraction]:
        """Basis-coefficient map of the e^(dE+eF) part."""
        return {
            basis: coeff
            for (basis, dd, ee), coeff in self.terms.items()
            if (dd, ee) == (d, e)
        }

    def is_basis_element(self) -> bool:
        if len(self.terms) != 1:
            return False
        (basis, d, e), coeff = next(iter(self.terms.items()))
        return (d, e) == (0, 0) and coeff == 1

    def to_json_terms(self) -> list[dict]:
        return [
            {
                "monomial": {"basis": BASIS[basis], "novikov": [d, e]},
                "coeff": str(coeff),
            }
            for (basis, d, e), coeff in self.terms.items()
        ]


#: Shape of ``BlowupClass.to_json_terms`` output.
BLOWUP_CLASS_JSON_SCHEMA = {
    "type": "array",
    "items": {
        "type": "object",
        "properties": {
            "monomial": {
                "type": "object",
                "properties": {
                    "basis": {"enum": list(BASIS)},
                    "novikov": {
                        "type": "array",
                        "items": {"type": "integer", "minimum": 0},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                },
                "required": ["basis", "novikov"],
                "additionalProperties": False,
            },
            "coeff": {"type": "string", "pattern": "^-?[0-9]+(/[0-9]+)?$"},
        },
        "required": ["monomial", "coeff"],
        "additionalProperties": False,
    },
}


def seidel_blowup(a: BlowupClass) -> BlowupClass:
    """The Seidel automorphism of this action: quantum multiplication by b."""
    return BlowupClass.basis("b") * a


def has_higher_order_terms(a: BlowupClass, result: BlowupClass) -> bool:
    """True when the image of a basis element spreads over several Novikov strata."""
    if not a.is_basis_element():
        raise ValueError("input must be a single basis element")
    return len(result.novikov_strata()) > 1


def pairing_inverse() -> tuple[tuple[Fraction, ...], ...]:
    """Inverse of the intersection pairing, computed by exact elimination."""
    size = len(BASIS)
    columns = []
    for j in range(size):
        rhs = [Fraction(1) if i == j else Fraction(0) for i in range(size)]
        columns.append(solve_unique([list(row) for row in PAIRING], rhs))
    return tuple(tuple(columns[j][i] for j in range(size)) for i in range(size))


def stratum_from_invariants(values: Mapping[str, Scalar]) -> dict[int, Fraction]:
    """Push three-point invariants through the inverse pairing.

    Given the invariants <a, c, e_k> for one curve class (keyed by the basis
    name of e_k), returns the basis coefficients of that class's stratum of
    the quantum product a*c.
    """
    ginv = pairing_inverse()
    out: dict[int, Fraction] = {}
    for name, value in values.items():
        k = BASIS.index(name)
        v = Fraction(value)
        if not v:
            continue
        for j in range(len(BASIS)):
            if ginv[k][j]:
                out[j] = out.get(j, Fraction(0)) + v * ginv[k][j]
    return {j: c for j, c in out.items() if c}


def gw_sign_solver() -> dict[tuple[str, str, str], int]:
    """Signs of the exceptional-class invariants <c1,c2,c3> with c_i in {b, f}.

    The unknowns are symmetric in the three insertions; the e^E strata of the
    quantum products b*b, b*f, f*f pin them down through the inverse pairing.
    Raises InconsistentError when no assignment matches the table.  The output
    covers all eight ordered triples (values depend only on the multiset) and
    is derived, table-consistent data.
    """
    multisets = [("b", "b", "b"), ("b", "b", "f"), ("b", "f", "f"), ("f", "f", "f")]
    col = {ms: idx for idx, ms in enumerate(multisets)}
    ginv = pairing_inverse()

    def multiset(*names: str) -> tuple[str, str, str]:
        return tuple(sorted(names, key=BASIS.index))  # type: ignore[return-value]

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for a_name, c_name in itertools.product(("b", "f"), repeat=2):
        product = BlowupClass.basis(a_name) * BlowupClass.basis(c_name)
        target = product.stratum(1, 0)
        for j in range(len(BASIS)):
            row = [Fraction(0)] * len(multisets)
            for k_name in ("b", "f"):
                k = BASIS.index(k_name)
                row[col[multiset(a_name, c_name, k_name)]] += ginv[k][j]
            rows.append(row)
            rhs.append(target.get(j, Fraction(0)))
    solution = solve_unique(rows, rhs)
    signs: dict[tuple[str, str, str], int] = {}
    for names in itertools.product(("b", "f"), repeat=3):
        value = solution[col[multiset(*names)]]
        if value.denominator != 1:
            raise InconsistentError("invariant is not an integer")
        signs[names] = int(value)
    return signs


def derive_chern_numbers() -> tuple[int, int]:
    """Chern numbers of E and F forced by degree homogeneity of the table.

    Treats deg e^E and deg e^F as unknowns, requires every table entry to be
    homogeneous, and solves; the unique solution is (1, 2) after halving.
    """
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for (i, j), entry in _TABLE.items():
        total = BASIS_DEGREE[i] + BASIS_DEGREE[j]
        for basis, d, e, _coeff in entry:
            if d == 0 and e == 0:
                if BASIS_DEGREE[basis] != total:
                    raise InconsistentError("classical term breaks homogeneity")
                continue
            rows.append([Fraction(d), Fraction(e)])
            rhs.append(Fraction(total - BASIS_DEGREE[basis]))
    deg_e, deg_f = solve_unique(rows, rhs)
    for value in (deg_e, deg_f):
        if value <= 0 or value.denominator != 1 or int(value) % 2:
            raise InconsistentError("Novikov degrees must be positive even integers")
    return int(deg_e) // 2, int(deg_f) // 2


#: Non-exceptional invariants read off the table (normalizations, not solved).
REFERENCE_INVARIANTS = {
    ("L", ("bf", "bf", "f")): Fraction(1),
    ("F", ("bf", "b", "b")): Fraction(1),
}
