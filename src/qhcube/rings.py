"""The sparse exact-algebra core and the polynomial rings built on it.

:class:`StructureAlgebra` is an immutable sparse combination of keyed terms
with nonzero ``Fraction`` coefficients, kept in a canonical order so that
equal elements have identical representations and one canonical rendering.
It owns the linear structure, comparison, powers and the signed-term text; a
subclass names its key order, key degree, key rendering and term product.
:class:`Polynomial` (exponent-tuple keys), the quantum classes of
``qhcube.quantum`` and the blow-up classes of ``qhcube.blowup`` are its
subclasses.

A polynomial lives in a declared ring: an ordered tuple of named variables,
each carrying an integer grading degree.  Quotients by relations of the form
v^k -> replacement are handled by :class:`RewriteSystem` together with
:meth:`Polynomial.normal_form`; this is the generic route against which the
closed-form quantum product is tested.  All coefficients are exact; there is
no floating point anywhere.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Union

Scalar = Union[int, Fraction]
Exponents = tuple[int, ...]


class VariableMismatchError(ValueError):
    """Operands belong to different polynomial rings."""


class UnknownVariableError(ValueError):
    """A name does not belong to the ring it is used with."""


class _DegreeMarker:
    """Singleton answers of ``graded_degree`` that are not integers."""

    __slots__ = ("_label",)

    def __init__(self, label: str):
        self._label = label

    def __repr__(self) -> str:
        return self._label


#: Marker for polynomials whose terms do not share a common degree.
INHOMOGENEOUS = _DegreeMarker("inhomogeneous")

#: Degree of the zero polynomial: compatible with every homogeneous degree.
ANY_DEGREE = _DegreeMarker("any")


def degrees_match(d1, d2) -> bool:
    """True when two graded degrees are equal, treating ANY_DEGREE as a wildcard."""
    if d1 is ANY_DEGREE or d2 is ANY_DEGREE:
        return True
    return d1 == d2


class PolyRing:
    """An ordered list of graded variable names; the context for polynomials.

    Two rings compare equal when they declare the same names with the same
    degrees in the same order, so independently constructed rings interoperate.
    """

    __slots__ = ("names", "degrees", "_index")

    def __init__(self, names: Iterable[str], degrees: Iterable[int]):
        names = tuple(names)
        degrees = tuple(int(d) for d in degrees)
        if len(names) != len(degrees):
            raise ValueError("one degree per variable is required")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.names = names
        self.degrees = degrees
        self._index = {name: i for i, name in enumerate(names)}

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyRing):
            return NotImplemented
        return self.names == other.names and self.degrees == other.degrees

    def __hash__(self) -> int:
        return hash((self.names, self.degrees))

    def __repr__(self) -> str:
        vars_ = ", ".join(f"{n}:{d}" for n, d in zip(self.names, self.degrees))
        return f"PolyRing({vars_})"

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariableError(f"unknown variable {name!r}") from None

    def monomial_degree(self, exps: Exponents) -> int:
        return sum(e * d for e, d in zip(exps, self.degrees))

    # -- constructors ------------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, value: Scalar) -> "Polynomial":
        c = Fraction(value)
        if c == 0:
            return self.zero()
        return Polynomial(self, {(0,) * len(self.names): c})

    def var(self, name: str) -> "Polynomial":
        exps = [0] * len(self.names)
        exps[self.index(name)] = 1
        return Polynomial(self, {tuple(exps): Fraction(1)})

    def monomial(self, exps: Mapping[str, int], coeff: Scalar = 1) -> "Polynomial":
        vec = [0] * len(self.names)
        for name, e in exps.items():
            vec[self.index(name)] = int(e)
        return self.poly({tuple(vec): coeff})

    def poly(self, terms: Mapping[Exponents, Scalar]) -> "Polynomial":
        """Build a polynomial from an exponent-tuple to coefficient mapping."""
        clean: dict[Exponents, Fraction] = {}
        for exps, coeff in terms.items():
            exps = tuple(map(int, exps))
            if len(exps) != len(self.names):
                raise ValueError("exponent tuple length does not match the ring")
            if exps and min(exps) < 0:
                raise ValueError("negative exponent")
            c = coeff if type(coeff) is Fraction else Fraction(coeff)
            if c:
                clean[exps] = clean[exps] + c if exps in clean else c
        return Polynomial(self, {m: c for m, c in clean.items() if c})

    def coerce(self, value: Union["Polynomial", Scalar]) -> "Polynomial":
        if isinstance(value, Polynomial):
            if value.ring != self:
                raise VariableMismatchError(
                    f"polynomial in {value.ring!r} used with {self!r}"
                )
            return value
        return self.const(value)

    def render_monomial(self, exps: Exponents) -> str:
        parts = []
        for name, e in zip(self.names, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)


_ZERO = Fraction(0)


def render_signed_terms(terms: Iterable[tuple[str, Fraction]]) -> str:
    """Canonical text of a sum of (body, coefficient) terms, e.g. ``-x1 + 3/2*q2``.

    An empty body is the unit; a zero sum renders as ``0``.
    """
    pieces = []
    for body, coeff in terms:
        mag = abs(coeff)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if pieces:
            pieces.append(f" - {text}" if coeff < 0 else f" + {text}")
        else:
            pieces.append(f"-{text}" if coeff < 0 else text)
    return "".join(pieces) or "0"


class StructureAlgebra:
    """Immutable sparse element of an algebra with exact rational coefficients.

    ``terms`` maps keys to nonzero Fractions in descending ``_order``.  Mixed
    operands must be of one class and share ``ring``; ints and Fractions act
    as multiples of the unit.  A subclass supplies ``_order``, ``_degree``,
    ``_render`` and ``_product`` for its keys, and ``_unit_key``.
    """

    __slots__ = ("ring", "terms", "_hash")

    #: Raised when operands of one class live in different rings.
    mismatch_error: type[ValueError] = ValueError

    def __init__(self, ring, terms: Mapping[Hashable, Fraction]):
        self.ring = ring
        self.terms = {key: terms[key] for key in sorted(terms, key=self._order, reverse=True)}
        self._hash = None

    # -- what a subclass supplies ------------------------------------------

    def _order(self, key) -> tuple:
        """Sort key of a term; terms are kept in descending order."""
        raise NotImplementedError

    def _degree(self, key) -> int:
        """Graded degree of a term."""
        raise NotImplementedError

    def _render(self, key) -> str:
        """Text of a term without its coefficient; empty for the unit."""
        raise NotImplementedError

    def _product(self, other) -> dict:
        """Terms of ``self * other``, nonzero coefficients only."""
        raise NotImplementedError

    def _unit_key(self):
        """Key of the unit term."""
        raise NotImplementedError

    # -- construction ------------------------------------------------------

    def _new(self, terms: Mapping[Hashable, Fraction]):
        """An element of the same class and ring, without input checks."""
        new = object.__new__(type(self))
        StructureAlgebra.__init__(new, self.ring, terms)
        return new

    def _scalar(self, value: Scalar):
        c = Fraction(value)
        return self._new({self._unit_key(): c} if c else {})

    def _other(self, value):
        if isinstance(value, type(self)):
            if value.ring != self.ring:
                raise self.mismatch_error("operands live in different rings")
            return value
        if isinstance(value, (int, Fraction)):
            return self._scalar(value)
        return None

    # -- basic protocol ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self._scalar(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        # Constants hash like their Fraction so that __eq__'s scalar coercion
        # keeps the eq/hash contract.
        if self._hash is None:
            if not self.terms:
                self._hash = hash(_ZERO)
            elif len(self.terms) == 1 and self._unit_key() in self.terms:
                self._hash = hash(next(iter(self.terms.values())))
            else:
                self._hash = hash((self.ring, tuple(self.terms.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"

    def __str__(self) -> str:
        return render_signed_terms((self._render(key), c) for key, c in self.terms.items())

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._other(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = out.get(key, _ZERO) + coeff
            if acc:
                out[key] = acc
            elif key in out:
                del out[key]
        return self._new(out)

    __radd__ = __add__

    def __neg__(self):
        return self._new({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        other = self._other(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._other(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return self._new({})
            return self._new({key: c * v for key, v in self.terms.items()})
        other = self._other(other)
        if other is None:
            return NotImplemented
        return self._new(self._product(other))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = self._scalar(1)
        for _ in range(k):
            out = out * self
        return out

    # -- structure ---------------------------------------------------------

    def coefficient(self, key) -> Fraction:
        return self.terms.get(key, _ZERO)

    def graded_degree(self):
        """Common degree of all terms, INHOMOGENEOUS, or ANY_DEGREE for zero."""
        if not self.terms:
            return ANY_DEGREE
        degs = {self._degree(key) for key in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return INHOMOGENEOUS


class Polynomial(StructureAlgebra):
    """Immutable sparse polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples to nonzero Fractions, in descending
    (graded degree, exponent tuple) order.  Arithmetic is available through
    the usual operators; mixed operands must share the ring.
    """

    __slots__ = ()

    mismatch_error = VariableMismatchError

    def _order(self, exps: Exponents) -> tuple:
        return (self.ring.monomial_degree(exps), exps)

    def _degree(self, exps: Exponents) -> int:
        return self.ring.monomial_degree(exps)

    def _render(self, exps: Exponents) -> str:
        return self.ring.render_monomial(exps)

    def _unit_key(self) -> Exponents:
        return (0,) * len(self.ring.names)

    def _product(self, other: "Polynomial") -> dict[Exponents, Fraction]:
        out: dict[Exponents, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                acc = out.get(mono, _ZERO) + c1 * c2
                if acc:
                    out[mono] = acc
                elif mono in out:
                    del out[mono]
        return out

    def coefficient(self, exps: Union[Exponents, Mapping[str, int]]) -> Fraction:
        if isinstance(exps, Mapping):
            vec = [0] * len(self.ring.names)
            for name, e in exps.items():
                vec[self.ring.index(name)] = int(e)
            exps = tuple(vec)
        return self.terms.get(tuple(exps), _ZERO)

    def is_homogeneous(self, degree: int) -> bool:
        return degrees_match(self.graded_degree(), degree)

    def substitute(self, assignment: Mapping[str, Union["Polynomial", Scalar]]) -> "Polynomial":
        """Simultaneous substitution of variables by polynomials or scalars.

        Polynomial values must all share one target ring; variables of ``self``
        left unassigned must exist (by name) in that ring.  With no polynomial
        values the target is the ring of ``self``.
        """
        for name in assignment:
            self.ring.index(name)
        target = self.ring
        for value in assignment.values():
            if isinstance(value, Polynomial):
                target = value.ring
                break
        images: dict[str, Polynomial] = {}
        for name, value in assignment.items():
            images[name] = target.coerce(value)
        result = target.zero()
        for mono, coeff in self.terms.items():
            acc = target.const(coeff)
            for name, e in zip(self.ring.names, mono):
                if e == 0:
                    continue
                factor = images.get(name)
                if factor is None:
                    factor = target.var(name)  # raises if absent from target
                acc = acc * factor**e
            result = result + acc
        return result

    def normal_form(self, system: "RewriteSystem") -> "Polynomial":
        """Reduce every monomial until no rule's power divides it.

        The rules rewrite disjoint single variables and strictly decrease the
        rewritten variable's exponent, so the reduction terminates and the
        result does not depend on rewrite order.
        """
        if system.ring != self.ring:
            raise VariableMismatchError("rewrite system belongs to a different ring")
        out: dict[Exponents, Fraction] = {}
        stack = list(self.terms.items())
        while stack:
            mono, coeff = stack.pop()
            hit = system.match(mono)
            if hit is None:
                acc = out.get(mono, _ZERO) + coeff
                if acc:
                    out[mono] = acc
                elif mono in out:
                    del out[mono]
                continue
            idx, power, replacement = hit
            base = list(mono)
            base[idx] -= power
            for rmono, rcoeff in replacement.terms.items():
                stack.append(
                    (tuple(b + r for b, r in zip(base, rmono)), coeff * rcoeff)
                )
        return Polynomial(self.ring, out)


class RewriteSystem:
    """Confluent rewrites ``v^k -> replacement`` on disjoint single variables.

    Each rule's left side is a pure power with k >= 2 and its replacement has
    strictly smaller v-exponent in every monomial, which guarantees
    termination; distinct rules touch distinct variables, so the reduction is
    confluent.
    """

    __slots__ = ("ring", "rules")

    def __init__(
        self,
        ring: PolyRing,
        rules: Mapping[str, tuple[int, Union[Polynomial, Scalar]]],
    ):
        self.ring = ring
        compiled: dict[int, tuple[int, Polynomial]] = {}
        for name, (power, replacement) in rules.items():
            idx = ring.index(name)
            power = int(power)
            if power < 2:
                raise ValueError("rewrite threshold must be at least 2")
            poly = ring.coerce(replacement)
            for mono in poly.terms:
                if mono[idx] >= power:
                    raise ValueError(
                        f"replacement for {name}^{power} does not reduce {name}"
                    )
            compiled[idx] = (power, poly)
        self.rules = compiled

    def match(self, mono: Exponents):
        """First applicable rule for a monomial, as (index, power, replacement)."""
        for idx, (power, replacement) in self.rules.items():
            if mono[idx] >= power:
                return idx, power, replacement
        return None


def elementary_symmetric(ring: PolyRing, k: int, names: Iterable[str] | None = None) -> Polynomial:
    """Sum of all k-element products of distinct listed variables; sigma_0 = 1."""
    pool = ring.names if names is None else tuple(names)
    for name in pool:
        ring.index(name)
    if k < 0 or k > len(pool):
        raise ValueError(f"symmetric function index {k} out of range for {len(pool)} variables")
    terms: dict[Exponents, Fraction] = {}
    for combo in itertools.combinations(pool, k):
        vec = [0] * len(ring.names)
        for name in combo:
            vec[ring.index(name)] += 1
        terms[tuple(vec)] = terms.get(tuple(vec), Fraction(0)) + 1
    return Polynomial(ring, terms)

