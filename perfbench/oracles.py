"""Independent oracles: closed forms that never call qhcube.

Quantum ring QH*((P^1)^n).  A class is ``{(xmask, q): Fraction}``: bit i-1 of
``xmask`` stands for x_i and ``q`` is the tuple of q-exponents.  The product is
x_I q^a * x_J q^b = x_{I^J} q^{a+b+1_{I&J}}; the cup product is zero when
I & J is not empty; the pairing is the complement permutation.

Localization model.  A class is a list indexed by the mask of the fixed point
p_J, holding polynomials in y as ``{exponent: Fraction}``.  a_I restricts to
(-y)^|I| on supersets of I, b_I to y^(n-|I|) on subsets of I, and the total
Chern class at p_J is (1-3yt)^|J| (1-yt)^(n-|J|).  ``decompose`` is Moebius
inversion on the subset lattice.

Blow-up ring.  A class is ``{(basis, dE, dF): Fraction}`` over the basis
(1, b, f, bf) with Novikov monomials eE^dE eF^dF.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _acc(out: dict, key, value) -> None:
    total = out.get(key, 0) + value
    if total:
        out[key] = total
    else:
        out.pop(key, None)


def bits(mask: int, n: int) -> tuple[int, ...]:
    """Indicator vector of a mask, as a tuple of n zeros and ones."""
    return tuple(mask >> i & 1 for i in range(n))


def mask_of(members) -> int:
    return sum(1 << (i - 1) for i in set(members))


def members_of(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def subset_text(mask: int) -> str:
    return "{" + ",".join(map(str, members_of(mask))) + "}"


def ordered_masks(n: int) -> list[int]:
    """Masks of all subsets of {1..n}, ascending by size, then lexicographically."""
    return sorted(range(1 << n), key=lambda m: (m.bit_count(), members_of(m)))


# -- quantum ring --------------------------------------------------------------


def q_one(n: int) -> dict:
    return {(0, (0,) * n): Fraction(1)}


def q_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (m1, q1), c1 in a.items():
        for (m2, q2), c2 in b.items():
            both = m1 & m2
            q = tuple(x + y + (both >> i & 1) for i, (x, y) in enumerate(zip(q1, q2)))
            _acc(out, (m1 ^ m2, q), c1 * c2)
    return out


def q_cup(a: dict, b: dict) -> dict:
    out: dict = {}
    for (m1, q1), c1 in a.items():
        for (m2, q2), c2 in b.items():
            if not m1 & m2:
                _acc(out, (m1 | m2, tuple(x + y for x, y in zip(q1, q2))), c1 * c2)
    return out


def q_add(a: dict, b: dict, scale=1) -> dict:
    out = dict(a)
    for key, c in b.items():
        _acc(out, key, scale * c)
    return out


def q_pow(a: dict, k: int, n: int) -> dict:
    """Square-and-multiply: a different route from repeated multiplication."""
    result, base = q_one(n), a
    while k:
        if k & 1:
            result = q_mul(result, base)
        k >>= 1
        if k:
            base = q_mul(base, base)
    return result


def q_seidel(a: dict, n: int) -> dict:
    """x_S * x_I q^a = x_{I^c} q^{a + 1_I}."""
    full = (1 << n) - 1
    out: dict = {}
    for (m, q), c in a.items():
        _acc(out, (full ^ m, tuple(x + y for x, y in zip(q, bits(m, n)))), c)
    return out


def q_pairing(a: dict, b: dict, n: int) -> Fraction:
    full = (1 << n) - 1
    total = Fraction(0)
    for (m1, q1), c1 in a.items():
        if any(q1):
            continue
        for (m2, q2), c2 in b.items():
            if not any(q2) and m1 ^ m2 == full and not m1 & m2:
                total += c1 * c2
    return total


def q_gw(n: int, i: int, j: int, k: int, d: tuple[int, ...]) -> Fraction:
    """<x_I, x_J, x_K>_d: 1 exactly when x_I * x_J = x_{K^c} q^d."""
    if i.bit_count() + j.bit_count() + k.bit_count() != n + 2 * sum(d):
        return Fraction(0)
    full = (1 << n) - 1
    return Fraction(int(i ^ j == full ^ k and tuple(d) == bits(i & j, n)))


def q_basis_product(i_mask: int, j: int, n: int) -> dict:
    """x_I * x_j, the entry the structure-constant solver re-derives."""
    return q_mul({(i_mask, (0,) * n): Fraction(1)}, {(1 << (j - 1), (0,) * n): Fraction(1)})


def sympy_q_mul(a: dict, b: dict, n: int) -> dict | None:
    """Second oracle: sympy expands, then x_i^2 -> q_i.  None without sympy."""
    try:
        import sympy
    except ImportError:
        return None
    xs = sympy.symbols(f"x1:{n + 1}")
    qs = sympy.symbols(f"q1:{n + 1}")

    def expr(cls):
        total = sympy.Integer(0)
        for (m, q), c in cls.items():
            term = sympy.Rational(c.numerator, c.denominator)
            for i in range(n):
                term *= xs[i] ** (m >> i & 1) * qs[i] ** q[i]
            total += term
        return total

    product = sympy.Poly(sympy.expand(expr(a) * expr(b)), *xs, *qs)
    out: dict = {}
    for monom, coeff in product.terms():
        xe, qe = monom[:n], monom[n:]
        mask = sum(1 << i for i, e in enumerate(xe) if e % 2)
        q = tuple(qe[i] + xe[i] // 2 for i in range(n))
        _acc(out, (mask, q), Fraction(int(coeff.p), int(coeff.q)))
    return out


# -- localization --------------------------------------------------------------


def y_mul(p: dict, r: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in r.items():
            _acc(out, e1 + e2, c1 * c2)
    return out


def y_add(p: dict, r: dict, scale=1) -> dict:
    out = dict(p)
    for e, c in r.items():
        _acc(out, e, scale * c)
    return out


def loc_a(n: int, members_mask: int) -> list[dict]:
    k = members_mask.bit_count()
    value = {k: Fraction((-1) ** k)}
    return [dict(value) if m & members_mask == members_mask else {} for m in range(1 << n)]


def loc_b(n: int, members_mask: int) -> list[dict]:
    value = {n - members_mask.bit_count(): Fraction(1)}
    return [dict(value) if not m & ~members_mask else {} for m in range(1 << n)]


def loc_const(n: int, value: dict) -> list[dict]:
    return [dict(value) for _ in range(1 << n)]


def loc_add(s: list[dict], t: list[dict], scale=1) -> list[dict]:
    return [y_add(p, r, scale) for p, r in zip(s, t)]


def loc_mul(s: list[dict], t: list[dict]) -> list[dict]:
    return [y_mul(p, r) for p, r in zip(s, t)]


def loc_decompose(table: list[dict], n: int) -> list[dict] | None:
    """lambda_I with table = sum lambda_I a_I, or None when not in the span.

    Moebius inversion gives g_I = sum_{J <= I} (-1)^{|I-J|} table_J, which
    equals lambda_I (-y)^{|I|}; the division by y^{|I|} is the span test.
    """
    g = [dict(p) for p in table]
    for i in range(n):
        bit = 1 << i
        for m in range(1 << n):
            if m & bit:
                g[m] = y_add(g[m], g[m ^ bit], -1)
    out = []
    for m, p in enumerate(g):
        k = m.bit_count()
        if any(e < k for e in p):
            return None
        out.append({e - k: c * (-1) ** k for e, c in p.items()})
    return out


def loc_gkm_ok(table: list[dict], n: int) -> bool:
    """Every edge p_J -> p_{J+i} changes the restriction by a multiple of y."""
    for m in range(1 << n):
        for i in range(n):
            if not m >> i & 1 and table[m | 1 << i].get(0, 0) != table[m].get(0, 0):
                return False
    return True


def loc_chern(n: int) -> list[list[dict]]:
    """c_1..c_n: the t^k coefficient of (1-3yt)^|J| (1-yt)^(n-|J|) at p_J."""
    out = []
    for k in range(1, n + 1):
        by_size = []
        for j in range(n + 1):
            c = sum(
                math.comb(j, a) * (-3) ** a * math.comb(n - j, k - a) * (-1) ** (k - a)
                for a in range(0, min(j, k) + 1)
            )
            by_size.append({k: Fraction(c)} if c else {})
        out.append([dict(by_size[m.bit_count()]) for m in range(1 << n)])
    return out


def loc_reduce(table: list[dict], n: int) -> dict | None:
    """y = 0 on the basis coefficients, as a quantum-ring class."""
    lam = loc_decompose(table, n)
    if lam is None:
        return None
    zero = (0,) * n
    return {(m, zero): p[0] for m, p in enumerate(lam) if p.get(0)}


# -- blow-up ring ------------------------------------------------------------------

BASIS = ("1", "b", "f", "bf")

# The quantum product of the blow-up of the projective plane on the basis
# (1, b, f, bf), with Novikov shifts (dE, dF):
#   b*b = -bf + b eE + eF,  b*f = bf - b eE,  f*f = b eE,
#   bf*b = f eF,  bf*f = eE eF,  bf*bf = (b + f) eE eF.
_BL = {
    (1, 1): ((3, 0, 0, -1), (1, 1, 0, 1), (0, 0, 1, 1)),
    (1, 2): ((3, 0, 0, 1), (1, 1, 0, -1)),
    (2, 2): ((1, 1, 0, 1),),
    (1, 3): ((2, 0, 1, 1),),
    (2, 3): ((0, 1, 1, 1),),
    (3, 3): ((1, 1, 1, 1), (2, 1, 1, 1)),
}


def _bl_basis(i: int, j: int):
    if i == 0:
        return ((j, 0, 0, 1),)
    if j == 0:
        return ((i, 0, 0, 1),)
    return _BL[(min(i, j), max(i, j))]


def bl_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (b1, d1, e1), c1 in a.items():
        for (b2, d2, e2), c2 in b.items():
            for basis, dd, de, sign in _bl_basis(b1, b2):
                _acc(out, (basis, d1 + d2 + dd, e1 + e2 + de), c1 * c2 * sign)
    return out


def bl_pow(a: dict, k: int) -> dict:
    result, base = {(0, 0, 0): Fraction(1)}, a
    while k:
        if k & 1:
            result = bl_mul(result, base)
        k >>= 1
        if k:
            base = bl_mul(base, base)
    return result


class BasisPowers:
    """Cached powers e^k of the basis elements, grown one factor at a time."""

    def __init__(self):
        self._powers: dict[int, list[dict]] = {}

    def get(self, basis: int, k: int) -> dict:
        seq = self._powers.setdefault(basis, [{(0, 0, 0): Fraction(1)}])
        while len(seq) <= k:
            seq.append(bl_mul(seq[-1], {(basis, 0, 0): Fraction(1)}))
        return seq[k]

    def monomial_power(self, term: tuple[int, int, int], coeff: Fraction, k: int) -> dict:
        """(coeff * e eE^d eF^f)^k = coeff^k eE^(dk) eF^(fk) e^k."""
        basis, d, f = term
        return {
            (b, dd + d * k, ff + f * k): c * coeff**k
            for (b, dd, ff), c in self.get(basis, k).items()
        }


#: Divisor axiom for the exceptional class E (E.E = -1, E.F = 1): the
#: three-point invariant GW_E(c1, c2, c3) is the product of the E.c_i.
E_DOT = {"b": -1, "f": 1}


def bl_gw_signs() -> dict[tuple[str, str, str], int]:
    out = {}
    for c1 in "bf":
        for c2 in "bf":
            for c3 in "bf":
                out[(c1, c2, c3)] = E_DOT[c1] * E_DOT[c2] * E_DOT[c3]
    return out


#: Chern numbers of E and F (deg eE = 2, deg eF = 4).
BL_CHERN = (1, 2)

# Inverse of the intersection pairing 1.bf = 1, b.b = -1, b.f = 1, f.f = 0.
_GINV = (
    (0, 0, 0, 1),
    (0, 0, 1, 0),
    (0, 1, 1, 0),
    (1, 0, 0, 0),
)


def bl_stratum(values: dict[str, Fraction]) -> dict[int, Fraction]:
    out: dict = {}
    for name, v in values.items():
        k = BASIS.index(name)
        for j in range(4):
            if _GINV[k][j]:
                _acc(out, j, Fraction(v) * _GINV[k][j])
    return out
