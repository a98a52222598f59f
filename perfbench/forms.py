"""Read program outputs into oracle form, and write inputs as expressions.

Only the documented surfaces are read: the canonical text rendering (signed
terms ``c*name^e*...`` joined by `` + `` and `` - ``), the JSON formats of the
README, and ``str`` of subsets and polynomials.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import oracles as O

_SPLIT = re.compile(r" ([+-]) ")
_FACTOR = re.compile(r"([A-Za-z]+)(\d*)(?:\^(\d+))?$")


def parse_terms(text: str) -> list[tuple[Fraction, list[tuple[str, str, int]]]]:
    """Canonical rendering -> [(coeff, [(letters, index, exponent), ...])]."""
    text = text.strip()
    if text == "0":
        return []
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    pieces = _SPLIT.split(text)
    out = []
    for pos in range(0, len(pieces), 2):
        if pos:
            sign = -1 if pieces[pos - 1] == "-" else 1
        parts = pieces[pos].split("*")
        coeff = Fraction(1)
        if parts[0][:1].isdigit():
            coeff = Fraction(parts.pop(0))
        factors = []
        for part in parts:
            m = _FACTOR.match(part)
            if m is None:
                raise ValueError(f"unreadable factor {part!r} in {text!r}")
            factors.append((m.group(1), m.group(2), int(m.group(3) or 1)))
        out.append((sign * coeff, factors))
    return out


def quantum_from_text(text: str, n: int) -> dict:
    out: dict = {}
    for coeff, factors in parse_terms(text):
        mask, q = 0, [0] * n
        for letters, index, e in factors:
            i = int(index) - 1
            if letters == "q":
                q[i] += e
            elif letters == "x" and e == 1:
                mask |= 1 << i
            else:
                raise ValueError(f"not a normal-form quantum term: {text!r}")
        O._acc(out, (mask, tuple(q)), coeff)
    return out


def y_from_text(text: str) -> dict:
    out: dict = {}
    for coeff, factors in parse_terms(text):
        e = 0
        for letters, index, power in factors:
            if letters != "y" or index:
                raise ValueError(f"not a polynomial in y: {text!r}")
            e += power
        O._acc(out, e, coeff)
    return out


def blowup_from_text(text: str) -> dict:
    out: dict = {}
    for coeff, factors in parse_terms(text):
        basis, d, f = 0, 0, 0
        for letters, index, power in factors:
            if letters == "eE":
                d += power
            elif letters == "eF":
                f += power
            elif letters in O.BASIS and power == 1 and basis == 0:
                basis = O.BASIS.index(letters)
            else:
                raise ValueError(f"not a blow-up term: {text!r}")
        O._acc(out, (basis, d, f), coeff)
    return out


def quantum_from_json(terms: list, n: int) -> dict:
    out: dict = {}
    for term in terms:
        mono = term["monomial"]
        if len(mono["q"]) != n:
            raise ValueError("q vector has the wrong length")
        O._acc(out, (O.mask_of(mono["x"]), tuple(mono["q"])), Fraction(term["coeff"]))
    return out


def blowup_from_json(terms: list) -> dict:
    out: dict = {}
    for term in terms:
        mono = term["monomial"]
        d, f = mono["novikov"]
        O._acc(out, (O.BASIS.index(mono["basis"]), d, f), Fraction(term["coeff"]))
    return out


def mask_from_text(text: str) -> int:
    inner = text.strip()[1:-1]
    return O.mask_of(int(t) for t in inner.split(",")) if inner else 0


def table_from_json(mapping: dict, n: int) -> list[dict]:
    """``{"{1,2}": "y^2", ...}`` -> table by mask; every point must appear."""
    table: list = [None] * (1 << n)
    for key, value in mapping.items():
        table[mask_from_text(key)] = y_from_text(value)
    if any(v is None for v in table):
        raise ValueError("table misses a fixed point")
    return table


# -- program objects --------------------------------------------------------------


def quantum_of(cls, n: int) -> dict:
    return quantum_from_json(cls.to_json_terms(), n)


def blowup_of(cls) -> dict:
    return blowup_from_json(cls.to_json_terms())


def table_of(cls, n: int) -> list[dict]:
    return table_from_json(cls.to_json_dict(), n)


def by_mask(mapping: dict, n: int) -> list[dict]:
    """A point-keyed map of polynomials in y (as ``decompose`` returns) by mask."""
    return table_from_json({str(k): str(v) for k, v in mapping.items()}, n)


# -- input expressions ---------------------------------------------------------------


def _signed(pieces: list[tuple[Fraction, str]]) -> str:
    out = []
    for c, body in pieces:
        mag = abs(c)
        text = body if mag == 1 and body else (f"{mag}*{body}" if body else str(mag))
        if not out:
            out.append(f"-{text}" if c < 0 else text)
        else:
            out.append(f" - {text}" if c < 0 else f" + {text}")
    return "".join(out) or "0"


def _power(name: str, e: int) -> str:
    return name if e == 1 else f"{name}^{e}"


def quantum_expr(cls: dict) -> str:
    pieces = []
    for (m, q), c in sorted(cls.items()):
        names = [_power(f"q{i + 1}", e) for i, e in enumerate(q) if e]
        names += [f"x{i}" for i in O.members_of(m)]
        pieces.append((c, "*".join(names)))
    return _signed(pieces)


def blowup_expr(cls: dict) -> str:
    pieces = []
    for (basis, d, f), c in sorted(cls.items()):
        names = [O.BASIS[basis]] if basis else []
        names += [_power("eE", d)] if d else []
        names += [_power("eF", f)] if f else []
        pieces.append((c, "*".join(names)))
    return _signed(pieces)
