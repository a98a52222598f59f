"""Expression grammar over the ring generators, shared by every CLI context.

    expr   := ('+'|'-')? term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' INT)?
    atom   := RATIONAL | GENERATOR | '(' expr ')'

RATIONAL is an integer with an optional '/denominator'; GENERATOR is x3, q1,
y, a{1,3}, b{2} or one of the blow-up symbols b, f, bf, eE, eF, depending on
the context.  Whitespace is insignificant.  Offsets in errors are 1-based
byte positions into the input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from . import blowup as blowup_mod
from . import gkm as gkm_mod
from . import quantum as quantum_mod
from .errors import QhcubeError
from .rings import render_signed_terms


class ExpressionError(QhcubeError):
    """Base class for expression failures; ``code`` is the stable CLI name."""

    code = "ExpressionError"
    exit_status = 2

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ExpressionSyntaxError(ExpressionError):
    code = "SyntaxError"


class UnknownGeneratorError(ExpressionError):
    code = "UnknownGenerator"


class IndexOutOfRangeError(ExpressionError):
    code = "IndexOutOfRange"


# -- abstract syntax ---------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Gen:
    name: str
    index: int | None = None
    members: frozenset[int] | None = None


@dataclass(frozen=True)
class Neg:
    operand: "Expression"


@dataclass(frozen=True)
class Pow:
    base: "Expression"
    exponent: int


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expression"
    right: "Expression"


Expression = Union[Num, Gen, Neg, Pow, BinOp]


# -- tokens ------------------------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")
_DIGITS_RE = re.compile(r"[0-9]+")
_SYMBOLS = {"+", "-", "*", "^", "(", ")", "{", "}", ","}


@dataclass(frozen=True)
class _Token:
    kind: str  # NUM | NAME | one of the symbols | EOF
    text: str
    offset: int  # 1-based byte offset
    value: Fraction | None = None


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    # 1-based byte offset of text[pos]; tokens are ASCII, so only whitespace
    # can take more than one byte per character.
    offset = 1
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            offset += len(ch.encode("utf-8"))
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, offset))
            pos += 1
            offset += 1
            continue
        m = _DIGITS_RE.match(text, pos)
        if m:
            numerator = int(m.group())
            end = m.end()
            value = Fraction(numerator)
            if end < len(text) and text[end] == "/":
                slash = offset + end + 1 - pos
                dm = _DIGITS_RE.match(text, end + 1)
                if dm is None:
                    raise ExpressionSyntaxError("expected digits after '/'", slash)
                denominator = int(dm.group())
                if denominator == 0:
                    raise ExpressionSyntaxError("zero denominator", slash)
                value = Fraction(numerator, denominator)
                end = dm.end()
            tokens.append(_Token("NUM", text[pos:end], offset, value))
        else:
            m = _NAME_RE.match(text, pos)
            if m is None:
                raise ExpressionSyntaxError(f"unexpected character {ch!r}", offset)
            end = m.end()
            tokens.append(_Token("NAME", m.group(), offset))
        offset += end - pos
        pos = end
    tokens.append(_Token("EOF", "", offset))
    return tokens


# -- contexts ----------------------------------------------------------------

_NAME_SPLIT_RE = re.compile(r"([A-Za-z]+)([0-9]*)$")


class QuantumContext:
    """Generators x1..xn and q1..qn over the quantum ring."""

    kind = "quantum"

    def __init__(self, n: int):
        self.n = n
        self.ring = quantum_mod.quantum_ring(n)

    def check_generator(self, name: str, members, offset: int) -> Gen:
        m = _NAME_SPLIT_RE.fullmatch(name)
        if members is not None or m is None or m.group(1) not in ("x", "q") or not m.group(2):
            raise UnknownGeneratorError(f"unknown generator {name!r}", offset)
        index = int(m.group(2))
        if not 1 <= index <= self.n:
            raise IndexOutOfRangeError(
                f"index {index} out of range 1..{self.n}", offset
            )
        return Gen(m.group(1), index=index)

    def check_member(self, i: int, offset: int):
        raise UnknownGeneratorError("subset generators are not quantum syntax", offset)

    def generator_value(self, gen: Gen):
        return self.ring.x(gen.index) if gen.name == "x" else self.ring.q(gen.index)

    def from_scalar(self, value: Fraction):
        return self.ring.const(value)


class EquivariantContext:
    """Generators a{I}, b{I} and y over the localization model."""

    kind = "equivariant"

    def __init__(self, n: int):
        self.n = n

    def check_generator(self, name: str, members, offset: int) -> Gen:
        if name == "y":
            if members is not None:
                raise UnknownGeneratorError("y takes no subset", offset)
            return Gen("y")
        if name in ("a", "b"):
            if members is None:
                raise UnknownGeneratorError(
                    f"{name} requires a subset literal like {name}{{1,2}}", offset
                )
            return Gen(name, members=members)
        raise UnknownGeneratorError(f"unknown generator {name!r}", offset)

    def check_member(self, i: int, offset: int):
        if not 1 <= i <= self.n:
            raise IndexOutOfRangeError(f"index {i} out of range 1..{self.n}", offset)

    def generator_value(self, gen: Gen):
        if gen.name == "y":
            return gkm_mod.EquivariantClass.y_class(self.n)
        if gen.name == "a":
            return gkm_mod.basis_a(self.n, gen.members)
        return gkm_mod.basis_b(self.n, gen.members)

    def from_scalar(self, value: Fraction):
        return gkm_mod.EquivariantClass.one(self.n) * value


class BlowupContext:
    """Generators b, f, bf, eE and eF of the blow-up ring."""

    kind = "blowup"
    n = None

    _VALUES = {
        "b": lambda: blowup_mod.BlowupClass.basis("b"),
        "f": lambda: blowup_mod.BlowupClass.basis("f"),
        "bf": lambda: blowup_mod.BlowupClass.basis("bf"),
        "eE": lambda: blowup_mod.BlowupClass.novikov(1, 0),
        "eF": lambda: blowup_mod.BlowupClass.novikov(0, 1),
    }

    def check_generator(self, name: str, members, offset: int) -> Gen:
        if members is not None or name not in self._VALUES:
            raise UnknownGeneratorError(f"unknown generator {name!r}", offset)
        return Gen(name)

    def check_member(self, i: int, offset: int):
        raise UnknownGeneratorError("subset generators are not blow-up syntax", offset)

    def generator_value(self, gen: Gen):
        return self._VALUES[gen.name]()

    def from_scalar(self, value: Fraction):
        return blowup_mod.BlowupClass.unit() * value


Context = Union[QuantumContext, EquivariantContext, BlowupContext]


# -- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token], context: Context):
        self.tokens = tokens
        self.context = context
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise ExpressionSyntaxError(
                f"expected {kind!r}, found {token.text or 'end of input'!r}",
                token.offset,
            )
        return self.advance()

    def parse(self) -> Expression:
        expr = self.expression()
        token = self.peek()
        if token.kind != "EOF":
            raise ExpressionSyntaxError(
                f"unexpected trailing input {token.text!r}", token.offset
            )
        return expr

    def expression(self) -> Expression:
        negate = False
        if self.peek().kind in ("+", "-"):
            negate = self.advance().kind == "-"
        node = self.term()
        if negate:
            node = Neg(node)
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expression:
        node = self.factor()
        while self.peek().kind == "*":
            self.advance()
            node = BinOp("*", node, self.factor())
        return node

    def factor(self) -> Expression:
        node = self.atom()
        if self.peek().kind == "^":
            self.advance()
            token = self.expect("NUM")
            if "/" in token.text:
                raise ExpressionSyntaxError("exponent must be an integer", token.offset)
            node = Pow(node, int(token.value))
        return node

    def atom(self) -> Expression:
        token = self.peek()
        if token.kind == "NUM":
            self.advance()
            return Num(token.value)
        if token.kind == "NAME":
            self.advance()
            members = None
            if self.peek().kind == "{":
                members = self.subset_literal()
            return self.context.check_generator(token.text, members, token.offset)
        if token.kind == "(":
            self.advance()
            node = self.expression()
            self.expect(")")
            return node
        raise ExpressionSyntaxError(
            f"expected a value, found {token.text or 'end of input'!r}", token.offset
        )

    def subset_literal(self) -> frozenset[int]:
        self.expect("{")
        members: set[int] = set()
        if self.peek().kind == "}":
            self.advance()
            return frozenset()
        while True:
            token = self.expect("NUM")
            if "/" in token.text:
                raise ExpressionSyntaxError(
                    "subset members must be integers", token.offset
                )
            member = int(token.value)
            self.context.check_member(member, token.offset)
            members.add(member)
            token = self.peek()
            if token.kind == ",":
                self.advance()
                continue
            if token.kind == "}":
                self.advance()
                return frozenset(members)
            raise ExpressionSyntaxError(
                f"expected ',' or '}}', found {token.text or 'end of input'!r}",
                token.offset,
            )


def parse(text: str, context: Context) -> Expression:
    """Parse an expression, validating generators against the context."""
    return _Parser(_tokenize(text), context).parse()


def evaluate(expr: Expression, context: Context):
    """Evaluate an AST to a ring element (or a bare Fraction for scalars)."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Gen):
        return context.generator_value(expr)
    if isinstance(expr, Neg):
        return -evaluate(expr.operand, context)
    if isinstance(expr, Pow):
        return evaluate(expr.base, context) ** expr.exponent
    if isinstance(expr, BinOp):
        left = evaluate(expr.left, context)
        right = evaluate(expr.right, context)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        return left * right
    raise TypeError(f"not an expression node: {expr!r}")


def parse_and_evaluate(text: str, context: Context):
    """Parse then evaluate, coercing a pure-scalar result into the ring."""
    value = evaluate(parse(text, context), context)
    if isinstance(value, Fraction):
        value = context.from_scalar(value)
    return value


# -- canonical expression renderings ------------------------------------------


def render_equivariant_expression(cls: gkm_mod.EquivariantClass) -> str:
    """Grammar-compatible rendering: the triangular-basis expansion flattened.

    Each basis coefficient lambda_I(y) contributes terms c*y^e*a{I}; the
    result parses back to an equal class in the equivariant context.
    """
    terms = []
    for point, lam in cls.decompose().items():
        for (e,), coeff in lam.terms.items():
            parts = []
            if e == 1:
                parts.append("y")
            elif e > 1:
                parts.append(f"y^{e}")
            if point.members:
                parts.append(f"a{point}")
            terms.append(("*".join(parts), coeff))
    return render_signed_terms(terms)
