"""Expression grammar: trees, errors with offsets, evaluation, round trips."""

import random
from fractions import Fraction

import pytest

from qhcube import quantum_ring
from qhcube.expressions import (
    BinOp,
    BlowupContext,
    EquivariantContext,
    ExpressionSyntaxError,
    Gen,
    IndexOutOfRangeError,
    Num,
    QuantumContext,
    UnknownGeneratorError,
    _tokenize,
    parse,
    parse_and_evaluate,
    render_equivariant_expression,
)


def test_parse_quantum_tree():
    tree = parse("x1*x1 + 3/2*q2", QuantumContext(2))
    assert tree == BinOp(
        "+",
        BinOp("*", Gen("x", index=1), Gen("x", index=1)),
        BinOp("*", Num(Fraction(3, 2)), Gen("q", index=2)),
    )


def test_parse_equivariant_tree():
    tree = parse("a{1,3}*b{2}", EquivariantContext(3))
    assert tree == BinOp(
        "*",
        Gen("a", members=frozenset([1, 3])),
        Gen("b", members=frozenset([2])),
    )


def test_evaluate_quantum():
    r = quantum_ring(2)
    value = parse_and_evaluate("x1*x1 + 3/2*q2", QuantumContext(2))
    assert value == r.q(1) + Fraction(3, 2) * r.q(2)


def test_power_and_unary_minus():
    r = quantum_ring(2)
    assert parse_and_evaluate("-x1 + q1^2", QuantumContext(2)) == -r.x(1) + r.q(1) * r.q(1)
    assert parse_and_evaluate("(x1 + x2)^2", QuantumContext(2)) == (r.x(1) + r.x(2)) ** 2


def test_scalar_expression_coerces():
    r = quantum_ring(2)
    assert parse_and_evaluate("3/2", QuantumContext(2)) == r.const(Fraction(3, 2))


def test_index_out_of_range():
    with pytest.raises(IndexOutOfRangeError) as err:
        parse("x3", QuantumContext(2))
    assert err.value.offset == 1


def test_unknown_generator():
    with pytest.raises(UnknownGeneratorError):
        parse("z1", QuantumContext(2))
    with pytest.raises(UnknownGeneratorError):
        parse("a{1}", QuantumContext(2))
    with pytest.raises(UnknownGeneratorError):
        parse("a", EquivariantContext(2))
    with pytest.raises(UnknownGeneratorError):
        parse("x1", BlowupContext())


def test_syntax_error_offsets():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("x1 + ", QuantumContext(2))
    assert err.value.offset == 6
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("x1 $ x2", QuantumContext(2))
    assert err.value.offset == 4
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("(x1", QuantumContext(2))
    assert err.value.offset == 4
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("x1 x2", QuantumContext(2))
    assert err.value.offset == 4


def test_offsets_count_utf8_bytes():
    # U+00A0 is whitespace and takes two bytes in UTF-8.
    with pytest.raises(IndexOutOfRangeError) as err:
        parse("\u00a0x3", QuantumContext(2))
    assert err.value.offset == 3
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("x1 +\u00a0\u00a0x1 ^ q", QuantumContext(2))
    assert err.value.offset == 14
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("\u00a0 1/0", QuantumContext(2))
    assert err.value.offset == 6


def test_token_offsets_on_long_mixed_whitespace():
    rng = random.Random(99)
    spaces = [" ", "\t", "\u00a0", "\u2003", "\u3000"]
    pieces, starts = [], []
    for _ in range(2000):
        pieces.append("".join(rng.choice(spaces) for _ in range(rng.randint(1, 2))))
        starts.append(sum(map(len, pieces)))
        pieces.append(rng.choice(["x1", "+", "3/4", "q12", "("]))
    text = "".join(pieces)
    tokens = _tokenize(text)
    want = [len(text[:i].encode("utf-8")) + 1 for i in starts + [len(text)]]
    assert [t.offset for t in tokens] == want


def test_subset_literal_errors():
    with pytest.raises(IndexOutOfRangeError):
        parse("a{5}", EquivariantContext(2))
    with pytest.raises(ExpressionSyntaxError):
        parse("a{1,}", EquivariantContext(2))


def test_zero_denominator():
    with pytest.raises(ExpressionSyntaxError):
        parse("1/0", QuantumContext(2))


def test_whitespace_insignificant():
    ctx = QuantumContext(2)
    assert parse_and_evaluate(" x1 * x2 ", ctx) == parse_and_evaluate("x1*x2", ctx)


def test_blowup_generators():
    from qhcube.blowup import BlowupClass

    ctx = BlowupContext()
    assert parse_and_evaluate("bf - b*eE", ctx) == BlowupClass.basis(
        "bf"
    ) - BlowupClass.basis("b") * BlowupClass.novikov(1, 0)


# -- round trips -----------------------------------------------------------------


def test_quantum_round_trip():
    rng = random.Random(1234)
    from helpers import random_quantum_class

    ctx_cache = {}
    for _ in range(100):
        n = rng.randint(1, 4)
        ctx = ctx_cache.setdefault(n, QuantumContext(n))
        cls = random_quantum_class(rng, n)
        rendered = str(cls)
        assert parse_and_evaluate(rendered, ctx) == cls
        assert str(parse_and_evaluate(rendered, ctx)) == rendered


def test_equivariant_round_trip():
    rng = random.Random(4321)
    from helpers import random_gkm_class

    ctx_cache = {}
    for _ in range(100):
        n = rng.randint(1, 3)
        ctx = ctx_cache.setdefault(n, EquivariantContext(n))
        cls = random_gkm_class(rng, n)
        rendered = render_equivariant_expression(cls)
        assert parse_and_evaluate(rendered, ctx) == cls


def test_blowup_round_trip():
    rng = random.Random(999)
    from helpers import random_blowup_class

    ctx = BlowupContext()
    for _ in range(100):
        cls = random_blowup_class(rng)
        rendered = str(cls)
        assert parse_and_evaluate(rendered, ctx) == cls
        assert str(parse_and_evaluate(rendered, ctx)) == rendered
