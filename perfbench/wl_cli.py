"""cli-cold: one ``python -m qhcube ...`` child at a time, cold each time.

A round covers all 13 subcommands, four invocations each (the README example
and three seeded ones, n in 1..5, ``solve`` at n <= 4), each in
``--format text`` and ``--format json``; seven malformed or hostile
invocations; and the six known failures below.  Expressions range from one
token to flat sums of 800 terms and nesting 200 deep.

``morse --n 24``-style 2^n enumerations are left out: they would allocate
gigabytes on a shared machine.
"""

from __future__ import annotations

import io
import json
import random
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from . import forms as F
from . import oracles as O
from .harness import Completed, Op, run_child

#: Per-invocation time limit; the slowest regular invocation takes about 0.4 s.
LIMIT_S = 1.5

#: Inputs that break the CLI contract today.  Each counts as a failed op
#: (``failed_frac``) while it fails in the listed way; once it gets the
#: contract's single ``error:`` line and exit code in time, it counts as ok.
KNOWN_FAILURES = {
    "flat-sum-1500": (["mul", "--n", "2", "+".join(["x1"] * 1500), "1"], "recursion"),
    "nested-5000": (["mul", "--n", "2", "(" * 5000 + "x1" + ")" * 5000, "1"], "recursion"),
    "power-3000001": (["mul", "--n", "1", "x1^3000001", "1"], "timeout"),
    "blowup-power-2000000": (["blowup", "mul", "eE^2000000", "1"], "timeout"),
    "restrict-power": (["restrict", "--n", "3", "y^99999999999", "--point", "{}"], "timeout"),
    "certify-3000": (["certify", "--n", "3000"], "timeout"),
}

#: README examples and, where the README prints it, their exact text output.
README = {
    "seidel": (["seidel", "--n", "2", "x1"], "q1*x2\n"),
    "mul": (["mul", "--n", "2", "x1*x1 + 3/2*q2", "1"], "q1 + 3/2*q2\n"),
    "cup": (["cup", "--n", "2", "x1", "x1"], "0\n"),
    "gw": (["gw", "--n", "2", "--i", "{1}", "--j", "{1}", "--k", "{1,2}", "--d", "1,0"], "1\n"),
    "decompose": (["decompose", "--n", "2", "b{}"], "{}: y^2\n{1}: y\n{2}: y\n{1,2}: 1\n"),
    "restrict": (["restrict", "--n", "3", "b{}", "--point", "{}"], "y^3\n"),
    "chern": (["chern", "--n", "2"], None),
    "solve": (["solve", "--n", "2"], None),
    "certify": (["certify", "--n", "5"], "EMPTY\n"),
    "morse": (["morse", "--n", "2", "--areas", "1,3/2", "moment"], None),
    "blowup-seidel": (["blowup", "seidel", "f"], "bf - b*eE\n"),
    "blowup-mul": (["blowup", "mul", "b", "b"], "-bf + b*eE + eF\n"),
    "blowup-signs": (["blowup", "signs"], None),
}
SUBCOMMANDS = tuple(README)
FORMATS = ("text", "json")
VARIANTS = 4
#: n of the six seeded invocations of each subcommand (solve caps it at 4).
SEEDED_NS = (1, 2, 3, 4, 5, 5)
HOSTILE_PER_ROUND = 7
#: Seeded expression sizes grow with n: flat sums of 160n terms, nesting 40n deep.
FLAT_TERMS_PER_N = 160
NESTING_PER_N = 40


def _positional(expr: str) -> str:
    """argparse reads an argument starting with '-' as an option: parenthesize."""
    return f"({expr})" if expr.startswith("-") else expr


def contract_ok(done: Completed) -> bool:
    """Exit 0 with a quiet stderr, or one ``error:`` line and exit 1 or 2."""
    if done.timed_out:
        return False
    if done.code == 0:
        return done.err == ""
    lines = done.err.splitlines()
    return done.code in (1, 2) and len(lines) == 1 and lines[0].startswith("error: ")


def _recursion_failure(done: Completed) -> bool:
    lines = done.err.strip().splitlines()
    return done.code == 1 and bool(lines) and lines[-1].startswith("RecursionError")


def _quiet(done: Completed) -> str | None:
    if done.timed_out:
        return f"timed out after {LIMIT_S}s"
    if done.code != 0 or done.err:
        return f"exit {done.code}, stderr {done.err.strip()[-200:]!r}"
    return None


class Expected:
    """Oracle for one invocation: decode stdout by format and compare."""

    def __init__(self, text_check, json_check, golden: str | None = None):
        self.text_check, self.json_check, self.golden = text_check, json_check, golden

    def check(self, fmt: str):
        def run(done: Completed) -> str | None:
            problem = _quiet(done)
            if problem:
                return problem
            if fmt == "text" and self.golden is not None and done.out != self.golden:
                return f"text differs from the README golden: {done.out[:200]!r}"
            try:
                ok = (self.json_check(json.loads(done.out)) if fmt == "json"
                      else self.text_check(done.out.splitlines()))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                return f"unreadable {fmt} output: {exc}"
            return None if ok else f"{fmt} output disagrees with the oracle"
        return run


def _quantum_expected(n: int, want: dict) -> Expected:
    return Expected(lambda lines: len(lines) == 1 and F.quantum_from_text(lines[0], n) == want,
                    lambda data: F.quantum_from_json(data, n) == want)


def _blowup_expected(want: dict) -> Expected:
    return Expected(lambda lines: len(lines) == 1 and F.blowup_from_text(lines[0]) == want,
                    lambda data: F.blowup_from_json(data) == want)


def _value_expected(want, parse) -> Expected:
    return Expected(lambda lines: len(lines) == 1 and parse(lines[0]) == want,
                    lambda data: parse(data["value"]) == want)


def _lines_expected(lines: list[str], payload) -> Expected:
    return Expected(lambda got: got == lines, lambda data: data == payload)


class CliColdWorkload:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    # -- seeded expressions --------------------------------------------------------------

    def quantum_class(self, n: int, max_terms: int = 4) -> dict:
        rng = self.rng
        cls: dict = {}
        for _ in range(rng.randint(1, max_terms)):
            q = tuple(rng.randint(0, 2) for _ in range(n))
            O._acc(cls, (rng.getrandbits(n), q), Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 3)))
        return cls or {(0, (0,) * n): Fraction(1)}

    def quantum_expr(self, n: int, shape: int) -> tuple[str, dict]:
        """Shape 0: plain, 1: flat sum, 2: nested parentheses, 3: power."""
        rng = self.rng
        if shape == 1:
            # Many short terms (c*x_i or c*q_i): the work and the input length
            # grow with the term count alone.
            total: dict = {}
            pieces = []
            zero = (0,) * n
            for _ in range(FLAT_TERMS_PER_N * n):
                i = rng.randrange(n)
                key = (1 << i, zero) if rng.random() < 0.5 else \
                    (0, tuple(int(j == i) for j in range(n)))
                term = {key: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9))}
                pieces.append(F.quantum_expr(term))
                total = O.q_add(total, term)
            text = pieces[0] + "".join(
                f" - {p[1:]}" if p.startswith("-") else f" + {p}" for p in pieces[1:])
            return _positional(text), total
        cls = self.quantum_class(n)
        text = _positional(F.quantum_expr(cls))
        if shape == 2:
            depth = NESTING_PER_N * n
            return "(" * depth + text + ")" * depth, cls
        if shape == 3:
            k = rng.randint(1, 3)
            return f"({text})^{k}", O.q_pow(cls, k, n)
        return text, cls

    def equivariant_expr(self, n: int) -> tuple[str, list[dict]]:
        rng = self.rng
        pieces, table = [], O.loc_const(n, {})
        for _ in range(rng.randint(1, 4)):
            mask = rng.getrandbits(n)
            c = rng.randint(1, 5)
            kind = rng.choice("aby")
            if kind == "y":
                e = rng.randint(1, 3)
                body, value = f"y^{e}", O.loc_const(n, {e: Fraction(1)})
            else:
                body = f"{kind}{O.subset_text(mask)}"
                value = (O.loc_a if kind == "a" else O.loc_b)(n, mask)
            sign = rng.choice([-1, 1])
            pieces.append(("-" if sign < 0 else "+") + f" {c}*{body}")
            table = O.loc_add(table, value, sign * c)
        text = _positional(" ".join(pieces).lstrip("+ "))
        if rng.random() < 0.5:
            mask = rng.getrandbits(n)
            text = f"({text})*a{O.subset_text(mask)}"
            table = O.loc_mul(table, O.loc_a(n, mask))
        return text, table

    def blowup_expr(self, shape: int, size: int) -> tuple[str, dict]:
        rng = self.rng
        cls: dict = {}
        for _ in range(rng.randint(1, 3)):
            O._acc(cls, (rng.randrange(4), rng.randint(0, 2), rng.randint(0, 2)),
                   Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 3)))
        cls = cls or {(0, 0, 0): Fraction(1)}
        text = _positional(F.blowup_expr(cls))
        if shape == 2:
            depth = NESTING_PER_N * size
            return "(" * depth + text + ")" * depth, cls
        if shape == 3:
            k = size - 1
            return f"({text})^{k}", O.bl_pow(cls, k)
        return text, cls

    # -- invocations ---------------------------------------------------------------------------

    def invocation(self, sub: str, variant: int, n: int) -> tuple[list[str], Expected]:
        """argv (without --format) and its oracle; variant 0 is the README example."""
        rng = self.rng
        golden = None
        if variant == 0:
            argv, golden = README[sub]
            if "--n" in argv:
                n = int(argv[argv.index("--n") + 1])
        full = (1 << n) - 1
        if sub in ("mul", "cup", "seidel"):
            if variant == 0:
                values = {"mul": [{(0, (1, 0)): Fraction(1), (0, (0, 1)): Fraction(3, 2)},
                                  {(0, (0, 0)): Fraction(1)}],
                          "cup": [{(1, (0, 0)): Fraction(1)}] * 2,
                          "seidel": [{(1, (0, 0)): Fraction(1)}]}[sub]
            else:
                exprs = [self.quantum_expr(n, variant), self.quantum_expr(n, 0)]
                argv = [sub, "--n", str(n)] + [t for t, _ in exprs[: 1 if sub == "seidel" else 2]]
                values = [v for _, v in exprs]
            if sub == "mul":
                want = O.q_mul(values[0], values[1])
            elif sub == "cup":
                want = O.q_cup(values[0], values[1])
            else:
                want = O.q_seidel(values[0], n)
            expected = _quantum_expected(n, want)
        elif sub == "gw":
            if variant == 0:
                i, j, k, d = 1, 1, 3, (1, 0)
            else:
                i, j = rng.getrandbits(n), rng.getrandbits(n)
                if variant % 2:
                    k, d = full ^ (i ^ j), O.bits(i & j, n)
                else:
                    k, d = rng.getrandbits(n), tuple(rng.randint(0, 1) for _ in range(n))
                argv = ["gw", "--n", str(n), "--i", O.subset_text(i), "--j", O.subset_text(j),
                        "--k", O.subset_text(k), "--d", ",".join(map(str, d))]
            expected = _value_expected(O.q_gw(n, i, j, k, d), Fraction)
        elif sub in ("decompose", "restrict"):
            if variant == 0:
                text, table = "b{}", O.loc_b(n, 0)
            else:
                text, table = self.equivariant_expr(n)
            if sub == "decompose":
                lam = O.loc_decompose(table, n)
                order = O.ordered_masks(n)
                argv = argv if variant == 0 else ["decompose", "--n", str(n), text]
                expected = Expected(
                    lambda lines: [F.mask_from_text(l.split(": ")[0]) for l in lines] == order
                    and all(F.y_from_text(l.split(": ", 1)[1]) == lam[m]
                            for l, m in zip(lines, order)),
                    lambda data: [F.mask_from_text(k) for k in data] == order
                    and F.table_from_json(data, n) == lam)
            else:
                point = 0 if variant == 0 else rng.getrandbits(n)
                argv = argv if variant == 0 else ["restrict", "--n", str(n), text,
                                                  "--point", O.subset_text(point)]
                expected = _value_expected(table[point], F.y_from_text)
        elif sub == "chern":
            argv = argv if variant == 0 else ["chern", "--n", str(n)]
            tables = O.loc_chern(n)
            expected = Expected(lambda lines: self._chern_text(lines, tables, n),
                                lambda data: list(data) == [f"c{k}" for k in range(1, n + 1)]
                                and all(F.table_from_json(data[f"c{k}"], n) == t
                                        for k, t in enumerate(tables, start=1)))
        elif sub == "solve":
            n = min(n, 4)
            argv = argv if variant == 0 else ["solve", "--n", str(n)]
            want = {(m, j): O.q_basis_product(m, j, n)
                    for m in range(1 << n) for j in range(1, n + 1)}
            expected = Expected(lambda lines: self._solve_text(lines, want, n),
                                lambda data: len(data) == len(want) and all(
                                    F.quantum_from_json(e["product"], n)
                                    == want[(O.mask_of(e["i"]), e["j"])] for e in data))
        elif sub == "certify":
            if variant:
                argv = ["certify", "--n", str(n)]
            expected = _lines_expected(["EMPTY"], {"feasible": []})
        elif sub == "morse":
            if variant == 0:
                what, areas = "moment", [Fraction(1), Fraction(3, 2)]
            else:
                what = ("points", "edges", "moment")[variant - 1]
                areas = [Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(n)]
                argv = ["morse", "--n", str(n)]
                if rng.random() < 0.5:
                    argv += ["--areas", ",".join(map(str, areas))]
                else:
                    areas = [Fraction(1)] * n
                argv.append(what)
            expected = self._morse_expected(n, what, areas)
        elif sub in ("blowup-mul", "blowup-seidel"):
            if variant == 0:
                b = {(1, 0, 0): Fraction(1)}
                values = [b, b] if sub == "blowup-mul" else [{(2, 0, 0): Fraction(1)}]
            else:
                exprs = [self.blowup_expr(variant, n), self.blowup_expr(0, n)]
                if sub == "blowup-mul":
                    argv = ["blowup", "mul", exprs[0][0], exprs[1][0]]
                else:
                    argv = ["blowup", "seidel", exprs[0][0]]
                values = [v for _, v in exprs]
            want = (O.bl_mul(values[0], values[1]) if sub == "blowup-mul"
                    else O.bl_mul({(1, 0, 0): Fraction(1)}, values[0]))
            expected = _blowup_expected(want)
        else:  # blowup-signs
            argv = ["blowup", "signs"]
            signs = sorted(O.bl_gw_signs().items())
            expected = _lines_expected(
                [f"GW_E({','.join(k)}) = {v}" for k, v in signs],
                [{"insertions": list(k), "value": v} for k, v in signs])
        expected.golden = golden
        return list(argv), expected

    @staticmethod
    def _chern_text(lines: list[str], tables: list, n: int) -> bool:
        order = O.ordered_masks(n)
        want = []
        for k, table in enumerate(tables, start=1):
            want.append(f"c{k}:")
            want += [(m, table[m]) for m in order]
        if len(lines) != len(want):
            return False
        for line, item in zip(lines, want):
            if isinstance(item, str):
                if line != item:
                    return False
                continue
            key, value = line.strip().split(": ", 1)
            if F.mask_from_text(key) != item[0] or F.y_from_text(value) != item[1]:
                return False
        return True

    @staticmethod
    def _solve_text(lines: list[str], want: dict, n: int) -> bool:
        seen = set()
        for line in lines:
            left, right = line.split(" = ", 1)
            subset, j = left[1:].split("*x")
            key = (F.mask_from_text(subset), int(j))
            if want.get(key) != F.quantum_from_text(right, n):
                return False
            seen.add(key)
        return seen == set(want) and len(lines) == len(want)

    @staticmethod
    def _morse_expected(n: int, what: str, areas: list[Fraction]) -> Expected:
        lines, payload = [], []
        for m in O.ordered_masks(n):
            p, k = O.subset_text(m), m.bit_count()
            if what == "points":
                lines.append(f"{p}: index={2 * k} weight={n - 2 * k}")
                payload.append({"point": p, "index": 2 * k, "weight": n - 2 * k})
            elif what == "edges":
                for i in range(1, n + 1):
                    if not m >> (i - 1) & 1:
                        q, a = O.subset_text(m | 1 << (i - 1)), areas[i - 1]
                        lines.append(f"{p} -> {q}: A{i} area={a}")
                        payload.append({"from": p, "to": q, "class": i, "area": str(a)})
            else:
                value = sum((w if m >> i & 1 else -w for i, w in enumerate(areas)),
                            Fraction(0)) / 2
                lines.append(f"{p}: {value}")
                payload.append({"point": p, "moment": str(value)})
        return _lines_expected(lines, payload)

    def hostile(self) -> tuple[list[str], str]:
        """A malformed invocation and the error code its one stderr line names."""
        rng = self.rng
        n = rng.randint(1, 5)
        big = str(n + 1)
        pool = [
            (["mul", "--n", str(n), f"x{big}", "1"], "IndexOutOfRange"),
            (["mul", "--n", str(n), "x1 +", "1"], "SyntaxError"),
            (["cup", "--n", str(n), "z1", "x1"], "UnknownGenerator"),
            (["seidel", "--n", str(n), "1/0"], "SyntaxError"),
            (["mul", "--n", str(n), "x1^1/2", "1"], "SyntaxError"),
            (["mul", "--n", str(n), "x1*(x1", "1"], "SyntaxError"),
            (["gw", "--n", str(n), "--i", "{1," + big + "}", "--j", "{}", "--k", "{}",
              "--d", ",".join(["0"] * n)], "Usage"),
            (["restrict", "--n", str(n), "b{}", "--point", "{" + big + "}"], "Usage"),
            (["decompose", "--n", str(n), "a{" + big + "}"], "IndexOutOfRange"),
            (["morse", "--n", str(n), "--areas", ",".join(["x"] * n), "points"], "Usage"),
            (["blowup", "mul", "b", "x1"], "UnknownGenerator"),
            (["mul", "--n", "0", "1", "1"], "Usage"),
            (["blowup", "seidel", "b^"], "SyntaxError"),
        ]
        return rng.choice(pool)

    # -- ops ----------------------------------------------------------------------------------------

    @staticmethod
    def child(argv: list[str]):
        return lambda: run_child([sys.executable, "-m", "qhcube", *argv], LIMIT_S)

    def op(self, kind: str, sub: str = "", variant: int = 0, fmt: str = "text",
           n: int = 0) -> Op:
        if kind == "known":
            argv, mode = KNOWN_FAILURES[sub]
            matches = _recursion_failure if mode == "recursion" else (lambda d: d.timed_out)
            return Op(f"known:{sub}", self.child(argv),
                      lambda d: None if contract_ok(d) else "listed known failure",
                      known=matches, argv=argv)
        if kind == "hostile":
            argv, code = self.hostile()
            argv = ["--format", fmt, *argv]

            def check_error(d: Completed) -> str | None:
                lines = d.err.splitlines()
                if d.timed_out or d.code != 2 or d.out or len(lines) != 1 \
                        or not lines[0].startswith(f"error: {code}: "):
                    return f"contract broken: exit {d.code}, stderr {d.err[-200:]!r}"
                return None
            return Op("hostile", self.child(argv), check_error, argv=argv)
        argv, expected = self.invocation(sub, variant, n)
        argv = ["--format", fmt, *argv]
        return Op(sub, self.child(argv), expected.check(fmt), argv=argv)

    def plan(self) -> list[tuple]:
        """One round: (kind, subcommand, variant, format, n) steps.

        Sizes follow the slots, so that every round carries the same work: the
        six seeded invocations of a subcommand take n from SEEDED_NS, rotated
        by the subcommand's place, and expression sizes follow n and the
        variant's shape.  The seed picks the contents and the order.
        """
        steps: list[tuple] = []
        for place, sub in enumerate(SUBCOMMANDS):
            turn = place % len(SEEDED_NS)
            ns = SEEDED_NS[turn:] + SEEDED_NS[:turn]
            slots = [(v, fmt) for v in range(1, VARIANTS) for fmt in FORMATS]
            steps += [("regular", sub, 0, fmt, 0) for fmt in FORMATS]
            steps += [("regular", sub, v, fmt, n) for (v, fmt), n in zip(slots, ns)]
        steps += [("hostile", "", 0, self.rng.choice(FORMATS), 0)
                  for _ in range(HOSTILE_PER_ROUND)]
        steps += [("known", name) for name in KNOWN_FAILURES]
        self.rng.shuffle(steps)
        return steps

    def rounds(self):
        while True:
            yield [self.op(*step) for step in self.plan()]

    def setup(self) -> None:
        import qhcube.cli  # noqa: F401  (what a cold invocation imports)


def replay(argv: list[str]) -> Completed:
    """Run one invocation in-process through ``qhcube.cli.main``."""
    from qhcube import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # an uncaught error is what a child prints and exits 1 on
            traceback.print_exc()
            code = 1
    return Completed(code, out.getvalue(), err.getvalue(), False, time.perf_counter() - start)
