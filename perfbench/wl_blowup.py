"""blowup-ring: the 4-element basis with two Novikov variables.

Each round runs a fixed mix on seeded ``BlowupClass`` values (1-4 terms,
Novikov exponents 0-3): products, deep powers of one-term classes (k = 160,
180, 200) and shallow powers of 2-4 term classes, ``seidel_blowup``,
``has_higher_order_terms``, ``gw_sign_solver``, ``derive_chern_numbers`` and
``stratum_from_invariants``.  Sizes follow each op's slot in the mix and the
seed picks the contents, so rounds cost about the same on every seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

import qhcube
from qhcube.blowup import stratum_from_invariants

from . import forms as F
from . import oracles as O
from .harness import Op

#: Ops of each kind in one round.  The counts put the median inside the
#: derive_chern_numbers group and p90 inside the gw_sign_solver group, not on
#: the edge between two groups of different cost, where noise moves them most.
MIX = {"mul": 20, "deep_pow": 3, "pow": 4, "seidel": 12, "higher_order": 4,
       "signs": 6, "chern": 12, "stratum": 23}
#: (terms, exponent) of the shallow powers, by slot.
POW_SIZES = ((2, 8), (3, 4), (2, 10), (4, 3))


def _same(want: dict, what: str):
    def check(cls):
        return None if F.blowup_of(cls) == want else f"{what} disagrees with the table"
    return check


class BlowupRingWorkload:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.powers = O.BasisPowers()

    def coeff(self) -> Fraction:
        return Fraction(self.rng.choice([-1, 1]) * self.rng.randint(1, 9), self.rng.randint(1, 4))

    def random_class(self, terms: int) -> dict:
        rng = self.rng
        cls: dict = {}
        for _ in range(terms):
            O._acc(cls, (rng.randrange(4), rng.randint(0, 3), rng.randint(0, 3)), self.coeff())
        return cls or {(0, 0, 0): Fraction(1)}

    @staticmethod
    def program(cls: dict):
        B = qhcube.BlowupClass
        out = B.zero()
        for (basis, d, f), c in cls.items():
            out = out + B.basis(O.BASIS[basis]) * B.novikov(d, f) * c
        return out

    def op(self, kind: str, slot: int) -> Op:
        rng = self.rng
        if kind == "signs":
            want = O.bl_gw_signs()
            return Op(kind, lambda: qhcube.gw_sign_solver(),
                      lambda r: None if r == want else "GW signs are wrong")
        if kind == "chern":
            return Op(kind, lambda: qhcube.derive_chern_numbers(),
                      lambda r: None if tuple(r) == O.BL_CHERN else f"Chern numbers {r}")
        if kind == "stratum":
            values = {name: self.coeff() for name in rng.sample(O.BASIS, 1 + slot % 4)}
            want = O.bl_stratum(values)
            return Op(kind, lambda: stratum_from_invariants(values),
                      lambda r: None if r == want else "stratum is wrong")
        if kind == "higher_order":
            name = O.BASIS[slot % 4]
            element = qhcube.BlowupClass.basis(name)
            image = O.bl_mul({(1, 0, 0): Fraction(1)}, {(O.BASIS.index(name), 0, 0): Fraction(1)})
            want = len({(d, f) for _, d, f in image}) > 1
            return Op(kind,
                      lambda: qhcube.has_higher_order_terms(element, qhcube.seidel_blowup(element)),
                      lambda r: None if r is want else f"higher-order terms of {name}: {r}")
        if kind == "deep_pow":
            term = (1 + slot % 3, rng.randint(0, 3), rng.randint(0, 3))
            # The coefficient's size sets the cost of k-fold products, so only its
            # sign is seeded.
            c, k = rng.choice([-1, 1]) * Fraction(3, 2), 160 + 20 * (slot % 3)
            base = self.program({term: c})
            return Op(kind, lambda: base**k,
                      lambda r: None if F.blowup_of(r) == self.powers.monomial_power(term, c, k)
                      else "deep power disagrees with the table")
        if kind == "pow":
            terms, k = POW_SIZES[slot % len(POW_SIZES)]
            a = self.random_class(terms)
            pa = self.program(a)
            return Op(kind, lambda: pa**k, _same(O.bl_pow(a, k), "power"))
        a = self.random_class(1 + slot % 4)
        pa = self.program(a)
        if kind == "seidel":
            return Op(kind, lambda: qhcube.seidel_blowup(pa),
                      _same(O.bl_mul({(1, 0, 0): Fraction(1)}, a), "Seidel image"))
        b = self.random_class(1 + (slot + 2) % 4)
        pb = self.program(b)
        if kind == "mul":
            return Op(kind, lambda: pa * pb, _same(O.bl_mul(a, b), "product"))
        raise ValueError(kind)

    def final_checks(self) -> tuple[list[str], str]:
        """Ring laws and documented values, on the program alone."""
        B = qhcube.BlowupClass
        problems = []
        samples = [self.program(self.random_class(1 + i % 4)) for i in range(6)]
        one = B.unit()
        for a in samples:
            if a * one != a or one * a != a:
                problems.append("unit law fails")
            for b in samples:
                if a * b != b * a:
                    problems.append("product is not commutative")
                for c in samples[:2]:
                    if (a * b) * c != a * (b * c):
                        problems.append("product is not associative")
        documented = {
            str(qhcube.seidel_blowup(B.basis("f"))): "bf - b*eE",
            str(B.basis("b") * B.basis("b")): "-bf + b*eE + eF",
        }
        problems += [f"{got!r} != documented {want!r}" for got, want in documented.items()
                     if got != want]
        return sorted(set(problems)), "blow-up ring laws and documented values checked"

    def plan(self) -> list[tuple[str, int]]:
        steps = [(kind, slot) for kind, count in MIX.items() for slot in range(count)]
        self.rng.shuffle(steps)
        return steps

    def rounds(self):
        while True:
            yield [self.op(kind, slot) for kind, slot in self.plan()]

    def setup(self) -> None:
        """One warm-up op per kind; slot 2 of deep_pow is the cheapest base, bf."""
        for op in [self.op(kind, 2 if kind == "deep_pow" else 0) for kind in MIX]:
            op.call()
