"""quantum-ring: products, powers, Seidel sweeps, pairings and the solver.

Each round runs, for every n in 4..8, a fixed mix of op kinds on seeded
homogeneous classes (1-6 terms, q-exponents 0-2, rational coefficients), plus
``solve_structure_constants(n, limit=n)`` for n = 3..5, in seeded order.
Sizes (term counts, degrees, exponents) follow each op's slot in the mix and
the seed picks the contents, so rounds cost about the same on every seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

import qhcube
from qhcube.hypercube import SphereClass

from . import forms as F
from . import oracles as O
from .harness import Op

NS = (4, 5, 6, 7, 8)
SOLVE_NS = (3, 4, 5)
#: Ops of each kind per n in one round.
MIX = {"mul": 12, "pow": 4, "sum_pow": 1, "seidel_sweep": 1, "cup": 6,
       "pairing": 6, "gw": 6, "positivity": 3}
#: Products also checked against sympy, after the timed section.
SYMPY_SAMPLES = 12


def _same(got: dict, want: dict, what: str) -> str | None:
    return None if got == want else f"{what} disagrees with the closed form"


class QuantumRingWorkload:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._monomials: dict = {}
        self._sum_powers: dict = {}
        self.sympy_samples: list = []

    # -- inputs ------------------------------------------------------------------

    def random_class(self, n: int, slot: int) -> dict:
        """Seeded class of degree 1 + slot % n with 1 + slot % 6 terms; term t
        carries (slot + t) % (degree // 2 + 1) q-units, the seed places them."""
        rng = self.rng
        degree = 1 + slot % n
        cls: dict = {}
        for term in range(1 + slot % 6):
            s = (slot + term) % (degree // 2 + 1)
            q = [0] * n
            for _ in range(s):
                q[rng.choice([i for i in range(n) if q[i] < 2])] += 1
            mask = O.mask_of(rng.sample(range(1, n + 1), degree - 2 * s))
            coeff = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
            O._acc(cls, (mask, tuple(q)), coeff)
        return cls or {(0, (0,) * n): Fraction(1)}

    def program(self, n: int, cls: dict):
        ring = qhcube.quantum_ring(n)
        out = ring.zero()
        for key, coeff in cls.items():
            mono = self._monomials.get((n, key))
            if mono is None:
                mask, q = key
                mono = ring.x_set(O.members_of(mask)) * ring.q_monomial(q)
                self._monomials[(n, key)] = mono
            out = out + coeff * mono
        return out

    def sum_power(self, n: int, k: int) -> dict:
        if (n, k) not in self._sum_powers:
            total = {(1 << i, (0,) * n): Fraction(1) for i in range(n)}
            self._sum_powers[(n, k)] = O.q_pow(total, k, n)
        return self._sum_powers[(n, k)]

    # -- ops -----------------------------------------------------------------------

    def op(self, kind: str, n: int, slot: int = 0) -> Op:
        rng = self.rng
        ring = qhcube.quantum_ring(n)
        if kind == "solve":
            return Op(kind, lambda: qhcube.solve_structure_constants(n, limit=n),
                      lambda table: self.check_solve(n, table))
        if kind == "sum_pow":
            k = n - 2
            base = sum((ring.x(i) for i in range(1, n + 1)), ring.zero())
            return Op(kind, lambda: base**k,
                      lambda r: _same(F.quantum_of(r, n), self.sum_power(n, k), "power"))
        if kind == "seidel_sweep":
            masks = list(range(1 << n))
            basis = [ring.x_set(O.members_of(m)) for m in masks]

            def check_sweep(results):
                for m, r in zip(masks, results):
                    want = O.q_seidel({(m, (0,) * n): Fraction(1)}, n)
                    if F.quantum_of(r, n) != want:
                        return f"Seidel image of {O.subset_text(m)} is wrong"
                return None
            return Op(kind, lambda: [b.seidel() for b in basis], check_sweep)
        if kind == "gw":
            i, j = (rng.getrandbits(n) for _ in range(2))
            if slot % 2:
                k, d = ((1 << n) - 1) ^ (i ^ j), O.bits(i & j, n)
            else:
                k, d = rng.getrandbits(n), tuple(rng.randint(0, 1) for _ in range(n))
            query = qhcube.GWQuery(frozenset(O.members_of(i)), frozenset(O.members_of(j)),
                                   frozenset(O.members_of(k)), SphereClass(d))
            want = O.q_gw(n, i, j, k, d)
            return Op(kind, lambda: qhcube.gw_coefficient(ring, query),
                      lambda r: None if r == want else f"GW {r} != {want}")
        a = self.random_class(n, slot)
        pa = self.program(n, a)
        if kind == "pow":
            k = 2 + slot % 2
            return Op(kind, lambda: pa**k,
                      lambda r: _same(F.quantum_of(r, n), O.q_pow(a, k, n), "power"))
        b = self.random_class(n, slot + 3)
        pb = self.program(n, b)
        if kind == "mul":
            def check_mul(r):
                got = F.quantum_of(r, n)
                if len(self.sympy_samples) < SYMPY_SAMPLES:
                    self.sympy_samples.append((n, a, b, got))
                return _same(got, O.q_mul(a, b), "product")
            return Op(kind, lambda: pa * pb, check_mul)
        if kind == "cup":
            return Op(kind, lambda: pa.cup(pb),
                      lambda r: _same(F.quantum_of(r, n), O.q_cup(a, b), "cup product"))
        if kind == "pairing":
            want = O.q_pairing(a, b, n)
            return Op(kind, lambda: pa.pairing(pb),
                      lambda r: None if r == want else f"pairing {r} != {want}")
        if kind == "positivity":
            cup, full = O.q_cup(a, b), O.q_mul(a, b)

            def check_split(r):
                classical, tail = r
                if F.quantum_of(classical, n) != cup:
                    return "classical part is not the cup product"
                return _same(F.quantum_of(tail, n), O.q_add(full, cup, -1), "quantum tail")
            return Op(kind, lambda: qhcube.positivity_decomposition(pa, pb), check_split)
        raise ValueError(kind)

    def check_solve(self, n: int, table) -> str | None:
        if len(table) != n << n:
            return f"table has {len(table)} entries, want {n << n}"
        for (i_set, j), value in table.items():
            if F.quantum_of(value, n) != O.q_basis_product(O.mask_of(i_set), j, n):
                return f"solved x{sorted(i_set)}*x{j} is wrong"
        return None

    def final_checks(self) -> tuple[list[str], str]:
        """Second oracle: sympy on a few products; skipped without sympy."""
        problems = []
        for n, a, b, got in self.sympy_samples:
            want = O.sympy_q_mul(a, b, n)
            if want is None:
                return [], "sympy missing: second oracle skipped"
            if got != want:
                problems.append(f"product at n={n} disagrees with sympy")
        return problems, f"sympy checked {len(self.sympy_samples)} products"

    # -- rounds ----------------------------------------------------------------------

    def plan(self) -> list[tuple[str, int, int]]:
        steps = [(kind, n, slot) for n in NS for kind, count in MIX.items()
                 for slot in range(count)]
        steps += [("solve", n, 0) for n in SOLVE_NS]
        self.rng.shuffle(steps)
        return steps

    def rounds(self):
        while True:
            yield [self.op(*step) for step in self.plan()]

    def setup(self) -> None:
        """The rings for every n, then one warm-up op per kind at the smallest n."""
        for n in NS:
            qhcube.quantum_ring(n)
        warmups = [self.op(kind, 3 if kind == "solve" else NS[0]) for kind in [*MIX, "solve"]]
        for op in warmups:
            op.call()
