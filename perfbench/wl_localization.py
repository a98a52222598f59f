"""localization: GKM tables on the 2^n fixed points, n in 5..8.

Each round runs, for every n, a fixed mix in seeded order: ``basis_a``,
``basis_b``, seeded integral combinations of a_I and their pointwise
products, ``decompose`` (of products and of dense b_I), ``reduce_to_ordinary``,
``gkm_check`` on valid and broken tables, ``restrict`` and ``chern_series``.
Sizes (factor and term counts) follow each op's slot in the mix and the seed
picks the subsets and coefficients, so rounds cost about the same on every
seed.  Nothing here reaches the quantum normal form or the linear solver.
"""

from __future__ import annotations

import random
from fractions import Fraction

import qhcube

from . import forms as F
from . import oracles as O
from .harness import Op

NS = (5, 6, 7, 8)
MIX = {"basis_a": 2, "basis_b": 2, "combination": 2, "product": 2,
       "decompose": 1, "decompose_b": 1, "reduce": 1, "gkm_check": 2,
       "restrict": 2, "chern_series": 1}


def _table_check(n: int, want: list[dict], what: str):
    def check(cls):
        return None if F.table_of(cls, n) == want else f"{what} table is wrong"
    return check


class LocalizationWorkload:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._chern: dict = {}

    # -- inputs ----------------------------------------------------------------------

    def combination(self, n: int, size: int) -> tuple[list[tuple[int, int]], list[dict]]:
        """Seeded integral combination sum c_k a_{I_k} of ``size`` terms."""
        terms = []
        table = O.loc_const(n, {})
        for _ in range(size):
            mask = self.rng.getrandbits(n)
            c = self.rng.choice([-1, 1]) * self.rng.randint(1, 5)
            terms.append((mask, c))
            table = O.loc_add(table, O.loc_a(n, mask), c)
        return terms, table

    @staticmethod
    def program(n: int, table: list[dict]):
        return qhcube.EquivariantClass(
            n, {frozenset(O.members_of(m)): qhcube.y_poly(p) for m, p in enumerate(table)}
        )

    def chern(self, n: int) -> list[list[dict]]:
        if n not in self._chern:
            self._chern[n] = O.loc_chern(n)
        return self._chern[n]

    # -- ops ---------------------------------------------------------------------------

    def op(self, kind: str, n: int, slot: int = 0) -> Op:
        rng = self.rng
        if kind == "basis_a":
            mask = rng.getrandbits(n)
            members = O.members_of(mask)
            return Op(kind, lambda: qhcube.basis_a(n, members),
                      _table_check(n, O.loc_a(n, mask), "a_I"))
        if kind == "basis_b":
            mask = O.mask_of(rng.sample(range(1, n + 1), n - 2 - slot % 2))
            members = O.members_of(mask)
            return Op(kind, lambda: qhcube.basis_b(n, members),
                      _table_check(n, O.loc_b(n, mask), "b_I"))
        if kind == "chern_series":
            def check_chern(classes):
                want = self.chern(n)
                if len(classes) != n:
                    return f"{len(classes)} Chern classes, want {n}"
                for k, (cls, table) in enumerate(zip(classes, want), start=1):
                    if F.table_of(cls, n) != table:
                        return f"c{k} is wrong"
                return None
            return Op(kind, lambda: qhcube.chern_series(n), check_chern)
        if kind == "decompose_b":
            # b_I with 2..4 factors (a_i + y): dense coefficients, the O(4^n) path.
            mask = O.mask_of(rng.sample(range(1, n + 1), n - 3))
            table = O.loc_b(n, mask)
            cls = self.program(n, table)
            want = O.loc_decompose(table, n)
            return Op(kind, lambda: cls.decompose(),
                      lambda r: None if F.by_mask(r, n) == want else "decomposition is wrong")
        terms, table = self.combination(n, 3 + slot % 2)
        if kind == "combination":
            def combine():
                out = qhcube.EquivariantClass.zero(n)
                for mask, c in terms:
                    out = out + qhcube.basis_a(n, O.members_of(mask)) * c
                return out
            return Op(kind, combine, _table_check(n, table, "combination"))
        if kind == "gkm_check":
            raw = {frozenset(O.members_of(m)): qhcube.y_poly(p) for m, p in enumerate(table)}
            if slot % 2:
                point = rng.getrandbits(n)
                raw[frozenset(O.members_of(point))] += 1
                table = list(table)
                table[point] = O.y_add(table[point], {0: Fraction(1)})
            want = O.loc_gkm_ok(table, n)
            return Op(kind, lambda: qhcube.gkm_check(n, raw),
                      lambda r: None if r is want else f"gkm_check gave {r}, want {want}")
        if kind == "restrict":
            cls = self.program(n, table)
            point = rng.getrandbits(n)
            members = O.members_of(point)
            return Op(kind, lambda: cls.restrict(members),
                      lambda r: None if F.y_from_text(str(r)) == table[point]
                      else "restriction is wrong")
        _, other = self.combination(n, 3)
        product = O.loc_mul(table, other)
        if kind == "product":
            left, right = self.program(n, table), self.program(n, other)
            return Op(kind, lambda: left * right, _table_check(n, product, "product"))
        cls = self.program(n, product)
        if kind == "decompose":
            want = O.loc_decompose(product, n)
            return Op(kind, lambda: cls.decompose(),
                      lambda r: None if F.by_mask(r, n) == want else "decomposition is wrong")
        if kind == "reduce":
            want = O.loc_reduce(product, n)
            return Op(kind, lambda: cls.reduce_to_ordinary(),
                      lambda r: None if F.quantum_of(r, n) == want else "reduction is wrong")
        raise ValueError(kind)

    # -- rounds --------------------------------------------------------------------------

    def plan(self) -> list[tuple[str, int, int]]:
        steps = [(kind, n, slot) for n in NS for kind, count in MIX.items()
                 for slot in range(count)]
        self.rng.shuffle(steps)
        return steps

    def rounds(self):
        while True:
            yield [self.op(*step) for step in self.plan()]

    def setup(self) -> None:
        """The rings for every n, then one warm-up op per kind at the smallest n."""
        for n in NS:
            qhcube.quantum_ring(n)
        for op in [self.op(kind, NS[0]) for kind in MIX]:
            op.call()
