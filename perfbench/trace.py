"""Spans and counters around calls into each qhcube layer, from outside.

``Tracer.patch()`` wraps the public functions and methods listed in
``TARGETS`` for as long as the context lasts and restores them after.  A span
records its name, start, end and parent; each op is one trace whose root span
the harness opens.  Spans are folded into per-name call counts and self times
as they close (self time = duration minus the time of child spans), so memory
does not grow with the number of calls; ``keep=True`` also keeps every span.

A call whose enclosing span has the same name (``__sub__`` calling
``__add__``, ``solve_unique`` calling ``solve_unique_sparse``) is part of that
span and opens none.  Targets missing from the program are skipped, so a
refactor that removes one reads as zero calls.
"""

from __future__ import annotations

import importlib
import itertools
import sys
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable

# -- counters: hook(counts, args, result) after a call returns -------------------


def _bits(coeffs) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs),
               default=0)


def _rings_mul(counts, args, result):
    counts["rings.mul.terms_out"] += len(result.terms)
    counts["rings.coeff_max_bits"] = max(counts["rings.coeff_max_bits"],
                                         _bits(result.terms.values()))


def _normal_form(counts, args, result):
    counts["rings.normal_form.terms_in"] += len(args[0].terms)
    counts["rings.normal_form.terms_out"] += len(result.terms)


def _quantum_mul(counts, args, result):
    try:
        counts["quantum.terms_out"] += len(result.poly.terms)
    except AttributeError:
        counts["quantum.terms_out"] += len(result.to_json_terms())


def _blowup_mul(counts, args, result):
    counts["blowup.terms_out"] += len(result.terms)


def _linsolve(counts, args, result):
    rows, second = args[0], args[1]
    counts["linsolve.equations"] += len(rows)
    if isinstance(second, int):  # solve_unique_sparse(equations, ncols)
        counts["linsolve.columns"] += second
        counts["linsolve.nonzeros_in"] += sum(len(row) for row, _ in rows)
    else:
        counts["linsolve.columns"] += len(rows[0])
        counts["linsolve.nonzeros_in"] += sum(1 for row in rows for v in row if v)


def _parse(counts, args, result):
    counts["expressions.input_bytes"] += len(args[0].encode())


COUNTERS = (
    "rings.mul.terms_out", "rings.normal_form.terms_in", "rings.normal_form.terms_out",
    "rings.coeff_max_bits", "quantum.terms_out", "linsolve.equations", "linsolve.columns",
    "linsolve.nonzeros_in", "blowup.terms_out", "expressions.input_bytes",
    "expressions.errors",
)

#: (span name, module, attribute path, counter hook).
TARGETS: list[tuple[str, str, str, Callable | None]] = [
    ("rings.mul", "qhcube.rings", "Polynomial.__mul__", _rings_mul),
    ("rings.mul", "qhcube.rings", "Polynomial.__rmul__", _rings_mul),
    ("rings.add", "qhcube.rings", "Polynomial.__add__", None),
    ("rings.add", "qhcube.rings", "Polynomial.__radd__", None),
    ("rings.add", "qhcube.rings", "Polynomial.__sub__", None),
    ("rings.add", "qhcube.rings", "Polynomial.__rsub__", None),
    ("rings.pow", "qhcube.rings", "Polynomial.__pow__", None),
    ("rings.normal_form", "qhcube.rings", "Polynomial.normal_form", _normal_form),
    ("rings.construct", "qhcube.rings", "Polynomial.__init__", None),
    ("quantum.mul", "qhcube.quantum", "QuantumClass.__mul__", _quantum_mul),
    ("quantum.mul", "qhcube.quantum", "QuantumClass.__rmul__", _quantum_mul),
    ("quantum.pow", "qhcube.quantum", "QuantumClass.__pow__", None),
    ("quantum.cup", "qhcube.quantum", "QuantumClass.cup", None),
    ("quantum.cup", "qhcube.quantum", "QuantumClass.pairing", None),
    ("quantum.seidel", "qhcube.quantum", "QuantumClass.seidel", None),
    ("quantum.gw", "qhcube.quantum", "gw_coefficient", None),
    ("quantum.solve", "qhcube.quantum", "solve_structure_constants", None),
    ("linsolve.solve", "qhcube.linsolve", "solve_unique", _linsolve),
    ("linsolve.solve", "qhcube.linsolve", "solve_unique_sparse", _linsolve),
    ("hypercube.all_points", "qhcube.hypercube", "all_points", None),
    ("hypercube.point_new", "qhcube.hypercube", "SubsetPoint.__init__", None),
    ("hypercube.infeasibility", "qhcube.hypercube", "higher_order_infeasibility", None),
    ("gkm.basis_a", "qhcube.gkm", "basis_a", None),
    ("gkm.basis_b", "qhcube.gkm", "basis_b", None),
    ("gkm.decompose", "qhcube.gkm", "EquivariantClass.decompose", None),
    ("gkm.reduce", "qhcube.gkm", "EquivariantClass.reduce_to_ordinary", None),
    ("gkm.chern_series", "qhcube.gkm", "chern_series", None),
    ("gkm.gkm_check", "qhcube.gkm", "gkm_check", None),
] + [
    ("gkm.class_arith", "qhcube.gkm", f"EquivariantClass.{name}", None)
    for name in ("__init__", "__add__", "__radd__", "__sub__", "__neg__", "__mul__",
                 "__rmul__", "__pow__")
] + [
    ("blowup.mul", "qhcube.blowup", "BlowupClass.__mul__", _blowup_mul),
    ("blowup.mul", "qhcube.blowup", "BlowupClass.__rmul__", _blowup_mul),
    ("blowup.pow", "qhcube.blowup", "BlowupClass.__pow__", None),
    ("blowup.seidel", "qhcube.blowup", "seidel_blowup", None),
    ("blowup.construct", "qhcube.blowup", "BlowupClass.__init__", None),
    ("blowup.sign_solver", "qhcube.blowup", "gw_sign_solver", None),
    ("expressions.parse", "qhcube.expressions", "parse", _parse),
    ("expressions.evaluate", "qhcube.expressions", "evaluate", None),
    ("cli.main", "qhcube.cli", "main", None),
]

#: Recursive module functions: inner calls bypass the wrapper, so tracing adds
#: no stack frame per level and deep inputs fail exactly as they do untraced.
FLAT = {("qhcube.expressions", "evaluate")}

#: Spans whose escaping exceptions count as ``expressions.errors``.
ERROR_SPANS = {"expressions.parse", "expressions.evaluate"}

SPANS = sorted({name for name, *_ in TARGETS})


class Tracer:
    def __init__(self, keep: bool = False):
        self.stack: list[list] = []
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_ns = dict.fromkeys(SPANS, 0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.root_ns = 0
        self.root_self_ns = 0
        self.spans: list[tuple] | None = [] if keep else None
        self._ids = itertools.count(1)
        self._trace_id = 0

    # -- one op = one trace --------------------------------------------------------------

    @contextmanager
    def trace(self, name: str = "op"):
        self._trace_id += 1
        root = [name, perf_counter_ns(), 0, next(self._ids), None]
        self.stack.append(root)
        try:
            yield
        finally:
            self.stack.pop()
            end = perf_counter_ns()
            self.root_ns += end - root[1]
            self.root_self_ns += end - root[1] - root[2]
            self._log(root, end)

    def _log(self, frame: list, end: int) -> None:
        if self.spans is not None:
            self.spans.append((self._trace_id, frame[3], frame[4], frame[0], frame[1], end))

    def wrap(self, name: str, fn: Callable, hook: Callable | None,
             flat: tuple[object, str] | None = None) -> Callable:
        tracer, counts, errors, ids = self, self.counts, name in ERROR_SPANS, self._ids

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if not stack or stack[-1][0] == name:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [name, perf_counter_ns(), 0, next(ids), parent[3]]
            stack.append(frame)
            if flat:
                setattr(flat[0], flat[1], fn)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if errors:
                    counts["expressions.errors"] += 1
                raise
            finally:
                if flat:
                    setattr(flat[0], flat[1], wrapper)
                end = perf_counter_ns()
                stack.pop()
                duration = end - frame[1]
                parent[2] += duration
                tracer.calls[name] += 1
                tracer.self_ns[name] += duration - frame[2]
                if tracer.spans is not None:
                    tracer._log(frame, end)
            if hook is not None:
                try:
                    hook(counts, args, result)
                except (AttributeError, TypeError):  # the layer changed shape
                    pass
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def patch(self):
        """Wrap every target, in its home module and wherever it was imported."""
        undo: list[tuple[object, str, object]] = []
        wrappers: set[int] = set()
        try:
            for name, module_name, path, hook in TARGETS:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part, None)
                if owner is None or attr not in vars(owner):
                    continue
                original = vars(owner)[attr]
                if id(original) in wrappers:  # an alias patched with its twin
                    continue
                flat = (owner, attr) if (module_name, attr) in FLAT else None
                wrapped = self.wrap(name, original, hook, flat)
                wrappers.add(id(wrapped))
                holders = [owner] if parents else _modules()
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            undo.append((holder, key, value))
                            setattr(holder, key, wrapped)
            yield self
        finally:
            for holder, key, value in reversed(undo):
                setattr(holder, key, value)

    # -- results ---------------------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for name in SPANS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_ns[name] / 1e9, "s")
        for name in COUNTERS:
            out[name] = (self.counts[name], "count")
        terms_in = self.counts["rings.normal_form.terms_in"]
        out["rings.normal_form.yield"] = (
            self.counts["rings.normal_form.terms_out"] / terms_in if terms_in else 0.0, "ratio")
        return out


def _modules() -> list:
    """Loaded qhcube and benchmark modules: where module functions get imported."""
    return [mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "qhcube" or key.startswith(("qhcube.", "perfbench")))]
