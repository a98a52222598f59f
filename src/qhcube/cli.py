"""Command-line interface: every ring operation behind deterministic output.

Exit codes: 0 on success, 1 when a certificate or solver fails, 2 on usage or
expression errors.  Errors print a single stable line on stderr.  The global
``--format`` flag switches between the canonical text rendering and JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .blowup import gw_sign_solver, seidel_blowup
from .errors import QhcubeError
from .expressions import BlowupContext, EquivariantContext, QuantumContext, parse_and_evaluate
from .gkm import chern_series
from .hypercube import (
    MomentAssignment,
    SphereClass,
    all_points,
    higher_order_infeasibility,
    moment_value,
    render_subset,
)
from .quantum import GWQuery, gw_coefficient, quantum_ring, solve_structure_constants


class UsageError(QhcubeError):
    """Bad command-line arguments, found by argparse or after it."""

    code = "Usage"
    exit_status = 2


class _ArgumentParser(argparse.ArgumentParser):
    """Reports argument errors as UsageError instead of printing and exiting."""

    def error(self, message: str):
        raise UsageError(message)


def _parse_subset(text: str, n: int) -> frozenset[int]:
    t = text.strip()
    if t.startswith("{") and t.endswith("}"):
        t = t[1:-1]
    if not t.strip():
        return frozenset()
    members = set()
    for part in t.split(","):
        try:
            i = int(part)
        except ValueError:
            raise UsageError(f"bad subset literal {text!r}") from None
        if not 1 <= i <= n:
            raise UsageError(f"subset member {i} out of range 1..{n}")
        members.add(i)
    return frozenset(members)


def _parse_int_vector(text: str, n: int) -> tuple[int, ...]:
    parts = text.split(",")
    if len(parts) != n:
        raise UsageError(f"expected {n} comma-separated integers, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise UsageError(f"bad integer vector {text!r}") from None


def _parse_areas(text: str, n: int) -> MomentAssignment:
    parts = text.split(",")
    if len(parts) != n:
        raise UsageError(f"expected {n} comma-separated areas, got {text!r}")
    try:
        return MomentAssignment.of(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad area list {text!r}") from None


def _require_n(args) -> int:
    if args.n < 1:
        raise UsageError("--n must be a positive integer")
    return args.n


def _emit(payload, text_lines, fmt: str):
    if fmt == "json":
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


# -- command handlers ----------------------------------------------------------


def _cmd_mul(args) -> int:
    ctx = QuantumContext(_require_n(args))
    result = parse_and_evaluate(args.exprs[0], ctx) * parse_and_evaluate(args.exprs[1], ctx)
    _emit(result.to_json_terms(), [str(result)], args.format)
    return 0


def _cmd_cup(args) -> int:
    ctx = QuantumContext(_require_n(args))
    a = parse_and_evaluate(args.exprs[0], ctx)
    b = parse_and_evaluate(args.exprs[1], ctx)
    result = a.cup(b)
    _emit(result.to_json_terms(), [str(result)], args.format)
    return 0


def _cmd_seidel(args) -> int:
    ctx = QuantumContext(_require_n(args))
    result = parse_and_evaluate(args.expr, ctx).seidel()
    _emit(result.to_json_terms(), [str(result)], args.format)
    return 0


def _cmd_gw(args) -> int:
    n = _require_n(args)
    query = GWQuery(
        i=_parse_subset(args.i, n),
        j=_parse_subset(args.j, n),
        k=_parse_subset(args.k, n),
        d=SphereClass(_parse_int_vector(args.d, n)),
    )
    value = gw_coefficient(quantum_ring(n), query)
    _emit({"value": str(value)}, [str(value)], args.format)
    return 0


def _cmd_decompose(args) -> int:
    ctx = EquivariantContext(_require_n(args))
    coefficients = parse_and_evaluate(args.expr, ctx).decompose()
    payload = {str(p): str(v) for p, v in coefficients.items()}
    _emit(payload, [f"{p}: {v}" for p, v in coefficients.items()], args.format)
    return 0


def _cmd_restrict(args) -> int:
    n = _require_n(args)
    ctx = EquivariantContext(n)
    value = parse_and_evaluate(args.expr, ctx).restrict(_parse_subset(args.point, n))
    _emit({"value": str(value)}, [str(value)], args.format)
    return 0


def _cmd_chern(args) -> int:
    n = _require_n(args)
    classes = chern_series(n)
    payload = {}
    lines = []
    for k, cls in enumerate(classes, start=1):
        payload[f"c{k}"] = cls.to_json_dict()
        lines.append(f"c{k}:")
        lines.extend(f"  {p}: {v}" for p, v in cls.values.items())
    _emit(payload, lines, args.format)
    return 0


def _cmd_solve(args) -> int:
    n = _require_n(args)
    table = solve_structure_constants(n)
    payload = []
    lines = []
    for (i_set, j), value in table.items():
        payload.append(
            {"i": sorted(i_set), "j": j, "product": value.to_json_terms()}
        )
        lines.append(f"x{render_subset(i_set)}*x{j} = {value}")
    _emit(payload, lines, args.format)
    return 0


def _cmd_certify(args) -> int:
    n = _require_n(args)
    feasible = higher_order_infeasibility(n)
    if not feasible:
        _emit({"feasible": []}, ["EMPTY"], args.format)
        return 0
    _emit(
        {"feasible": [list(t) for t in feasible]},
        [f"({i},{j},{k})" for i, j, k in feasible],
        args.format,
    )
    return 1


def _cmd_morse(args) -> int:
    n = _require_n(args)
    areas = _parse_areas(args.areas, n) if args.areas else MomentAssignment.ones(n)
    points = all_points(n)
    if args.what == "points":
        payload = [
            {"point": str(p), "index": p.morse_index(), "weight": p.weight_sum()}
            for p in points
        ]
        lines = [
            f"{p}: index={p.morse_index()} weight={p.weight_sum()}" for p in points
        ]
    elif args.what == "edges":
        payload = []
        lines = []
        for p in points:
            for target, i in p.upward_edges():
                area = SphereClass.unit(n, i).area(areas)
                payload.append(
                    {"from": str(p), "to": str(target), "class": i, "area": str(area)}
                )
                lines.append(f"{p} -> {target}: A{i} area={area}")
    else:  # moment
        payload = [
            {"point": str(p), "moment": str(moment_value(p, areas))} for p in points
        ]
        lines = [f"{p}: {moment_value(p, areas)}" for p in points]
    _emit(payload, lines, args.format)
    return 0


def _cmd_blowup_mul(args) -> int:
    ctx = BlowupContext()
    result = parse_and_evaluate(args.exprs[0], ctx) * parse_and_evaluate(args.exprs[1], ctx)
    _emit(result.to_json_terms(), [str(result)], args.format)
    return 0


def _cmd_blowup_seidel(args) -> int:
    result = seidel_blowup(parse_and_evaluate(args.expr, BlowupContext()))
    _emit(result.to_json_terms(), [str(result)], args.format)
    return 0


def _cmd_blowup_signs(args) -> int:
    signs = gw_sign_solver()
    ordered = sorted(signs.items())
    payload = [
        {"insertions": list(names), "value": value} for names, value in ordered
    ]
    lines = [f"GW_E({','.join(names)}) = {value}" for names, value in ordered]
    _emit(payload, lines, args.format)
    return 0


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="qhcube",
        description="Exact quantum/equivariant cohomology calculator for "
        "semi-free circle actions with isolated fixed points.",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_n(p):
        p.add_argument("--n", type=int, required=True, help="number of generators")
        return p

    p = with_n(sub.add_parser("mul", help="quantum product of two expressions"))
    p.add_argument("exprs", nargs=2, metavar="EXPR")
    p.set_defaults(handler=_cmd_mul)

    p = with_n(sub.add_parser("cup", help="classical cup product"))
    p.add_argument("exprs", nargs=2, metavar="EXPR")
    p.set_defaults(handler=_cmd_cup)

    p = with_n(sub.add_parser("seidel", help="multiply by the maximal Seidel element"))
    p.add_argument("expr", metavar="EXPR")
    p.set_defaults(handler=_cmd_seidel)

    p = with_n(sub.add_parser("gw", help="three-point Gromov-Witten coefficient"))
    p.add_argument("--i", required=True, metavar="SET")
    p.add_argument("--j", required=True, metavar="SET")
    p.add_argument("--k", required=True, metavar="SET")
    p.add_argument("--d", required=True, metavar="INTS", help="curve class, e.g. 1,0")
    p.set_defaults(handler=_cmd_gw)

    p = with_n(sub.add_parser("decompose", help="triangular-basis coefficients"))
    p.add_argument("expr", metavar="EXPR")
    p.set_defaults(handler=_cmd_decompose)

    p = with_n(sub.add_parser("restrict", help="restriction at a fixed point"))
    p.add_argument("expr", metavar="EXPR")
    p.add_argument("--point", required=True, metavar="SET")
    p.set_defaults(handler=_cmd_restrict)

    p = with_n(sub.add_parser("chern", help="equivariant Chern classes c_1..c_n"))
    p.set_defaults(handler=_cmd_chern)

    p = with_n(sub.add_parser("solve", help="re-derive the product table"))
    p.set_defaults(handler=_cmd_solve)

    p = with_n(sub.add_parser("certify", help="higher-order infeasibility certificate"))
    p.set_defaults(handler=_cmd_certify)

    p = with_n(sub.add_parser("morse", help="fixed points, edges, moment values"))
    p.add_argument("--areas", metavar="LIST", help="areas, e.g. 1,3/2 (default all 1)")
    p.add_argument("what", choices=("points", "edges", "moment"))
    p.set_defaults(handler=_cmd_morse)

    blow = sub.add_parser("blowup", help="the blow-up of the projective plane")
    blow_sub = blow.add_subparsers(dest="blowup_command", required=True)
    p = blow_sub.add_parser("mul", help="quantum product")
    p.add_argument("exprs", nargs=2, metavar="EXPR")
    p.set_defaults(handler=_cmd_blowup_mul)
    p = blow_sub.add_parser("seidel", help="multiply by the Seidel element b")
    p.add_argument("expr", metavar="EXPR")
    p.set_defaults(handler=_cmd_blowup_seidel)
    p = blow_sub.add_parser("signs", help="solved exceptional-class invariants")
    p.set_defaults(handler=_cmd_blowup_signs)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else 2
    except ValueError as exc:
        kind = type(exc) if isinstance(exc, QhcubeError) else UsageError
        print(f"error: {kind.code}: {exc}", file=sys.stderr)
        return kind.exit_status

if __name__ == "__main__":
    sys.exit(main())
