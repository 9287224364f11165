"""Command-line front end.

Subcommands: simulate (transfer probabilities on a time grid),
entangle (pairwise-group negativities), sweep (delta sweeps of the
min-max objectives), peaks (arrival peaks and the transfer window) and
verify (cross-check suites).  Numeric output goes to CSV with 17
significant digits so identical configurations give identical bytes;
summaries go to standard output.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O
error.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .dynamics import tau_grid
from .entanglement import Bipartition, negativity_grid
from .search import _PARAMS, KINDS, System, hpst_times, sweep1d, sweep2d
from .verify import run_all

__all__ = ["main"]


def _system_from(args) -> System:
    return System(args.system, k0=args.k0, **{name: getattr(args, name) for name in _PARAMS})


def _write_csv(path: str, header, columns) -> None:
    """The header and one %.17g line per row of the stacked columns, in one write."""
    table = np.column_stack(columns)
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n" + "".join(line % tuple(row) for row in table.tolist()))


def cmd_simulate(args) -> int:
    system = _system_from(args)
    taus = tau_grid(args.T, args.dtau)
    probs = system.probability_grid(taus)
    header = ["tau"] + [f"P_{m}" for m in range(1, system.n_nodes + 1)]
    _write_csv(args.out, header, [taus, *probs])
    return 0


def _parse_partition(text: str, n_nodes: int) -> Bipartition:
    halves = text.split("_")
    if len(halves) != 2 or not all(h.isdigit() for h in halves):
        raise ValueError(f"partition {text!r} is not of the form '15_48'")
    part = Bipartition(tuple(int(c) for c in halves[0]), tuple(int(c) for c in halves[1]))
    part._check_nodes(n_nodes)
    return part


def cmd_entangle(args) -> int:
    system = _system_from(args)
    if not args.partition:
        raise ValueError("at least one --partition is required")
    parts = [_parse_partition(p, system.n_nodes) for p in args.partition]
    taus = tau_grid(args.T, args.dtau)
    probs = system.probability_grid(taus)
    columns = [negativity_grid(*part.weights(probs)) for part in parts]
    header = ["tau"] + [f"N_{p.label()}" for p in parts]
    _write_csv(args.out, header, [taus, *columns])
    return 0


def cmd_sweep(args) -> int:
    params = KINDS[args.system][1]
    if not params:
        raise ValueError(f"{args.system} has no coupling parameter to sweep")
    if args.fn and len(params) > 1:
        raise ValueError("the FN column is available for 1D sweeps only")
    ranges, steps = [], []
    for name in params:
        for end in ("min", "max"):
            if getattr(args, f"{name}_{end}") is None:
                raise ValueError(f"{args.system} sweep requires --{name}-{end}")
        ranges.append((getattr(args, f"{name}_min"), getattr(args, f"{name}_max")))
        steps.append(getattr(args, f"{name}_step"))
    if len(params) > 1:
        result = sweep2d(*ranges, steps, args.T, args.dtau, P0=args.p0)
    else:
        result = sweep1d(
            args.system, ranges[0], steps[0], args.T, args.dtau, P0=args.p0, with_fn=args.fn
        )
    columns = [result.grid, result.fp] + ([result.fn] if args.fn else [])
    header = [*params, "FP"] + (["FN"] if args.fn else [])
    _write_csv(args.out, header, columns)
    if len(params) > 1:
        print(f"HPST points: {int(result.hpst.sum())} of {result.hpst.size}")
    elif result.intervals:
        for lo, hi in result.intervals:
            print(f"HPST interval: [{lo:.6g}, {hi:.6g}]")
    else:
        print("no HPST interval found")
    return 0


def cmd_peaks(args) -> int:
    system = _system_from(args)
    records, window = hpst_times(system, args.T, args.dtau, args.p0)
    print("m tau_star p_star")
    for rec in records:
        print(f"{rec.target} {rec.tau_star:.6g} {rec.p_star:.6g}")
    print(f"T_window {window:.6g}" if window is not None else "T_window undefined")
    return 0


def cmd_verify(args) -> int:
    failed = False
    for suite in run_all():
        status = "PASS" if suite.passed else "FAIL"
        print(f"{suite.name} max_dev={suite.max_deviation:.3g} tol={suite.tolerance:g} {status}")
        failed = failed or not suite.passed
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call.

    parse_args leaves it unchanged (an append action copies its default
    before appending), so consecutive main() calls share no state.
    """
    # Each shared flag group is declared once, as a parent parser that the
    # subcommands copy in this order: the kind, its parameters and start
    # node, the time grid, the output file, the threshold.
    kind, system, grid, out, p0 = (argparse.ArgumentParser(add_help=False) for _ in range(5))
    kind.add_argument("--system", required=True, choices=KINDS)
    for name in _PARAMS:
        system.add_argument(f"--{name}", type=float, default=None)
    system.add_argument("--k0", type=int, default=1)
    grid.add_argument("--T", type=float, required=True, dest="T")
    grid.add_argument("--dtau", type=float, default=0.01)
    out.add_argument("--out", required=True)
    p0.add_argument("--p0", type=float, default=0.9)

    parser = argparse.ArgumentParser(
        prog="spintransfer",
        description="Excitation transfer and entanglement in small dipolar spin clusters.",
    )
    add = parser.add_subparsers(dest="command", required=True).add_parser

    sub = add(
        "simulate", parents=[kind, system, grid, out], help="transfer probabilities on a time grid"
    )
    sub.set_defaults(func=cmd_simulate)

    sub = add("entangle", parents=[kind, system, grid, out], help="group negativities on a time grid")
    sub.add_argument(
        "--partition",
        action="append",
        default=[],
        metavar="A_B",
        help="bipartition such as 15_48 for nodes {1,5} vs {4,8}; repeatable",
    )
    sub.set_defaults(func=cmd_entangle)

    sub = add("sweep", parents=[kind, grid, out, p0], help="delta sweep of the min-max objectives")
    for name in _PARAMS:
        sub.add_argument(f"--{name}-min", type=float, default=None)
        sub.add_argument(f"--{name}-max", type=float, default=None)
        sub.add_argument(f"--{name}-step", type=float, default=0.01)
    sub.add_argument("--fn", action="store_true", help="add the FN column (1D only)")
    sub.set_defaults(func=cmd_sweep)

    sub = add("peaks", parents=[kind, system, grid, p0], help="arrival peaks and the transfer window")
    sub.set_defaults(func=cmd_peaks)

    sub = add("verify", help="run the cross-check suites")
    sub.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
