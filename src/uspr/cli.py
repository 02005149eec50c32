"""Command-line front end: generate, validate, solve, verify, export, report.

Exit codes are a stable scripting contract: 0 success, 1 usage or input
errors, 2 infeasibility or a failed verification, 3 a solver limit was hit.
Every command is deterministic given its arguments (randomness is seeded).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import lp, models, solver, spf
from .instance import (
    Instance,
    InstanceDims,
    InstanceValidationError,
    generate_random_instance,
    load_instance,
    save_instance,
)
from .rational import format_number, parse_number

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_LIMITS = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fraction_arg(text: str) -> Fraction:
    # No location: argparse names the option in front of the message.
    return parse_number(text, "", argparse.ArgumentTypeError)


class _HelpFormatter(argparse.HelpFormatter):
    """Appends "(default: ...)" to an argument's help, unless the help already
    names its default or there is none to print (required arguments, flags,
    and computed defaults, which are None)."""

    def _get_help_string(self, action):
        text = action.help or ""
        default = action.default
        if "(default:" in text or action.required or action.nargs == 0 or default is None:
            return text
        if isinstance(default, list):
            default = " ".join(str(v) for v in default)
        return f"{text} (default: {default})"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="uspr",
        description=(
            "Unique shortest-path routing toolkit: generate instances, set "
            "link weights optimally, verify routings, export models."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = _HelpFormatter

    p = sub.add_parser("generate", help="generate a random instance", formatter_class=fmt)
    p.add_argument("--nodes", type=int, required=True, help="number of nodes")
    p.add_argument("--degree", type=float, required=True, help="average out-degree")
    p.add_argument("--demands", type=int, required=True, help="number of demands")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--cap-range", nargs=2, type=_fraction_arg, default=[Fraction(10), Fraction(100)],
                   metavar=("LO", "HI"), help="capacity range")
    p.add_argument("--demand-range", nargs=2, type=_fraction_arg, default=[Fraction(1), Fraction(10)],
                   metavar=("LO", "HI"), help="bandwidth range")
    p.add_argument("--w-min", type=_fraction_arg, default=Fraction(1), help="weight lower bound")
    p.add_argument("--w-max", type=_fraction_arg, default=Fraction(10), help="weight upper bound")
    p.add_argument("--resolution", type=_fraction_arg, default=Fraction(1),
                   help="weight grid step")
    p.add_argument("-o", "--output", required=True, help="instance file to write")

    p = sub.add_parser("validate", help="validate an instance file", formatter_class=fmt)
    p.add_argument("instance", help="instance file")

    p = sub.add_parser("solve", help="find an optimal weight set", formatter_class=fmt)
    p.add_argument("instance", help="instance file")
    p.add_argument("-o", "--output", help="solution file to write")
    p.add_argument("--oracle", action="store_true",
                   help="solve by exhaustive weight-grid enumeration instead of "
                        "decomposition")
    p.add_argument("--node-limit", type=int, default=None,
                   help="decomposition only: master candidate limit (default: no limit)")
    p.add_argument("--time-limit", type=float, default=None,
                   help="decomposition only: wall-time limit in seconds, checked before "
                        "each master candidate, so a started weight recovery finishes "
                        "(default: no limit)")
    p.add_argument("--grid-limit", type=int, default=None,
                   help=f"--oracle only: weight-vector limit (default: {spf.GRID_LIMIT})")

    p = sub.add_parser("verify", help="verify a weight vector against an instance",
                       formatter_class=fmt)
    p.add_argument("instance", help="instance file")
    p.add_argument("weights", help="weights file")

    p = sub.add_parser("export", help="export a model as LP text", formatter_class=fmt)
    p.add_argument("instance", help="instance file")
    p.add_argument("--formulation", choices=["dbm", "obm"], required=True)
    p.add_argument("--master", action="store_true", help="export only the master submodel")
    p.add_argument("--eps", type=_fraction_arg, default=None,
                   help="strictness constant, 0 < eps <= gcd of w_min and the resolution "
                        "(default: that gcd)")
    p.add_argument("--big-m", type=_fraction_arg, default=None,
                   help="big-M constant (default: (|N|-1)*w_max + eps)")
    p.add_argument("-o", "--output", help="LP file to write (default: stdout)")

    p = sub.add_parser("report", help="size/structure/baseline report", formatter_class=fmt)
    p.add_argument("instance", nargs="?", help="instance file (optional with --dims)")
    p.add_argument("--dims", nargs=4, type=int, metavar=("N", "L", "D", "S"),
                   help="report closed-form sizes for these cardinalities")
    p.add_argument("--format", choices=["text", "tsv"], default="text")
    p.add_argument("--no-solver", action="store_true",
                   help="skip the optimal solve in the baseline table; that solve has "
                        "no time, node or memory limit, so this keeps report bounded")
    return parser


def _load(path: str) -> Instance:
    return load_instance(Path(path).read_text(encoding="utf-8"))


def _cmd_generate(args) -> int:
    instance = generate_random_instance(
        n_nodes=args.nodes,
        avg_out_degree=args.degree,
        n_demands=args.demands,
        capacity_range=tuple(args.cap_range),
        demand_range=tuple(args.demand_range),
        w_min=args.w_min,
        w_max=args.w_max,
        weight_resolution=args.resolution,
        seed=args.seed,
    )
    Path(args.output).write_text(save_instance(instance), encoding="utf-8")
    d = instance.dims()
    print(
        f"wrote {args.output}: nodes={d.n_nodes} links={d.n_links} "
        f"demands={d.n_demands} origins={d.n_origins}"
    )
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        _load(args.instance)
    except InstanceValidationError as exc:
        for violation in exc.violations:
            print(violation)
        return EXIT_INFEASIBLE
    print("valid")
    return EXIT_OK


def _summary(instance: Instance, result: solver.Solution) -> str:
    parts = [f"status={result.status}"]
    if result.objective is not None:
        parts.append(f"objective={format_number(result.objective)}")
        util = spf.max_utilization(instance, result.forest)
        parts.append(f"max_utilization={_ratio_text(util)}")
    parts.append(f"iterations={result.diagnostics.iterations}")
    parts.append(f"cuts={result.diagnostics.cuts_added}")
    return " ".join(parts)


def _ratio_text(x: Fraction) -> str:
    s = format_number(x)
    return s if "/" not in s else f"{float(x):.6f}"


def _cmd_solve(args) -> int:
    if args.oracle and (args.node_limit is not None or args.time_limit is not None):
        raise ValueError("--node-limit and --time-limit apply to decomposition, not to --oracle")
    if not args.oracle and args.grid_limit is not None:
        raise ValueError("--grid-limit applies to --oracle only")
    instance = _load(args.instance)
    if args.oracle:
        grid_limit = spf.GRID_LIMIT if args.grid_limit is None else args.grid_limit
        result = solver.brute_force_solve(instance, grid_limit=grid_limit)
    else:
        config = solver.SolverConfig(node_limit=args.node_limit, time_limit=args.time_limit)
        result = solver.benders_solve(instance, config)
    print(_summary(instance, result))
    if args.output:
        Path(args.output).write_text(
            solver.solution_to_json(instance, result), encoding="utf-8"
        )
    if result.status == "Optimal":
        return EXIT_OK
    if result.status == "BoundsExhausted":
        return EXIT_LIMITS
    return EXIT_INFEASIBLE


def _cmd_verify(args) -> int:
    instance = _load(args.instance)
    weights = spf.load_weights(Path(args.weights).read_text(encoding="utf-8"))
    try:
        forest = spf.routing_from_weights(instance, weights)
    except spf.NonUniqueRoutingError as exc:
        print(f"non-unique: demand ({exc.demand.origin}, {exc.demand.destination})")
        return EXIT_INFEASIBLE
    except spf.UnreachableDemandError as exc:
        print(f"unreachable: demand ({exc.demand.origin}, {exc.demand.destination})")
        return EXIT_INFEASIBLE
    sys.stdout.write(spf.render_forest(instance, forest))
    violations = spf.check_capacity(instance, forest)
    if violations:
        print("capacity violations:")
        for v in violations:
            print(
                f"  link {v.link[0]}->{v.link[1]}: load {format_number(v.load)} "
                f"> capacity {format_number(v.capacity)} "
                f"(excess {format_number(v.excess)})"
            )
        return EXIT_INFEASIBLE
    print(f"max_utilization={_ratio_text(spf.max_utilization(instance, forest))}")
    return EXIT_OK


@models._collector_paused
def _cmd_export(args) -> int:
    instance = _load(args.instance)
    build = models.build_dbm if args.formulation == "dbm" else models.build_obm
    model = build(instance, args.eps, args.big_m, master=args.master)
    text = models.export_lp(model)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(
            f"wrote {args.output}: {len(model.variables)} variables "
            f"{len(model.constraints)} constraints"
        )
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _baseline_rows(instance: Instance, skip_solver: bool) -> list[tuple[str, str, str, str]]:
    rows = []
    utils: dict[str, Fraction] = {}
    for label, maker in (("hop-count", spf.hop_count_weights), ("inv-cap", spf.inv_cap_weights)):
        try:
            weights = maker(instance)
            forest = spf.routing_from_weights(instance, weights)
        except spf.NonUniqueRoutingError:
            rows.append((label, "non-unique", "-", "-"))
            continue
        except (spf.UnreachableDemandError, spf.ZeroCapacityError) as exc:
            rows.append((label, f"error: {exc}", "-", "-"))
            continue
        if spf.check_capacity(instance, forest):
            rows.append((label, "over-capacity", "-", "-"))
            continue
        objective = spf.evaluate_objective(instance, forest)
        util = spf.max_utilization(instance, forest)
        utils[label] = util
        rows.append((label, "feasible", format_number(objective), _ratio_text(util)))
    if not skip_solver:
        result = solver.benders_solve(instance)
        if result.status == "Optimal":
            util = spf.max_utilization(instance, result.forest)
            utils["solver"] = util
            rows.append(
                ("solver", "Optimal", format_number(result.objective), _ratio_text(util))
            )
        else:
            rows.append(("solver", result.status, "-", "-"))
    solver_util = utils.get("solver")
    for label in ("hop-count", "inv-cap"):
        if solver_util is not None and label in utils and utils[label] > 0:
            ratio = solver_util / utils[label]
            rows.append(
                (f"solver/{label} utilization ratio", _ratio_text(ratio), "", "")
            )
    return rows


def _cmd_report(args) -> int:
    if args.dims is None and args.instance is None:
        raise ValueError("provide an instance file or --dims N L D S")
    out = []
    if args.dims is not None:
        dims = InstanceDims(*args.dims)
        out.append(models.render_size_report(models.size_report(dims), args.format))
    if args.instance is not None:
        instance = _load(args.instance)
        sizes = models.size_report(instance.dims())
        if args.dims is None:
            out.append(models.render_size_report(sizes, args.format))
        for formulation, table in (("DBM", sizes.dbm), ("OBM", sizes.obm)):
            structure = models.structure_report(formulation, table)
            out.append(models.render_structure_report(structure, args.format))
        rows = _baseline_rows(instance, args.no_solver)
        if args.format == "tsv":
            lines = ["method\tstatus\tobjective\tmax_utilization"]
            lines.extend("\t".join(r) for r in rows)
            out.append("\n".join(lines) + "\n")
        else:
            # Each padded column is as wide as its longest cell, at least as
            # wide as the fixed widths the golden files print.
            widths = [max([w] + [len(r[k]) for r in rows]) for k, w in enumerate((36, 14, 12))]
            lines = ["baseline comparison:"]
            for r in [("method", "status", "objective", "max_utilization"), *rows]:
                padded = "".join(f"{cell:<{w}} " for cell, w in zip(r, widths))
                lines.append(f"  {padded}{r[3]}".rstrip())
            out.append("\n".join(lines) + "\n")
        out.append(
            "note: utilization ratios against the baselines depend on the "
            "instance set; figures measured on other instance sets are not "
            "reproducible here.\n"
        )
    sys.stdout.write("".join(out))
    return EXIT_OK


_HANDLERS = {
    "generate": _cmd_generate,
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "export": _cmd_export,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        # Bad input: the instance, weights and model errors subclass ValueError.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (spf.GridSearchLimitError, lp.SimplexResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMITS


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
