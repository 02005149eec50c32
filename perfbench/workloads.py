"""The benchmark's workloads: pinned instance sets, the operations run on
them, and the checks every answer must pass.

Each workload has a main set, the one the benchmark runs by default, and a
held-out set with the same defining property, for checking a claim on inputs
that were not looked at while the claim was made.  Every expected answer is
pinned here from the toolkit as first benchmarked; `record.py` re-derives each
pin with checks that do not trust the solver under test (see `pin_problems`).

This module never imports `uspr` itself: the caller passes the freshly
imported modules in, so that the benchmark can time the import and so that the
tracer's rebinding of module attributes is seen by every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

WORKLOADS = ("single-lp", "cuts", "grid", "export")
SETS = ("main", "heldout")

@dataclass(frozen=True)
class Case:
    """One generated instance and the answer pinned for it.

    `status`/`objective` pin a solver answer.  For the export workload,
    `sizes` pins (variables, constraints) per size-report table,
    `baselines` pins the (method, status, objective) rows of `uspr report`
    and `digests` pins the sha256 of each exported LP file, per table.
    """

    nodes: int
    degree: float
    demands: int
    seed: int
    options: tuple = ()
    status: str = ""
    objective: str | None = None
    sizes: tuple = ()
    baselines: tuple = ()
    digests: tuple = ()

    @property
    def label(self) -> str:
        opts = "".join(f",{k}={v}" for k, v in self.options)
        return f"({self.nodes},{self.degree},{self.demands}{opts})s{self.seed}"

    def generate(self, uspr):
        return uspr.instance.generate_random_instance(
            self.nodes, self.degree, self.demands, seed=self.seed, **dict(self.options)
        )


def _opt(nodes, degree, demands, seed, objective, **options) -> Case:
    return Case(nodes, degree, demands, seed, tuple(sorted(options.items())),
                "Optimal", objective)


def _infeasible(nodes, degree, demands, seed, **options) -> Case:
    return Case(nodes, degree, demands, seed, tuple(sorted(options.items())), "Infeasible")


# Size-report table labels, in the order `uspr report` prints them.
DBM = "DBM original"
DBM_MASTER = "DBM master"
OBM = "OBM original (all families)"
OBM_REDUCED = "OBM original (binary+flow variables, master+bound constraint families)"
OBM_MASTER = "OBM master"

_EXPORT_SIZES = (
    (DBM, 10590, 21720),
    (DBM_MASTER, 9600, 2520),
    (OBM, 7950, 12300),
    (OBM_REDUCED, 6960, 5340),
    (OBM_MASTER, 3480, 870),
)
_NON_UNIQUE_BASELINES = (("hop-count", "non-unique", "-"), ("inv-cap", "non-unique", "-"))

CASES = {
    "main": {
        # One feasible LP per answer: 202x316 tableau and 78 pivots on (10,2,10)s0.
        "single-lp": (
            _opt(10, 2, 10, 0, "11229/100"),
            _opt(10, 2, 10, 1, "13957/100"),
            _opt(10, 2, 10, 2, "16899/100"),
            _opt(8, 2, 8, 0, "1824/25"),
            _opt(8, 2, 8, 2, "11733/100"),
        ),
        # 7 LPs (6 infeasible); then 32 infeasible LPs over 720 master combinations.
        "cuts": (
            _opt(9, 2, 8, 12, "3043/25"),
            _infeasible(7, 2.5, 6, 19),
        ),
        # 65,536 + 59,049 + 19,683 weight vectors; brute force agrees with benders_solve.
        "grid": (
            _opt(5, 1.6, 4, 0, "2677/100", w_max=4),
            _opt(5, 2, 4, 0, "2209/100", w_max=3),
            _infeasible(6, 1.5, 5, 1, w_max=3),
        ),
        "export": (
            Case(30, 4, 80, 0, sizes=_EXPORT_SIZES, baselines=_NON_UNIQUE_BASELINES, digests=(
                (DBM, "530e9dc4109506afd19dadce76d1288e92267a413d3e902e4f090433527c9138"),
                (OBM, "54c47f50ec4d2578a214519e9b0bc9ff1f8bfecf1e2feff0634c27b063b5c082"),
                (OBM_MASTER, "27cdf5b8af30d790b66040131cc65b08b29422e088b41a6b2da94fa08fc1ac84"),
            )),
        ),
    },
    "heldout": {
        "single-lp": (
            _opt(10, 2, 10, 4, "9131/50"),
            _opt(10, 2, 10, 5, "2562/25"),
            _opt(8, 2, 8, 3, "1933/20"),
            _opt(8, 2, 8, 4, "7603/100"),
        ),
        # 53 LPs to Optimal; 9 infeasible LPs to a proof of infeasibility.
        "cuts": (
            _opt(8, 2, 8, 1, "3004/25"),
            _infeasible(7, 2, 6, 1, capacity_range=(5, 20)),
        ),
        "grid": (
            _opt(5, 1.6, 4, 1, "2677/50", w_max=4),
            _opt(5, 2, 4, 1, "297/10", w_max=3),
            _infeasible(6, 1.5, 5, 2, w_max=3),
        ),
        "export": (
            Case(30, 4, 80, 1, sizes=_EXPORT_SIZES, baselines=_NON_UNIQUE_BASELINES, digests=(
                (DBM, "aad7ccfc54eb903037f8285f6a3409380378da62bed61ff554923b9a71d4661b"),
                (OBM, "c4712ca258f2d8ae407dace35080be8bbe66574357ad60aef277493d1310aad9"),
                (OBM_MASTER, "68709b0c28d264b9e45e8926839a37d7f9a3a8c9f3ca8d366515c7cce6389ea1"),
            )),
        ),
    },
}


@dataclass
class Op:
    """One timed call.  `call` returns the output that `check` inspects;
    `check` returns the problems found (an empty list means correct)."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    counts: Callable[[object], dict] = field(default=lambda out: {})


# ---------------------------------------------------------------------------
# Checks.


def solution_problems(uspr, case: Case, instance, solution) -> list[str]:
    """Compare a solver answer with its pin and re-verify Optimal weights
    through the routing oracle, independently of the solver's own check."""
    problems = []
    objective = None if solution.objective is None else str(solution.objective)
    if (solution.status, objective) != (case.status, case.objective):
        problems.append(
            f"{case.label}: got {solution.status} {objective}, "
            f"pinned {case.status} {case.objective}"
        )
    if solution.status == "Optimal" and solution.weights is not None:
        spf = uspr.spf
        forest = spf.routing_from_weights(instance, solution.weights)
        if forest != solution.forest:
            problems.append(f"{case.label}: weights do not reproduce the forest")
        if spf.check_capacity(instance, forest):
            problems.append(f"{case.label}: routing violates capacity")
        if spf.evaluate_objective(instance, forest) != solution.objective:
            problems.append(f"{case.label}: objective does not match the routing")
    return problems


_TABLE_LINE = re.compile(r"^  (\S.*?)\s+([\d,]+) variables\s+([\d,]+) constraints$")
_WROTE_LINE = re.compile(r"^wrote .*: (\d+) variables (\d+) constraints$")


def _report_problems(case: Case, rc: int, text: str) -> list[str]:
    problems = [] if rc == 0 else [f"report exited {rc}"]
    sizes = tuple(
        (m.group(1), int(m.group(2).replace(",", "")), int(m.group(3).replace(",", "")))
        for m in map(_TABLE_LINE.match, text.splitlines()) if m
    )
    if sizes != case.sizes:
        problems.append(f"report sizes {sizes} != pinned {case.sizes}")
    lines = text.split("baseline comparison:\n", 1)[-1].splitlines()[1:]
    rows = tuple(tuple(line.split()[:3]) for line in lines if line.startswith("  "))
    if rows != case.baselines:
        problems.append(f"report baselines {rows} != pinned {case.baselines}")
    return problems


def _export_problems(expected: tuple[int, int], digest: str, rc: int, text: str,
                     path: Path) -> list[str]:
    """Check the reported sizes and the written LP text, then remove the file
    so that the next call has to write it again."""
    problems = [] if rc == 0 else [f"export exited {rc}"]
    m = _WROTE_LINE.match(text.strip())
    got = (int(m.group(1)), int(m.group(2))) if m else None
    if got != expected:
        problems.append(f"export of {path.name}: sizes {got} != pinned {expected}")
    if not path.is_file():
        problems.append(f"export of {path.name}: no LP file written")
    else:
        written = hashlib.sha256(path.read_bytes()).hexdigest()
        path.unlink()
        if written != digest:
            problems.append(f"export of {path.name}: sha256 {written} != pinned {digest}")
    return problems


# ---------------------------------------------------------------------------
# Operations.


def _run_cli(uspr, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = uspr.cli.main(argv)
    return rc, out.getvalue() + err.getvalue()


def _solve_op(uspr, case: Case, path: Path, solver_name: str) -> Op:
    def call():
        instance = uspr.instance.load_instance(path.read_text(encoding="utf-8"))
        return instance, getattr(uspr.solver, solver_name)(instance)

    def check(out):
        return solution_problems(uspr, case, *out)

    def counts(out):
        diagnostics = out[1].diagnostics
        if solver_name == "brute_force_solve":
            return {"grid_points": diagnostics.iterations}
        return {"lp_solves": diagnostics.details.get("lp_solves", 0)}

    return Op(case.label, call, check, counts)


def _size_of(case: Case, label: str) -> tuple[int, int]:
    return next((v, c) for name, v, c in case.sizes if name == label)


def _digest_of(case: Case, label: str) -> str:
    return next(digest for name, digest in case.digests if name == label)


def export_ops(uspr, case: Case, path: Path, workdir: Path) -> list[Op]:
    """`uspr report --no-solver` and three `uspr export -o` commands."""
    ops = [Op(
        f"report {case.label}",
        lambda: _run_cli(uspr, ["report", str(path), "--no-solver"]),
        lambda out: _report_problems(case, *out),
    )]
    for formulation, master, table in (
        ("dbm", False, DBM), ("obm", False, OBM), ("obm", True, OBM_MASTER)
    ):
        lp_path = workdir / f"{formulation}{'-master' if master else ''}.lp"
        argv = ["export", str(path), "--formulation", formulation, "-o", str(lp_path)]
        if master:
            argv.insert(-2, "--master")
        ops.append(Op(
            f"export {formulation}{' --master' if master else ''} {case.label}",
            lambda argv=argv: _run_cli(uspr, argv),
            lambda out, size=_size_of(case, table), digest=_digest_of(case, table), p=lp_path:
                _export_problems(size, digest, *out, p),
        ))
    return ops


def build_ops(uspr, workload: str, cases, paths: list[Path], workdir: Path) -> list[Op]:
    if workload == "export":
        return [op for case, path in zip(cases, paths) for op in export_ops(uspr, case, path, workdir)]
    solver_name = "brute_force_solve" if workload == "grid" else "benders_solve"
    return [_solve_op(uspr, case, path, solver_name) for case, path in zip(cases, paths)]


# ---------------------------------------------------------------------------
# Pin re-derivation, used by record.py; never inside a timed region.


def pin_problems(uspr, workload: str, case: Case) -> list[str]:
    """Check a pin against evidence that does not come from the call the
    benchmark times: brute force against the decomposition solver, the
    decomposition answer re-routed through the oracle, export sizes against
    the closed-form size report, and export digests against `export_lp`
    called directly on the built model."""
    instance = case.generate(uspr)
    if workload == "export":
        report = uspr.models.size_report(instance.dims())
        tables = (report.dbm, report.dbm_master, report.obm, report.obm_reduced, report.obm_master)
        closed = tuple((t.label, t.total_variables, t.total_constraints) for t in tables)
        problems = [] if closed == case.sizes else [f"size_report {closed} != pinned {case.sizes}"]
        for build, master, label in (
            (uspr.models.build_dbm, False, DBM),
            (uspr.models.build_obm, False, OBM),
            (uspr.models.build_obm, True, OBM_MASTER),
        ):
            model = build(instance)
            if master:
                model = uspr.models.master_submodel(model)
            built = (len(model.variables), len(model.constraints))
            if built != _size_of(case, label):
                problems.append(f"built {label} {built} != pinned {_size_of(case, label)}")
            digest = hashlib.sha256(uspr.models.export_lp(model).encode("utf-8")).hexdigest()
            if digest != _digest_of(case, label):
                problems.append(f"{label} LP text sha256 {digest} != pinned {_digest_of(case, label)}")
        return problems
    decomposition = uspr.solver.benders_solve(instance)
    problems = solution_problems(uspr, case, instance, decomposition)
    if workload == "grid":
        problems += solution_problems(uspr, case, instance, uspr.solver.brute_force_solve(instance))
    return problems

