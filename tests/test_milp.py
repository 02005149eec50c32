"""Differential test: the exported DBM/OBM, solved by HiGHS, against benders,
on 41 small cases and, for OBM, on a ladder of (20,3,16) seeds.

Each model is solved as the LP text `uspr export` writes for it, read back
by `parse_lp`, so HiGHS checks the exported bytes.  scipy is an optional
test dependency; the module skips when it is missing.
"""

import pytest

from conftest import coarse_grid_triangle, small_random
from oracles import parse_lp
from uspr.instance import generate_random_instance
from uspr.models import build_dbm, build_obm, export_lp
from uspr.solver import benders_solve

np = pytest.importorskip("numpy")
optimize = pytest.importorskip("scipy.optimize")


def solve_milp(built):
    """Minimize the built model's exported text with HiGHS; None when it is
    infeasible.  The text must read back as the built model."""
    model = parse_lp(export_lp(built))
    assert model == built
    index = {v.name: k for k, v in enumerate(model.variables)}
    n = len(index)
    cost = np.zeros(n)
    for name, coef in model.objective:
        cost[index[name]] += float(coef)
    matrix = np.zeros((len(model.constraints), n))
    lower = np.full(len(model.constraints), -np.inf)
    upper = np.full(len(model.constraints), np.inf)
    for r, c in enumerate(model.constraints):
        for name, coef in c.terms:
            matrix[r, index[name]] += float(coef)
        if c.sense in ("<=", "="):
            upper[r] = float(c.rhs)
        if c.sense in (">=", "="):
            lower[r] = float(c.rhs)
    bounds = optimize.Bounds(
        [float(v.lb) for v in model.variables],
        [np.inf if v.ub is None else float(v.ub) for v in model.variables],
    )
    integrality = [1 if v.kind == "binary" else 0 for v in model.variables]
    constraints = [optimize.LinearConstraint(matrix, lower, upper)] if len(matrix) else []
    result = optimize.milp(
        cost, constraints=constraints, bounds=bounds, integrality=integrality,
        options={"mip_rel_gap": 0},
    )
    if result.status == 2:
        return None
    assert result.status == 0, result.message
    return result.fun


CASES = [small_random(seed, tight=seed % 5 == 0) for seed in range(40)]
CASES.append(coarse_grid_triangle())


def assert_agrees_with_benders(inst, build):
    """HiGHS on the exported model against benders: the statuses agree, and
    the objectives are equal when recovery needed no branch node; with
    branch nodes benders' objective is at least HiGHS's."""
    reference = benders_solve(inst)
    # Recovery nodes past one per candidate are branch nodes; without
    # them every candidate was settled by the continuous system alone.
    d = reference.diagnostics
    branch_nodes = d.details["lp_solves"] - d.iterations
    objective = solve_milp(build(inst))
    assert (objective is None) == (
        reference.status == "Infeasible" and branch_nodes == 0
    ), inst
    if reference.status != "Optimal":
        return
    if branch_nodes == 0:
        assert objective == pytest.approx(float(reference.objective), abs=1e-6)
    else:
        assert objective <= float(reference.objective) + 1e-6


@pytest.mark.parametrize("build", [build_dbm, build_obm], ids=["dbm", "obm"])
def test_milp_formulations_agree_with_benders(build):
    for inst in CASES:
        assert_agrees_with_benders(inst, build)


@pytest.mark.parametrize("seed", range(8))
def test_obm_agrees_with_benders_at_working_scale(seed):
    # (20,3,16): the master and recovery do real work here, and both sides
    # take well under a second per seed.
    assert_agrees_with_benders(generate_random_instance(20, 3, 16, seed=seed), build_obm)


def test_masters_relax_their_formulations():
    # A master drops rows of its formulation, so its optimum is a lower bound;
    # the OBM master keeps no flow and has the empty objective.
    for inst in CASES:
        reference = benders_solve(inst)
        full = solve_milp(build_dbm(inst))
        dbm_master = solve_milp(build_dbm(inst, master=True))
        obm_master = solve_milp(build_obm(inst, master=True))
        for master in (dbm_master, obm_master):
            assert master is not None or reference.status == "Infeasible", inst
        if full is not None:
            assert dbm_master is not None and dbm_master <= full + 1e-6, inst
        assert obm_master in (None, 0), inst


def test_coarse_grid_triangle_is_optimal_four():
    inst = coarse_grid_triangle()
    assert benders_solve(inst).objective == 4
    assert solve_milp(build_dbm(inst)) == pytest.approx(4)
    assert solve_milp(build_obm(inst)) == pytest.approx(4)
