import hashlib
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from conftest import all_routings, diamond, mk_instance, small_random, two_node
import oracles
from uspr import lp, models, solver, spf
from uspr.instance import generate_random_instance
from uspr.lp import (
    LinearSystem,
    path_length_system,
    recover_weights,
    solve_feasibility,
)
from uspr.models import Constraint, Variable
from uspr.rational import grid_size, on_grid, snap_to_grid
from uspr.spf import RoutingForest, WeightVector


def F(x):
    return Fraction(x)


def var(name, lb=None, ub=None):
    return Variable(name, "continuous", None if lb is None else F(lb),
                    None if ub is None else F(ub))


def row(name, terms, sense, rhs):
    return Constraint(name, tuple((n, F(c)) for n, c in terms), sense, F(rhs))


def test_bound_conflict_infeasible():
    system = LinearSystem((var("x", 0, 1),), (row("r1", [("x", 1)], ">=", 2),))
    result = solve_feasibility(system)
    assert not result.feasible
    assert result.conflict_core == ("r1",)


def test_simple_feasible_with_witness():
    system = LinearSystem(
        (var("x", 1, 10), var("y", 1, 10)),
        (row("sum", [("x", 1), ("y", 1)], "<=", 3),),
    )
    result = solve_feasibility(system)
    assert result.feasible
    assert result.assignment["x"] + result.assignment["y"] <= 3
    assert result.assignment["x"] >= 1 and result.assignment["y"] >= 1


def test_equality_rows_and_free_variables():
    system = LinearSystem(
        (var("x", -10), var("y", 0)),
        (
            row("e1", [("x", 1), ("y", 1)], "=", 5),
            row("e2", [("x", 1), ("y", -1)], "=", -9),
        ),
    )
    result = solve_feasibility(system)
    assert result.feasible
    assert result.assignment == {"x": F(-2), "y": F(7)}


@pytest.mark.parametrize("variables, rows, problem", [
    ((var("x"),), (), "variable x: no lower bound"),
    ((var("x", None, 3),), (), "variable x: no lower bound"),
    ((Variable("x", "binary", F(0), F(1)),), (), "variable x: must be continuous"),
    ((var("x", 2, 1),), (), "variable x: empty bound interval"),
    ((var("x", 0),), (row("r", [("x", 1)], "<=", 1), row("r", [("x", 1)], ">=", 0)),
     "constraint r: declared twice"),
    ((var("x", 0),), (row("r", [("x", 1)], "<", 1),), "constraint r: unknown sense '<'"),
], ids=["free", "upper-only", "binary", "empty-interval", "row-twice", "unknown-sense"])
def test_solve_feasibility_refuses_an_ill_formed_system(variables, rows, problem):
    with pytest.raises(ValueError) as error:
        solve_feasibility(LinearSystem(variables, rows))
    assert str(error.value) == f"ill-formed system: {problem}"


def test_upper_bound_is_one_more_row_of_the_shared_encoder():
    # x in [1/2, 3/2]: the bound row x <= 3/2 folds lb like any row and is
    # stored as u <= 1 over the denominator 2, after the system's row r
    # (slack 1, artificial 3) with its own basic slack 2.
    x = var("x", Fraction(1, 2), Fraction(3, 2))
    system = LinearSystem((x,), (row("r", [("x", 1)], ">=", Fraction(3, 2)),))
    tableau = lp._Simplex(system)
    assert tableau.var_cols == [0]
    assert tableau.rows == [{0: 2, 1: -2, 3: 2, lp.RHS: 2}, {0: 2, 2: 2, lp.RHS: 2}]
    assert tableau.basis == [3, 2] and tableau.artificial_start == 3
    for result in (tableau.solve(), solve_feasibility(system)):
        assert result.feasible and result.assignment == {"x": Fraction(3, 2)}

    # Past the bound, the core names the system's row and never a bound row.
    system = LinearSystem((x,), (row("r", [("x", 1)], ">=", 2),))
    assert lp._Simplex(system).solve().conflict_core == ("r",)
    assert solve_feasibility(system).conflict_core == ("r",)

    # lb == ub: no column, so no bound row either.
    fixed = var("x", Fraction(3, 2), Fraction(3, 2))
    system = LinearSystem((fixed,), (row("r", [("x", 1)], ">=", Fraction(3, 2)),))
    tableau = lp._Simplex(system)
    assert tableau.var_cols == [None] and len(tableau.rows) == 1
    assert solve_feasibility(system).assignment == {"x": Fraction(3, 2)}


def test_random_systems_built_around_witness_are_feasible():
    rng = random.Random(5)
    for _ in range(60):
        nvars = rng.randint(1, 5)
        names = [f"v{i}" for i in range(nvars)]
        point = {n: F(rng.randint(-5, 5)) for n in names}
        variables = tuple(
            var(n, point[n] - rng.randint(0, 3), point[n] + rng.randint(0, 3))
            for n in names
        )
        rows = []
        for r in range(rng.randint(1, 6)):
            terms = [(n, rng.randint(-3, 3)) for n in names if rng.random() < 0.7]
            if not terms:
                continue
            lhs = sum(F(c) * point[n] for n, c in terms)
            sense = ("<=", ">=", "=")[rng.randrange(3)]
            slack = F(rng.randint(0, 4))
            rhs = lhs + slack if sense == "<=" else lhs - slack if sense == ">=" else lhs
            rows.append(row(f"r{r}", terms, sense, rhs))
        system = LinearSystem(variables, tuple(rows))
        result = solve_feasibility(system)
        assert result.feasible
        # independent substitution re-check
        for c in rows:
            lhs = sum(coef * result.assignment[n] for n, coef in c.terms)
            assert (lhs <= c.rhs if c.sense == "<=" else
                    lhs >= c.rhs if c.sense == ">=" else lhs == c.rhs)


def assert_irreducible_core(system, core):
    """The core rows alone are infeasible; without any one of them, feasible."""
    rows = {r.name: r for r in system.rows}

    def feasible(names):
        return solve_feasibility(
            LinearSystem(system.variables, tuple(rows[n] for n in names))
        ).feasible

    assert core and not feasible(core)
    for name in core:
        assert feasible([n for n in core if n != name])


def test_contradictory_rows_yield_irreducible_core():
    rng = random.Random(9)
    for _ in range(20):
        nvars = rng.randint(1, 4)
        names = [f"v{i}" for i in range(nvars)]
        variables = tuple(var(n, 0, 10) for n in names)
        pick = names[rng.randrange(nvars)]
        a = rng.randint(2, 8)
        rows = (
            row("lo", [(pick, 1)], ">=", a),
            row("hi", [(pick, 1)], "<=", a - 1),
            row("extra", [(n, 1) for n in names], "<=", 10 * nvars),
        )
        system = LinearSystem(variables, rows)
        result = solve_feasibility(system)
        assert not result.feasible
        assert set(result.conflict_core) == {"lo", "hi"}
        assert_irreducible_core(system, result.conflict_core)


def test_two_independent_contradictions_core_is_one_pair():
    variables = (var("x", 0, 10), var("y", 0, 10))
    rows = (
        row("lo1", [("x", 1)], ">=", 5),
        row("sum", [("x", 1), ("y", 1)], "<=", 20),
        row("lo2", [("y", 1)], ">=", 7),
        row("hi1", [("x", 1)], "<=", 4),
        row("hi2", [("y", 1)], "<=", 3),
    )
    system = LinearSystem(variables, rows)
    result = solve_feasibility(system)
    assert not result.feasible
    assert set(result.conflict_core) in ({"lo1", "hi1"}, {"lo2", "hi2"})
    assert_irreducible_core(system, result.conflict_core)


def forest_via(instance, weights):
    return spf.routing_from_weights(instance, WeightVector(weights))


def test_recover_weights_diamond():
    inst = diamond()
    forest = forest_via(inst, {("s", "a"): F(1), ("a", "t"): F(1),
                               ("s", "b"): F(1), ("b", "t"): F(2)})
    result = recover_weights(inst, forest)
    assert result.ok
    assert spf.routing_from_weights(inst, result.weights) == forest


def test_recover_diamond_system_admits_hand_witness():
    inst = diamond()
    forest = forest_via(inst, {("s", "a"): F(1), ("a", "t"): F(1),
                               ("s", "b"): F(1), ("b", "t"): F(2)})
    system, _ = path_length_system(inst, forest)
    # the weights come first, in instance link order
    assert [v.name for v in system.variables[:4]] == ["w_s_a", "w_a_t", "w_s_b", "w_b_t"]
    result = solve_feasibility(system)
    assert result.feasible
    # the hand witness is admissible for this system
    witness = dict(result.assignment)
    witness.update({"w_s_a": F(1), "w_a_t": F(1), "w_s_b": F(1), "w_b_t": F(2),
                    "l_s_s": F(0), "l_s_a": F(1), "l_s_b": F(1), "l_s_t": F(2)})
    for c in system.rows:
        lhs = sum(coef * witness[n] for n, coef in c.terms)
        assert (lhs <= c.rhs if c.sense == "<=" else
                lhs >= c.rhs if c.sense == ">=" else lhs == c.rhs)


def test_recover_single_link_trivial():
    inst = two_node()
    forest = forest_via(inst, {("a", "b"): F(4)})
    result = recover_weights(inst, forest)
    assert result.ok


def test_recover_forced_long_path_with_fixed_weights_infeasible():
    inst = diamond(w_min=2, w_max=2)
    forced = RoutingForest({("s", "t"): ("s", "a", "t")})
    result = recover_weights(inst, forced)
    assert result.status == "lp_infeasible" and result.bindings
    cut = solver.NoGoodCut(result.bindings)
    matched = 0
    for forest in solver.master_search(inst):
        used = {s: forest.used_links(s) for s in inst.origins()}
        if solver.cut_matches(cut, used):
            matched += 1
            assert recover_weights(inst, forest).status == "lp_infeasible"
    assert matched >= 1  # the forced forest itself is a master candidate


def test_recover_subpath_violating_forest_always_infeasible():
    # Two used incoming links at one node for the same origin contradict the
    # strict/equality pair regardless of the weights: s's paths enter a from
    # s and from b.
    inst = mk_instance(
        ["s", "a", "b", "t"],
        [("s", "a", 10), ("a", "t", 10), ("s", "b", 10), ("b", "a", 10)],
        [("s", "t", 1), ("s", "a", 1)],
    )
    bad = RoutingForest({("s", "t"): ("s", "a", "t"), ("s", "a"): ("s", "b", "a")})
    assert recover_weights(inst, bad).status == "lp_infeasible"


def test_recover_round_trip_on_random_instances():
    for seed in range(25):
        inst = small_random(seed)
        try:
            forest = spf.routing_from_weights(inst, spf.hop_count_weights(inst))
        except (spf.NonUniqueRoutingError, spf.UnreachableDemandError):
            continue
        result = recover_weights(inst, forest)
        assert result.ok
        assert spf.routing_from_weights(inst, result.weights) == forest


def _fourier_motzkin_feasible(variables, rows) -> bool:
    """Independent exact feasibility oracle: eliminate variables one by one.

    All constraints are normalized to <= form (equalities become two
    inequalities, bounds become rows); eliminating x from a system keeps it
    feasible iff every (lower bound on x) <= every (upper bound on x).
    """
    names = [v.name for v in variables]
    ineqs = []  # ({name: coef}, rhs) meaning sum coef*x <= rhs
    for v in variables:
        if v.lb is not None:
            ineqs.append(({v.name: F(-1)}, -v.lb))
        if v.ub is not None:
            ineqs.append(({v.name: F(1)}, v.ub))
    for r in rows:
        coeffs = {n: c for n, c in r.terms}
        if r.sense in ("<=", "="):
            ineqs.append((dict(coeffs), r.rhs))
        if r.sense in (">=", "="):
            ineqs.append(({n: -c for n, c in coeffs.items()}, -r.rhs))
    for name in names:
        uppers, lowers, rest = [], [], []
        for coeffs, rhs in ineqs:
            c = coeffs.get(name, F(0))
            reduced = {n: v for n, v in coeffs.items() if n != name and v != 0}
            if c > 0:
                uppers.append(({n: v / c for n, v in reduced.items()}, rhs / c))
            elif c < 0:
                lowers.append(({n: v / c for n, v in reduced.items()}, rhs / c))
            else:
                rest.append((reduced, rhs))
        for lo_coeffs, lo_rhs in lowers:  # x >= lo_rhs - lo_coeffs . x_rest
            for up_coeffs, up_rhs in uppers:
                combined = dict(up_coeffs)
                for n, v in lo_coeffs.items():
                    combined[n] = combined.get(n, F(0)) - v
                rest.append((combined, up_rhs - lo_rhs))
        ineqs = rest
    return all(rhs >= 0 for coeffs, rhs in ineqs if not coeffs)


def _integer(rng, lo, hi):
    return rng.randint(lo, hi)


def _rational(rng, lo, hi):
    """Denominators 1-6, over three times the integer range."""
    return Fraction(rng.randint(3 * lo, 3 * hi), rng.randint(1, 6))


def _random_systems(seed, count, max_vars, number):
    """Random systems; number(rng, lo, hi) draws every coefficient, bound and rhs.
    Every variable has a lower bound, and about half of them an upper bound."""
    rng = random.Random(seed)
    for _ in range(count):
        names = [f"v{i}" for i in range(rng.randint(1, max_vars))]
        variables = tuple(
            var(n, number(rng, -4, 0), rng.choice([None, number(rng, 1, 5)]))
            for n in names
        )
        rows = []
        for r in range(rng.randint(1, 5)):
            terms = [(n, number(rng, -3, 3)) for n in names if rng.random() < 0.8]
            terms = [(n, c) for n, c in terms if c]
            if not terms:
                continue
            sense = ("<=", ">=", "=")[rng.randrange(3)]
            rows.append(row(f"r{r}", terms, sense, number(rng, -6, 6)))
        yield LinearSystem(variables, tuple(rows))


def _assert_agrees_with_fourier_motzkin(systems):
    feasible_seen = infeasible_seen = 0
    for system in systems:
        variables, rows = system.variables, system.rows
        result = solve_feasibility(system)
        got = result.feasible
        assert got == _fourier_motzkin_feasible(variables, rows)
        if not got:  # the core is irreducible by the same reference
            core = [r for r in rows if r.name in result.conflict_core]
            assert not _fourier_motzkin_feasible(variables, core)
            for dropped in core:
                assert _fourier_motzkin_feasible(
                    variables, [r for r in core if r is not dropped]
                )
        feasible_seen += got
        infeasible_seen += not got
    assert feasible_seen > 50 and infeasible_seen > 50


def test_simplex_agrees_with_fourier_motzkin():
    _assert_agrees_with_fourier_motzkin(_random_systems(1234, 300, 4, _integer))


def test_simplex_agrees_with_fourier_motzkin_on_rational_systems():
    # Rows then carry denominators other than 1 and pivot on non-unit entries.
    _assert_agrees_with_fourier_motzkin(_random_systems(4321, 300, 3, _rational))


def test_integer_tableau_stays_a_basis_after_every_pivot(monkeypatch):
    # After each pivot every basic column is a unit column of the tableau: one
    # row holds it, and its numerator there, the row's denominator, is
    # positive.  Every constraint row's rhs stays at least 0, so phase 1's
    # basis stays primal feasible.  The objective row after the constraint
    # rows holds no basic column and a positive denominator in its own column,
    # and phase 1's objective never increases.  The rows a pivot eliminates
    # from are exactly those that held its entering column just before it, in
    # ascending order: the ratio test and the elimination read that one scan.
    pivot = lp._Simplex._pivot
    non_unit = 0

    def objective(self):
        m = len(self.basis)
        return Fraction(-self.rows[m].get(lp.RHS, 0), self.rows[m][self.ncols])

    def checked(self, r, c, holding):
        nonlocal non_unit
        assert holding == [k for k, other in enumerate(self.rows) if c in other]
        non_unit += self.rows[r][c] != self.rows[r][self.basis[r]]
        before = objective(self)
        pivot(self, r, c, holding)
        m = len(self.basis)
        assert len(self.rows) == m + 1 and self.rows[m][self.ncols] > 0
        assert sum(self.ncols in other for other in self.rows) == 1
        for tableau_row, col in zip(self.rows, self.basis):
            assert tableau_row[col] > 0 and tableau_row.get(lp.RHS, 0) >= 0
            assert col not in self.rows[m]
            assert sum(col in other for other in self.rows) == 1
        assert 0 <= objective(self) <= before

    monkeypatch.setattr(lp._Simplex, "_pivot", checked)
    for system in _random_systems(99, 150, 3, _rational):
        lp._Simplex(system).solve()
    assert non_unit > 100


@pytest.mark.parametrize("seed, count, max_vars, number, pivots, with_cores, feasible", [
    (1234, 300, 4, _integer, 473, 813, 195),
    (4321, 300, 3, _rational, 421, 817, 149),
    (99, 150, 3, _rational, 215, 394, 92),
])
def test_simplex_work_on_random_systems_is_pinned(
    seed, count, max_vars, number, pivots, with_cores, feasible
):
    # Bland's rule fixes every pivot, so the summed pivot counts are exact.
    # These systems pivot on non-unit entries, which the path-length systems
    # rarely reach.  `with_cores` adds the deletion passes of solve_feasibility.
    systems = list(_random_systems(seed, count, max_vars, number))
    results = [lp._Simplex(system).solve() for system in systems]
    assert sum(r.pivots for r in results) == pivots
    assert sum(r.feasible for r in results) == feasible
    assert sum(solve_feasibility(system).pivots for system in systems) == with_cores


def test_simplex_outputs_on_random_systems_are_pinned():
    # The same 750 systems, each solved by _Simplex and by solve_feasibility:
    # every answer, pivot count, core and assignment goes into one hash, so a
    # change that moves any tableau number shows here.
    digest = hashlib.sha256()
    for seed, count, max_vars, number in (
        (1234, 300, 4, _integer), (4321, 300, 3, _rational), (99, 150, 3, _rational),
    ):
        for system in _random_systems(seed, count, max_vars, number):
            for result in (lp._Simplex(system).solve(), solve_feasibility(system)):
                digest.update(repr((
                    result.feasible,
                    result.pivots,
                    getattr(result, "conflict_core", None) or None,
                    sorted(getattr(result, "assignment", {}).items()),
                )).encode())
    assert digest.hexdigest() == (
        "815c74eb2602cf6a0b78409a0ae814158b20530e7d4d17bd1a3495a3d86b2e42"
    )


def _assert_selection_is_fresh(template, keep, select=lp._Simplex.select):
    """A row selection of the template solves as a fresh tableau of those
    rows and the variables they mention: same answer, pivots, Farkas support
    and assignment.  `select` defaults to the unwrapped `_Simplex.select`."""
    rows = tuple(template.system.rows[r] for r in keep)
    mentioned = {name for r in rows for name, _ in r.terms}
    variables = tuple(v for v in template.system.variables if v.name in mentioned)
    fresh = lp._Simplex(LinearSystem(variables, rows)).solve()
    selected = select(template, keep).solve()
    assert type(selected) is type(fresh) and selected == fresh


def test_row_selection_solves_as_a_fresh_tableau(monkeypatch):
    # Every row set one template gives: all rows, and each set missing one.
    # One template serves them all, so a selection that changed its template
    # shows in the next one.
    for seed, count, max_vars, number in (
        (1234, 300, 4, _integer), (4321, 300, 3, _rational), (99, 150, 3, _rational),
    ):
        for system in _random_systems(seed, count, max_vars, number):
            template = lp._Simplex(system)
            every = list(range(len(system.rows)))
            for keep in [every] + [every[:r] + every[r + 1:] for r in every]:
                _assert_selection_is_fresh(template, keep)

    # Dropping every row of the bounded y drops its bound row and its value;
    # the fixed z has no column and no bound row, and is read back at its lb.
    system = LinearSystem(
        (var("x", 0), var("y", 0, 5), var("z", 3, 3)),
        (row("a", [("x", 1), ("z", 1)], ">=", 5), row("b", [("x", 1), ("y", 1)], "<=", 3),
         row("c", [("y", 1)], ">=", 2)),
    )
    template = lp._Simplex(system)
    assert len(template.select([0]).rows) == 1 and len(template.select([1, 2]).rows) == 3
    assert template.select([0]).solve().assignment == {"x": 2, "z": 3}
    assert template.select([0, 1, 2]).solve().conflict_core == ("a", "b", "c")
    for keep in ([0], [0, 1], [1, 2], [0, 2], [0, 1, 2]):
        _assert_selection_is_fresh(template, keep)

    # Every deletion trial, and every final re-solve, of a cut loop's cores.
    select = lp._Simplex.select
    trials = 0

    def checked(self, keep):
        nonlocal trials
        trials += 1
        _assert_selection_is_fresh(self, keep, select)
        return select(self, keep)

    monkeypatch.setattr(lp._Simplex, "select", checked)
    inst = generate_random_instance(7, 2.6, 5, w_min=2, w_max=5, weight_resolution=3, seed=24)
    assert solver.benders_solve(inst).status == "Optimal"
    assert trials > 100


def _assert_bound_change_is_fresh(tableau, i, lb, ub, tighten=lp._Simplex.tightened):
    """Variable i's bound change of the tableau solves as a fresh tableau of
    the changed system: same answer, pivots, Farkas support and assignment.
    `tighten` defaults to the unwrapped `_Simplex.tightened`."""
    variables = list(tableau.system.variables)
    variables[i] = variables[i]._replace(lb=lb, ub=ub)
    fresh = lp._Simplex(LinearSystem(tuple(variables), tableau.system.rows)).solve()
    node = tighten(tableau, i, lb, ub)
    solved = node.solve()
    assert type(solved) is type(fresh) and solved == fresh
    return node


def test_bound_change_solves_as_a_fresh_tableau(monkeypatch):
    # Each variable with a column gets a tighter lb, a tighter ub (its first
    # one when it had none) and lb == ub, and the tighter lb is followed by
    # a tighter ub on the next such variable.  Solving never changes a
    # tableau: the root's rows and basis end as they were encoded, and a
    # second solve gives the first one's result.
    for seed, count, max_vars, number in (
        (1234, 300, 4, _integer), (4321, 300, 3, _rational), (99, 150, 3, _rational),
    ):
        for system in _random_systems(seed, count, max_vars, number):
            root = lp._Simplex(system)
            rows, basis = [dict(r) for r in root.rows], list(root.basis)
            first = root.solve()
            columns = [i for i, c in enumerate(root.var_cols) if c is not None]
            for k, i in enumerate(columns):
                v = system.variables[i]
                mid = v.lb + 2 if v.ub is None else (v.lb + v.ub) / 2
                raised = _assert_bound_change_is_fresh(root, i, mid, v.ub)
                _assert_bound_change_is_fresh(root, i, v.lb, mid)
                _assert_bound_change_is_fresh(root, i, mid, mid)
                j = columns[(k + 1) % len(columns)]
                w = raised.system.variables[j]
                _assert_bound_change_is_fresh(
                    raised, j, w.lb, w.lb + 1 if w.ub is None else (w.lb + w.ub) / 2)
            second = root.solve()
            assert type(second) is type(first) and second == first
            assert root.rows == rows and root.basis == basis

    # Every branch node of a cut loop's recoveries.
    tighten = lp._Simplex.tightened
    nodes = 0

    def checked(self, i, lb, ub):
        nonlocal nodes
        nodes += 1
        return _assert_bound_change_is_fresh(self, i, lb, ub, tighten)

    monkeypatch.setattr(lp._Simplex, "tightened", checked)
    inst = generate_random_instance(7, 2.6, 5, w_min=2, w_max=5, weight_resolution=3, seed=24)
    assert solver.benders_solve(inst).status == "Optimal"
    assert nodes > 10


def test_substitution_check_is_exact_on_a_one_third_grid_system():
    # eps = 1/3, and the weights and potentials are thirds: s->a->t (8/3)
    # beats s->b->t (3) by exactly eps, so rows with the rhs -1/3 are tight.
    inst = mk_instance(
        ["s", "a", "b", "t"],
        [("s", "a", 10), ("a", "t", 10), ("s", "b", 10), ("b", "t", 10)],
        [("s", "t", 1), ("b", "t", 1)],
        w_min=1, w_max=2, step=F("1/3"),
    )
    weights = {("s", "a"): F("4/3"), ("a", "t"): F("4/3"), ("s", "b"): F(2), ("b", "t"): F(1)}
    forest = forest_via(inst, weights)
    system, _ = path_length_system(inst, forest)
    assert models.resolve_params(inst, None, None)[0] == F("1/3")
    assignment = {"w_%s_%s" % pair: w for pair, w in weights.items()}
    assignment.update({
        "l_s_s": F(0), "l_s_a": F("4/3"), "l_s_b": F(2), "l_s_t": F("8/3"),
        "l_b_s": F(0), "l_b_a": F(0), "l_b_b": F(0), "l_b_t": F(1),
    })
    rows = {r.name: r for r in system.rows}
    for name in ("pl_ub_s_b_t", "pl_ub_b_a_t"):
        lhs = sum(coef * assignment[n] for n, coef in rows[name].terms)
        assert lhs == rows[name].rhs == F("-1/3")
    lp._verify_assignment(system, assignment)

    # Over the common denominator 21, each change breaks one row by 1/21.
    for name, delta, message in (
        ("w_b_t", F("1/21"), "row pl_lb_b_b_t violated (-1/21 >= 0)"),
        ("l_s_b", F("-1/21"), "row pl_ub_s_b_t violated (-2/7 <= -1/3)"),
    ):
        broken = dict(assignment, **{name: assignment[name] + delta})
        with pytest.raises(RuntimeError) as error:
            lp._verify_assignment(system, broken)
        assert str(error.value) == "internal: " + message

    # w_s_b is fixed at w_max by the presolve, w_s_a is at most w_max and
    # l_s_a at least 0.
    for name, value in (("w_s_b", F("5/3")), ("w_s_a", F("7/3")), ("l_s_a", F("-1/3"))):
        with pytest.raises(RuntimeError, match=f"bound on {name} violated by {value}"):
            lp._verify_assignment(system, dict(assignment, **{name: value}))


def test_bit_budget_resource_error(monkeypatch):
    # x/3 + 2y/5 >= 1 is stored as 5x + 6y - 15s = 15 over the denominator
    # 15; its first pivot entry, 5 over 15, has 3 + 4 bits.
    system = LinearSystem(
        (var("x", 0, 4), var("y", 0, 4)),
        (row("r", [("x", Fraction(1, 3)), ("y", Fraction(2, 5))], ">=", 1),),
    )
    assert lp._Simplex(system).solve().feasible
    monkeypatch.setattr(lp, "MAX_BITS", 6)
    with pytest.raises(lp.SimplexResourceError):
        lp._Simplex(system).solve()


def test_pivot_budget_resource_error(monkeypatch):
    system = LinearSystem(
        (var("x", 0, 4), var("y", 0, 4)),
        (row("r", [("x", 1), ("y", 2)], ">=", 3),),
    )
    monkeypatch.setattr(lp, "MAX_PIVOTS", 0)
    with pytest.raises(lp.SimplexResourceError):
        lp._Simplex(system).solve()


def _reference_snap(inst, assignment):
    """rational.snap_to_grid of each link weight in an LP assignment."""
    return WeightVector({
        (link.tail, link.head): snap_to_grid(
            assignment[f"w_{link.tail}_{link.head}"], inst.w_min, inst.w_max,
            inst.weight_resolution,
        )
        for link in inst.links
    })


def test_recover_stage_progression():
    # Grid {2, 5}: the root's LP weights snap to a vector that misses the
    # first master candidate, so recovery must branch (three nodes); the
    # weights it finds are verified through the oracle.
    inst = generate_random_instance(5, 2, 4, w_min=2, w_max=5, weight_resolution=3, seed=9)
    forest = next(solver.master_search(inst))
    system, _ = path_length_system(inst, forest)
    root = solve_feasibility(system)
    assert root.feasible
    assert not lp._matches_forest(inst, _reference_snap(inst, root.assignment), forest)
    result = recover_weights(inst, forest)
    assert result.ok and result.stage == "branch"
    assert result.lp_solves == 4
    assert spf.routing_from_weights(inst, result.weights) == forest


def test_successful_branch_search_computes_no_cores(monkeypatch):
    # A search that ends on a snap discards its infeasible leaves, so it must
    # not pay for their irreducible cores.
    calls = []
    leaves = 0
    core = lp._irreducible_core
    solve = lp._Simplex.solve

    def counted(system, phase1):
        calls.append(phase1)
        return core(system, phase1)

    def solved(self):
        nonlocal leaves
        result = solve(self)
        leaves += not result.feasible
        return result

    monkeypatch.setattr(lp, "_irreducible_core", counted)
    monkeypatch.setattr(lp._Simplex, "solve", solved)
    inst = generate_random_instance(6, 2, 5, w_min=2, w_max=5, weight_resolution=3, seed=6)
    forest = next(solver.master_search(inst))
    result = recover_weights(inst, forest)
    assert result.ok and result.stage == "branch"
    assert result.lp_solves == 7
    assert leaves == 1 and calls == []


def _cheapest_forests(inst, count):
    """The `count` lowest-load forests over every sub-path-optimal routing
    (`all_routings`, ties in its order).  Unlike master candidates they
    include forests that break the segment rule, whose systems are
    infeasible."""
    routings = sorted(all_routings(inst), key=lambda r: oracles.routing_objective(inst, r))
    return [oracles.demand_to_origin(inst, r) for r in routings[:count]]


def test_grid_infeasible_union_cuts_sound_on_coarse_grids():
    # A candidate whose search fails on every leaf is cut on the union of the
    # leaves' core bindings: every forest that cut matches fails recovery
    # too, and some cuts reach past their own candidate.
    grid_infeasible_seen = other_cut = 0
    for shape, seed in (((5, 2, 4), 10), ((6, 2, 5), 6)):
        inst = generate_random_instance(*shape, w_min=5, w_max=9, weight_resolution=4, seed=seed)
        forests = _cheapest_forests(inst, 12)
        recovered = [recover_weights(inst, forest) for forest in forests]
        for k, result in enumerate(recovered):
            if result.status != "grid_infeasible":
                continue
            grid_infeasible_seen += 1
            assert result.bindings and result.lp_solves > 1
            cut = solver.NoGoodCut(result.bindings)
            for other, candidate in enumerate(forests):
                used = {s: candidate.used_links(s) for s in inst.origins()}
                if solver.cut_matches(cut, used):
                    assert not recovered[other].ok
                    other_cut += other != k
    assert grid_infeasible_seen and other_cut


def test_input_is_checked_once_per_solve(monkeypatch):
    # solve_feasibility checks its system; the tableaux built from it, branch
    # nodes and cores' deletion-pass trials, are not checked again.  Recovery
    # calls solve_feasibility once, at its root, so the check runs once per
    # candidate.  A tableau is encoded once per solve_feasibility call and
    # once more per recovery whose root snap misses: its branch nodes are
    # bound changes of that encoding, and each core selects rows of its leaf.
    checks = cores = built = branched = 0
    check, core, init = lp.table_violations, lp._irreducible_core, lp._Simplex.__init__
    recover = lp.recover_weights

    def counted_check(*args):
        nonlocal checks
        checks += 1
        return check(*args)

    def counted_core(system, phase1):
        nonlocal cores
        cores += 1
        return core(system, phase1)

    def counted_init(self, system):
        nonlocal built
        built += 1
        init(self, system)

    def counted_recovery(instance, forest):
        nonlocal branched
        recovery = recover(instance, forest)
        branched += recovery.lp_solves > 1
        return recovery

    monkeypatch.setattr(lp, "table_violations", counted_check)
    monkeypatch.setattr(lp, "_irreducible_core", counted_core)
    monkeypatch.setattr(lp._Simplex, "__init__", counted_init)
    monkeypatch.setattr(lp, "recover_weights", counted_recovery)
    inst = generate_random_instance(7, 2.6, 5, w_min=2, w_max=5, weight_resolution=3, seed=24)
    result = solver.benders_solve(inst)
    assert (result.status, result.objective) == ("Optimal", Fraction(7241, 100))
    assert checks == result.diagnostics.iterations == 2
    assert cores > 0 and built == result.diagnostics.iterations + branched == 3


def test_every_tableau_gets_a_well_formed_system(monkeypatch):
    # The invariant that lets _Simplex skip the check: every system a tableau
    # reads passes the check, whether the tableau encodes it (a root),
    # derives it by a bound change (branch node) or selects it from an
    # encoding (deletion trial).  A branch bound that crossed its partner, or
    # a trial that dropped a variable one of its rows mentions, fails here.
    # Every weight bound is also a grid point, which lets recovery snap and
    # branch without a clamp: a branch bound past w_max, or one off the grid,
    # fails here.
    init, select, tighten = lp._Simplex.__init__, lp._Simplex.select, lp._Simplex.tightened
    seen = []
    nodes = 0
    grid = None

    def check(system):
        assert models.table_violations(system.variables, system.rows, ()) == []
        assert all(v.kind == "continuous" for v in system.variables)
        assert all(on_grid(v.lb, *grid) and on_grid(v.ub, *grid)
                   for v in system.variables if v.name.startswith("w_"))
        seen.append(len(system.rows))

    def encoded(self, system):
        check(system)
        init(self, system)

    def selected(self, keep):
        trial = select(self, keep)
        check(trial.system)
        return trial

    def tightened(self, i, lb, ub):
        nonlocal nodes
        nodes += 1
        node = tighten(self, i, lb, ub)
        check(node.system)
        return node

    monkeypatch.setattr(lp._Simplex, "__init__", encoded)
    monkeypatch.setattr(lp._Simplex, "select", selected)
    monkeypatch.setattr(lp._Simplex, "tightened", tightened)
    for shape, seed in (((7, 2.6, 5), 24), ((10, 2.2, 10), 1)):
        inst = generate_random_instance(*shape, w_min=2, w_max=5, weight_resolution=3, seed=seed)
        grid = (inst.w_min, inst.w_max, inst.weight_resolution)
        assert solver.benders_solve(inst).status == "Optimal"
    inst = generate_random_instance(5, 2, 4, w_min=5, w_max=9, weight_resolution=4, seed=10)
    grid = (inst.w_min, inst.w_max, inst.weight_resolution)
    assert recover_weights(inst, _cheapest_forests(inst, 4)[3]).status == "grid_infeasible"
    assert len(seen) > 100 and min(seen) < max(seen) and nodes > 10


def test_snap_is_the_reference_snap_at_every_feasible_node(monkeypatch):
    # Recovery snaps each feasible node's LP weights in grid positions, with
    # no clamp: the i-th vector the forest check receives is
    # rational.snap_to_grid of the i-th feasible node's weights.  Deletion
    # trials are not nodes.
    nodes, snaps = [], []
    in_core = 0
    solve, core, matches = lp._Simplex.solve, lp._irreducible_core, lp._matches_forest

    def recorded_solve(self):
        result = solve(self)
        if result.feasible and not in_core:
            nodes.append(result.assignment)
        return result

    def counted_core(system, phase1):
        nonlocal in_core
        in_core += 1
        try:
            return core(system, phase1)
        finally:
            in_core -= 1

    def recorded_matches(instance, weights, forest):
        snaps.append(weights)
        return matches(instance, weights, forest)

    monkeypatch.setattr(lp._Simplex, "solve", recorded_solve)
    monkeypatch.setattr(lp, "_irreducible_core", counted_core)
    monkeypatch.setattr(lp, "_matches_forest", recorded_matches)
    def solves(inst):
        return solver.benders_solve(inst).status == "Optimal"

    def recovers_first_candidate(inst):
        return recover_weights(inst, next(solver.master_search(inst))).ok

    # The w 5-9, resolution 4 case, and the grid whose w_min and resolution
    # are both fractions, have LP weights at half grid positions, where the
    # snap rounds up; on the coarse grid none lands there.
    coarse = dict(w_min=2, w_max=5, weight_resolution=3)
    thirds = dict(w_min=Fraction(1, 2), weight_resolution=Fraction(1, 3), w_max=Fraction(7, 2))
    runs = (
        ((10, 2.2, 10), dict(coarse, seed=1), solves, False),
        ((5, 2, 4), dict(coarse, seed=9), recovers_first_candidate, False),
        ((6, 2, 5), dict(w_min=5, w_max=9, weight_resolution=4, seed=6), recovers_first_candidate,
         True),
        ((6, 2, 5), dict(thirds, seed=6), recovers_first_candidate, True),
    )
    for shape, kwargs, run, with_halves in runs:
        inst = generate_random_instance(*shape, **kwargs)
        nodes.clear()
        snaps.clear()
        assert run(inst)
        assert len(snaps) == len(nodes) > 1
        halves = 0
        for assignment, snapped in zip(nodes, snaps):
            assert snapped == _reference_snap(inst, assignment)
            halves += any(
                ((assignment[f"w_{l.tail}_{l.head}"] - inst.w_min) / inst.weight_resolution)
                .denominator == 2
                for l in inst.links
            )
        assert halves if with_halves else halves == 0


def test_recovery_on_a_million_point_grid_allocates_nothing_per_grid_point():
    # A grid of 10^6 positions: recovery snaps the root's LP weights, exactly
    # as `rational.snap_to_grid` does, and looks each snapped position's
    # weight up as it needs it.  One list sized by the grid would hold 8 MB
    # of pointers alone; the whole recovery peaks far below that.
    inst = generate_random_instance(10, 2, 10, w_min=Fraction(1, 1000), w_max=1000,
                                    weight_resolution=Fraction(1, 1000), seed=0)
    assert grid_size(inst.w_min, inst.w_max, inst.weight_resolution) == 10**6
    forest = next(solver.master_search(inst))
    root = solve_feasibility(path_length_system(inst, forest)[0])
    tracemalloc.start()
    try:
        result = recover_weights(inst, forest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.status, result.stage, result.lp_solves, result.pivots) == ("ok", "direct", 1, 45)
    assert result.weights == _reference_snap(inst, root.assignment)
    assert peak < 2_000_000


def _with_vacuous_rows(instance, forest, system, big_M):
    """The system plus the lower-bound rows path_length_system omits."""
    extra = []
    for s in instance.origins():
        used = forest.used_links(s)
        for link in instance.links:
            i, j = link.tail, link.head
            if (i, j) not in used:
                extra.append(row(f"pl_lb_{s}_{i}_{j}", [(f"w_{i}_{j}", -1),
                                 (f"l_{s}_{i}", -1), (f"l_{s}_{j}", 1)], ">=", -big_M))
    return LinearSystem(system.variables, system.rows + tuple(extra))


def test_vacuous_rows_do_not_change_answers():
    # The omitted rows are implied: adding them back changes no feasibility
    # answer, on realizable and unrealizable master candidates alike.
    from uspr.solver import master_search

    feasible_seen = infeasible_seen = 0
    for seed in range(15):
        inst = small_random(seed)
        _, big_M = models.resolve_params(inst, None, None)
        for forest in itertools.islice(master_search(inst), 4):
            system, _ = path_length_system(inst, forest)
            slim = solve_feasibility(system).feasible
            full = solve_feasibility(
                _with_vacuous_rows(inst, forest, system, big_M)
            ).feasible
            assert slim == full
            feasible_seen += slim
            infeasible_seen += not slim
    assert feasible_seen and infeasible_seen


def test_cores_irreducible_and_cuts_sound_on_random_instances():
    # Every core is irreducible, and its cut only removes candidates whose
    # own system is infeasible too; some cuts reach past their own candidate.
    infeasible_seen = other_cut = 0
    for seed in range(7):
        inst = generate_random_instance(5, 2, 3, seed=seed, capacity_range=(5, 20))
        forests = _cheapest_forests(inst, 8)
        solved = []
        for forest in forests:
            system, meta = path_length_system(inst, forest)
            for name, bindings in meta.items():
                # A pl_ub row's own binary cancels from its rhs.
                if name.startswith("pl_ub_"):
                    i, j = name.split("_")[3:]
                    assert all(pair != (i, j) for _, pair, _ in bindings)
            solved.append((system, meta, solve_feasibility(system)))
        for k, (forest, (system, meta, result)) in enumerate(zip(forests, solved)):
            if result.feasible:
                continue
            infeasible_seen += 1
            assert_irreducible_core(system, result.conflict_core)
            cut = solver.NoGoodCut(lp.row_bindings(meta, result.conflict_core))
            for other, candidate in enumerate(forests):
                used = {s: candidate.used_links(s) for s in inst.origins()}
                if solver.cut_matches(cut, used):
                    assert not solved[other][2].feasible
                    other_cut += other != k
    assert infeasible_seen and other_cut


def _recover_without_presolve(monkeypatch, inst, forest):
    """Recovery on the system with every weight back in [w_min, w_max]."""
    presolved = lp.path_length_system

    def full(instance, forest):
        system, meta = presolved(instance, forest)
        k = len(instance.links)
        weights = tuple(
            v._replace(lb=instance.w_min) for v in system.variables[:k]
        )
        return LinearSystem(weights + system.variables[k:], system.rows), meta

    with monkeypatch.context() as patched:
        patched.setattr(lp, "path_length_system", full)
        return recover_weights(inst, forest)


def test_presolve_fixes_exactly_the_unused_weights_at_w_max():
    for inst, forests in _recovery_candidates():
        for forest in forests:
            system, _ = path_length_system(inst, forest)
            used = set().union(*(forest.used_links(s) for s in inst.origins()))
            for pair, weight in zip(inst.link_pairs(), system.variables):
                lb = inst.w_min if pair in used else inst.w_max
                assert (weight.name, weight.lb, weight.ub) == (
                    "w_%s_%s" % pair, lb, inst.w_max
                )


def test_presolved_cuts_sound_and_fail_the_same_candidates(monkeypatch):
    # With unused weights fixed at w_max, every candidate fails exactly when
    # it fails without the presolve, with the same status, and no cut
    # matches a forest that some grid weights route uniquely.
    instances = [small_random(seed) for seed in range(12)]
    instances.append(generate_random_instance(5, 2, 4, w_min=5, w_max=9, weight_resolution=4, seed=10))
    for seed in range(4):
        instances.append(generate_random_instance(
            5, 2, 4, w_min=2, w_max=5, weight_resolution=3, seed=seed))
        instances.append(generate_random_instance(
            4, 1.5, 3, w_min=1, w_max=2, weight_resolution=F("1/3"), seed=seed))
    statuses = set()
    for inst in instances:
        routed = [
            {s: forest.used_links(s) for s in inst.origins()}
            for _, forest in spf.unique_grid_routings(inst, spf.GRID_LIMIT)
        ]
        for forest in _cheapest_forests(inst, 12):
            result = recover_weights(inst, forest)
            reference = _recover_without_presolve(monkeypatch, inst, forest)
            assert result.status == reference.status
            assert result.ok == ({s: forest.used_links(s) for s in inst.origins()} in routed)
            statuses.add(result.status)
            if not result.ok:
                cut = solver.NoGoodCut(result.bindings)
                assert result.bindings and not any(solver.cut_matches(cut, r) for r in routed)
    assert statuses == {"ok", "lp_infeasible", "grid_infeasible"}


def test_core_on_a_fixed_weight_needs_no_binding_of_its_link():
    # Origin s routes s->a->b->t past the direct link s->t, which no tree
    # uses, so w_s_t is fixed at w_max = 2.  The core compares the path with
    # that link and mentions w_s_t.  Every row that mentions a fixed weight
    # is its own pl_ub row, which w_max loosens most, so the core is
    # infeasible on [w_min, w_max] too.  Its cut therefore needs no binding
    # of s->t, and it rightly matches a forest in which x uses s->t.
    inst = mk_instance(
        ["x", "s", "a", "b", "t"],
        [("x", "s", 10), ("s", "t", 10), ("s", "a", 10), ("a", "b", 10), ("b", "t", 10)],
        [("s", "t", 1), ("x", "t", 1)],
        w_min=1, w_max=2,
    )
    forest = RoutingForest({("s", "t"): ("s", "a", "b", "t"), ("x", "t"): ("x", "s", "a", "b", "t")})
    other = RoutingForest({("s", "t"): ("s", "a", "b", "t"), ("x", "t"): ("x", "s", "t")})
    system, meta = path_length_system(inst, forest)
    fixed = {v.name: v for v in system.variables if v.name == "w_s_t"}["w_s_t"]
    assert fixed.lb == fixed.ub == inst.w_max
    result = solve_feasibility(system)
    assert not result.feasible
    core = [r for r in system.rows if r.name in result.conflict_core]
    assert any(name == "w_s_t" for r in core for name, _ in r.terms)
    relaxed = tuple(
        v._replace(lb=inst.w_min) if v is fixed else v for v in system.variables
    )
    assert not solve_feasibility(LinearSystem(relaxed, tuple(core))).feasible

    recovery = recover_weights(inst, forest)
    assert recovery.status == "lp_infeasible"
    assert recovery.bindings == lp.row_bindings(meta, result.conflict_core)
    assert all(pair != ("s", "t") for _, pair, _ in recovery.bindings)
    used = {s: other.used_links(s) for s in inst.origins()}
    assert ("s", "t") in used["x"]
    assert solver.cut_matches(solver.NoGoodCut(recovery.bindings), used)
    assert recover_weights(inst, other).status == "lp_infeasible"


def _recovery_candidates():
    """Cheapest forests of random, low-capacity and coarse-grid instances."""
    for seed in range(4):
        for options in ({}, {"capacity_range": (5, 20)},
                        {"w_min": 2, "w_max": 5, "weight_resolution": 3}):
            inst = generate_random_instance(6, 2, 4, seed=seed, **options)
            yield inst, _cheapest_forests(inst, 8)


def test_path_length_system_is_obm_block_with_fixed_binaries():
    # Substituting the forest's y values into build_obm's path-length rows
    # and dropping the pl_lb rows of unused links gives the recovery system;
    # each row's meta is exactly the binaries substituted into it.
    seen = 0
    for inst, forests in _recovery_candidates():
        obm = models.build_obm(inst)
        pl_rows = [c for c in obm.constraints if c.name.startswith("pl_")]
        for forest in forests:
            expected = []
            for c in pl_rows:
                rhs, terms, substituted = c.rhs, set(), set()
                for name, coef in c.terms:
                    if name.startswith("y_"):
                        _, s, i, j = name.split("_")
                        value = 1 if (i, j) in forest.used_links(s) else 0
                        rhs -= coef * value
                        substituted.add((s, (i, j), value))
                    else:
                        terms.add((name, coef))
                if c.name.startswith("pl_lb_") and {v for _, _, v in substituted} == {0}:
                    continue
                expected.append((c.name, frozenset(terms), c.sense, rhs, frozenset(substituted)))
            system, meta = path_length_system(inst, forest)
            got = [(r.name, frozenset(r.terms), r.sense, r.rhs, meta[r.name]) for r in system.rows]
            assert got == expected
            assert set(meta) == {r.name for r in system.rows}
            seen += 1
    assert seen >= 70


def test_path_length_rows_match_linearization_cases():
    # Over q = l_j - l_i - w_ij, a kept pl_ub row is q <= upper and a kept
    # pl_lb row q >= lower, for the logic case of its binary pattern.
    relations = set()
    for inst, forests in _recovery_candidates():
        eps, big_M = models.resolve_params(inst, None, None)
        into = inst.in_links()
        for forest in forests:
            system, _ = path_length_system(inst, forest)
            for r in system.rows:
                _, bound, s, i, j = r.name.split("_")
                used = forest.used_links(s)
                insum = sum((l.tail, l.head) in used for l in into[j])
                case = oracles.linearization_check(int((i, j) in used), insum, eps, big_M)
                relations.add(case.relation)
                assert dict(r.terms) == {f"w_{i}_{j}": -1, f"l_{s}_{i}": -1, f"l_{s}_{j}": 1}
                assert r.rhs == (case.upper if bound == "ub" else case.lower)
                assert bound == "ub" or case.relation == "equal"
    assert relations == {"equal", "strict", "slack"}
