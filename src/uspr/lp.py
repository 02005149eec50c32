"""Exact linear feasibility: the weight-recovery subproblem.

Given a fixed routing forest, decide whether link weights inside the bounds
and per-origin length values exist that satisfy the path-length constraints,
and recover a concrete grid weight vector when they do.

The solver is the first phase of a sparse primal simplex in exact integer
arithmetic: it minimizes the sum of the artificial variables, which decides
feasibility, and optimizes nothing else.  Each tableau row is one sparse
vector of integer numerators over one positive denominator, in the
fraction-free style of Edmonds and Bareiss: its rhs is one of its entries,
its basic column's numerator is its denominator, and the objective row keeps
its denominator in a column of its own.  On the path-length systems, whose
entries are almost all ±1, nearly every row keeps denominator 1.  Each
pivot scans its entering column once: the rows that hold it, in ascending
order, are all that the ratio test reads and all that the elimination
touches, and in them only the pivot row's nonzeros change.  Bland's
smallest-index rule picks both the entering and the leaving choice, so
pivoting is deterministic and cannot cycle.  Exact arithmetic is the point:
the strict inequalities that separate a unique shortest path from a tie
must not be blurred by floating error.  Feasible results are read off as
one `Fraction` per variable, made from the integers of its lower bound and
its row, and verified by direct substitution, in integers over one common
denominator, before they are returned.  An upper bound is one more `<=` row
of the one row encoder.  `solve_feasibility` is the one input check, and
solving never changes a tableau: a core selects rows of the tableau that
found it, a branch node is its parent's tableau with one bound changed, and
a recovery encodes its system once more only when its root's snap misses.

Weight recovery (`recover_weights`) is one exact routine: solve the
path-length system, snap its weights to the grid, and when the snap misses
the forest, branch and bound on the weight grid.  The system is OBM's
path-length block with the forest's routing binaries fixed, written by the
models' builder with the eps and big_M it derives from the instance
(`path_length_system`), which fixes the weight of each link that no tree
uses at w_max, so the simplex has fewer columns; `path_length_system` says
why that changes no answer and no cut.  With eps the gcd of w_min and
the resolution, the system holds at grid weights exactly when they realize
the forest, so an integral node is a witness and a search whose leaves are
all infeasible proves that no grid weights realize the forest.
`lp_infeasible` (the continuous system has no solution) is reported
distinctly from `grid_infeasible` (it has solutions, but none on the grid).

An infeasible system's certificate is an irreducible infeasible subsystem:
the rows used by phase 1's Farkas dual ray, shrunk by one deletion pass and
re-solved once exactly.  `row_bindings` turns it into a no-good cut.
"""

from __future__ import annotations

import itertools
import math
from copy import copy
from fractions import Fraction
from typing import NamedTuple

from .instance import Instance
from .models import Binding, Constraint, Variable, _ModelBuilder, table_violations
from . import spf
from .spf import RoutingForest, WeightVector


class SimplexResourceError(RuntimeError):
    """Pivot count or rational bit-size exceeded the configured budget."""


class LinearSystem(NamedTuple):
    """Continuous variables and sparse rows.  Each variable has a finite lower
    bound and may have an upper bound."""

    variables: tuple[Variable, ...]
    rows: tuple[Constraint, ...]


class Feasible(NamedTuple):
    assignment: dict[str, Fraction]
    pivots: int = 0

    @property
    def feasible(self) -> bool:
        return True


class Infeasible(NamedTuple):
    """Infeasibility certificate.

    `conflict_core` names rows that, with the bounds of the variables they
    mention, have no solution.  From `solve_feasibility` the core is verified
    by an exact re-solve and is irreducible: dropping any one of its rows
    leaves a feasible system.
    """

    conflict_core: tuple[str, ...]
    pivots: int = 0

    @property
    def feasible(self) -> bool:
        return False


# ---------------------------------------------------------------------------
# Phase-1 simplex.

RHS = -1  # a tableau row's key for its rhs numerator; columns count from 0

# Per-solve budgets; exceeding either raises SimplexResourceError.  MAX_BITS
# bounds the pivot entry of the integer rows: the bit length of its numerator
# plus that of its row's basic numerator, which is the row's denominator.
MAX_PIVOTS = 200_000
MAX_BITS = 1_000_000


class _Simplex:
    """Phase 1 over integer rows.

    Row r is one sparse dict of integer numerators over one positive
    denominator: its nonzero entries by column, and under `RHS` its rhs when
    nonzero.  Its basic column is a unit column, whose numerator is the
    denominator: entry (r, j) is rows[r][j] / rows[r][basis[r]].  The first
    len(basis) rows are the constraints.  Phase 1's objective, the sum of the
    artificial columns, is the only objective: when phase 1 starts it becomes
    one more row of reduced costs, with minus the objective's value as its
    rhs and its denominator in a column of its own, `ncols`.

    A `_Simplex` is an unsolved encoding: `solve` pivots a private copy of
    its rows and basis, so a deletion trial (`select`) and a branch node
    (`tightened`) share its row dicts.  Column numbers never move, and
    Bland's rule reads only their order, so each pivots as a fresh tableau.
    It checks nothing: `solve_feasibility` and `recover_weights` say why
    each system encoded or derived here is well formed.
    """

    def __init__(self, system: LinearSystem):
        self.system = system
        self.pivots = 0

        # Column encoding: every variable has a finite lower bound and is
        # x = lb + u, with one column u >= 0, numbered compactly, or none when
        # lb == ub.  An upper bound is one more row x <= ub after the system's
        # rows, never named in a core, whose slack is basic as ub > lb.  Row
        # r's slack is column n_struct + r, column c's bound row's slack
        # n_struct + m + c, and row r's artificial artificial_start + r.
        variables, m = system.variables, len(system.rows)
        self.var_index = {v.name: i for i, v in enumerate(variables)}
        self.lb_ratio = [v.lb.as_integer_ratio() for v in variables]
        cols = itertools.count()
        self.var_cols = [None if v.lb == v.ub else next(cols) for v in variables]
        self.n_struct = n_struct = next(cols)
        self.artificial_start, self.ncols = 2 * n_struct + m, 2 * n_struct + 2 * m
        self.rows, self.basis, self.bound_rows = [None] * m, [None] * m, {}  # variable -> row
        for r, row in enumerate(system.rows):
            self._encode(r, row, n_struct + r, self.artificial_start + r)
        for i, v in enumerate(variables):
            if self.var_cols[i] is not None and v.ub is not None:
                self._bound(i)

    def _encode(self, at: int, row: Constraint, slack: int, artificial: int | None) -> None:
        """The one row encoder: `row` becomes row `at`, scaled by the lcm of
        its denominators, coef * lb's in the rhs included, and flipped to rhs
        >= 0.  Its slack is basic if it is +1 then, else its artificial is."""
        var_index, lb_ratio, var_cols = self.var_index, self.lb_ratio, self.var_cols
        terms = [(var_index[name], coef.as_integer_ratio()) for name, coef in row.terms]
        rhs_num, rhs_den = row.rhs.as_integer_ratio()
        den = rhs_den
        for vi, (_, cd) in terms:
            d = cd * lb_ratio[vi][1]
            if d != 1:
                den = math.lcm(den, d)
        rhs = rhs_num * (den // rhs_den)
        coeffs: dict[int, int] = {}
        for vi, (cn, cd) in terms:
            a = cn * (den // cd)
            bn, bd = lb_ratio[vi]
            if bn:
                rhs -= a * bn // bd
            c = var_cols[vi]
            if c is not None:
                coeffs[c] = coeffs.get(c, 0) + a
        if 0 in coeffs.values():
            coeffs = {c: a for c, a in coeffs.items() if a != 0}
        basic = None
        if row.sense != "=":
            basic = slack
            coeffs[basic] = den if row.sense == "<=" else -den
        if rhs:
            coeffs[RHS] = rhs
        if rhs < 0:
            coeffs = {c: -a for c, a in coeffs.items()}
        if basic is None or coeffs[basic] != den:
            basic = artificial
            coeffs[basic] = den
        self.rows[at], self.basis[at] = coeffs, basic

    def _bound(self, i: int) -> None:
        """Encode variable i's bound row in its place, or last if it has none."""
        v, at = self.system.variables[i], self.bound_rows.setdefault(i, len(self.rows))
        if at == len(self.rows):
            self.rows.append(None)
            self.basis.append(None)
        slack = self.n_struct + len(self.system.rows) + self.var_cols[i]
        self._encode(at, Constraint(v.name, ((v.name, Fraction(1)),), "<=", v.ub), slack, None)

    def tightened(self, i: int, lb: Fraction, ub: Fraction | None) -> _Simplex:
        """This encoding with variable i's bounds tightened to [lb, ub]: the
        rows that hold its column, and its bound row, are encoded again, the
        rest shared.  At lb == ub it loses both, as in a fresh encoding."""
        node, col, (variables, rows) = copy(self), self.var_cols[i], self.system
        node.system = LinearSystem(
            variables[:i] + (variables[i]._replace(lb=lb, ub=ub),) + variables[i + 1:], rows)
        node.lb_ratio = self.lb_ratio[:i] + [lb.as_integer_ratio()] + self.lb_ratio[i + 1:]
        node.rows, node.basis, node.bound_rows = self.rows[:], self.basis[:], dict(self.bound_rows)
        if lb == ub:
            node.var_cols = self.var_cols[:i] + [None] + self.var_cols[i + 1:]
            b = node.bound_rows.pop(i, None)
            if b is not None:
                del node.rows[b], node.basis[b]
                node.bound_rows = {j: k - (k > b) for j, k in node.bound_rows.items()}
        elif ub is not None:
            node._bound(i)
        for r, row in enumerate(rows):
            if col in self.rows[r]:
                node._encode(r, row, self.n_struct + r, self.artificial_start + r)
        return node

    def select(self, keep: list[int]) -> _Simplex:
        """Phase 1 on the system rows `keep`, in order, and the variables they
        mention: this encoding's rows for them and for those variables' bound
        rows, shared, with its column numbers, so it solves as a fresh one."""
        variables, rows = self.system
        mentioned = sorted({self.var_index[name] for r in keep for name, _ in rows[r].terms})
        picked = keep + [self.bound_rows[i] for i in mentioned if i in self.bound_rows]
        trial = copy(self)
        trial.system = LinearSystem(tuple(map(variables.__getitem__, mentioned)),
                                    tuple(map(rows.__getitem__, keep)))
        trial.var_cols = list(map(self.var_cols.__getitem__, mentioned))
        trial.rows = list(map(self.rows.__getitem__, picked))
        trial.basis = list(map(self.basis.__getitem__, picked))
        return trial

    def _pivot(self, r: int, c: int, holding: list[int]) -> None:
        """Normalize row r on column c and eliminate c from the other rows in
        `holding`, `_minimize`'s one scan for the rows with a nonzero in
        column c, the objective row included.

        The normalized row is row r over its pivot numerator p, gcd-reduced,
        so its entry in column c is its new denominator.  When that is 1,
        elimination touches only the pivot row's entries, rhs included, in
        the rows in `holding`; an entry that cancels to 0 is deleted.
        Otherwise each such row, denominator included, is first scaled by it
        and gcd-reduced after.
        """
        self.pivots += 1
        if self.pivots > MAX_PIVOTS:
            raise SimplexResourceError(f"pivot budget {MAX_PIVOTS} exceeded")
        rows = self.rows
        row = rows[r]
        p = row[c]  # > 0: the ratio test admits positive entries only
        if p.bit_length() + row[self.basis[r]].bit_length() > MAX_BITS:
            raise SimplexResourceError("rational coefficients exceeded the bit budget")
        d = 1
        if p != 1:
            g = math.gcd(*row.values())
            if g != 1:
                rows[r] = row = {j: a // g for j, a in row.items()}
            d = p // g
        for rr in holding:
            if rr == r:
                continue
            other = rows[rr]
            factor = other[c]
            if d != 1:
                rows[rr] = other = {j: a * d for j, a in other.items()}
            neg = -factor
            for j, a in row.items():
                if j in other:
                    v = other[j] + neg * a
                    if v:
                        other[j] = v
                    else:
                        del other[j]
                else:
                    other[j] = neg * a
            if d != 1:
                g = math.gcd(*other.values())
                if g != 1:
                    rows[rr] = {j: a // g for j, a in other.items()}
        self.basis[r] = c

    def _minimize(self) -> None:
        """Phase 1 by Bland's rule.

        The objective row is the cost 1 of each artificial in the basis, the
        only ones a row selection has, minus the rows where they are basic,
        over the lcm of those rows' denominators, which is its entry in its
        own column `ncols`; the same subtraction gives its rhs and a 0 for
        each artificial.  The least column with a negative entry in that row
        enters; of the rows with a positive entry in it, the one with the
        least ratio of rhs to entry leaves, ties to the smallest basic column.
        A row's denominator cancels from its ratio, so ratios of numerators
        compare by cross-multiplication.  One scan lists the rows that hold
        the entering column, ascending, for the ratio test and `_pivot`: it
        drops only rows with no entry there, so the ratio test meets every
        positive entry in row order, and Bland's first-found row and its
        tie-break by least basic column cannot move."""
        rows, basis = self.rows, self.basis
        m, start = len(basis), self.artificial_start
        zden = math.lcm(*(row[col] for row, col in zip(rows, basis) if col >= start))
        objective = {self.ncols: zden}
        for row, col in zip(rows, basis):
            if col >= start:
                objective[col] = zden
                f = zden // row[col]
                for j, a in row.items():
                    objective[j] = objective.get(j, 0) - f * a
        rows.append({j: a for j, a in objective.items() if a})
        while True:
            # A dict's order is not column order; the rhs key is no column.
            entering = [j for j, a in rows[m].items() if a < 0 <= j]
            if not entering:
                return
            enter = min(entering)
            holding = [r for r, row in enumerate(rows) if enter in row]
            leave = None
            for r in holding:
                a = rows[r][enter]
                if a > 0:  # the objective row's entry is < 0
                    b = rows[r].get(RHS, 0)
                    if leave is None:
                        leave, best_b, best_a = r, b, a
                        continue
                    ours, best = b * best_a, best_b * a
                    if ours < best or (ours == best and basis[r] < basis[leave]):
                        leave, best_b, best_a = r, b, a
            if leave is None:  # phase 1's objective is bounded below by 0
                raise RuntimeError("internal: phase 1 is unbounded")
            self._pivot(leave, enter, holding)

    def _farkas_support(self, objective: dict[int, int]) -> tuple[str, ...]:
        """The system rows used by the dual ray of this tableau's infeasible
        phase 1, whose objective row ended as `objective`.

        Each row's basic column here is a unit column, so the ray's entry
        for the row is that column's cost minus its reduced cost: 1 minus the
        objective row's entry for an artificial, minus it for a slack.
        """
        zden, start = objective[self.ncols], self.artificial_start
        return tuple(
            row.name
            for row, col in zip(self.system.rows, self.basis)
            if objective.get(col, 0) != (zden if col >= start else 0)
        )

    def solve(self) -> Feasible | Infeasible:
        """Infeasible results carry the unverified Farkas support.

        Phase 1 pivots a copy.  Its objective is positive, and the objective
        row holds an rhs, exactly when an artificial column is basic with a
        positive rhs.  A feasible phase 1 may leave artificials basic at 0;
        they carry no structural value, so the assignment is read off as it
        stands: x = lb + b/den, with u basic in a row of rhs b over den, is
        the one `Fraction` (num(lb)*den + b*den(lb)) / (den(lb)*den).
        """
        tableau = self
        if max(self.basis, default=-1) >= self.artificial_start:
            tableau = copy(self)
            tableau.rows, tableau.basis = list(map(dict, self.rows)), list(self.basis)
            tableau._minimize()
            if RHS in tableau.rows[-1]:
                return Infeasible(self._farkas_support(tableau.rows[-1]), tableau.pivots)

        basic = {col: row for row, col in zip(tableau.rows, tableau.basis) if col < self.n_struct}
        assignment = {}
        for v, c in zip(self.system.variables, self.var_cols):
            row = basic.get(c)
            if row is None:
                assignment[v.name] = v.lb
            else:
                den, (lb_num, lb_den) = row[c], v.lb.as_integer_ratio()
                assignment[v.name] = Fraction(lb_num * den + row.get(RHS, 0) * lb_den,
                                              lb_den * den)
        _verify_assignment(self.system, assignment)
        return Feasible(assignment, tableau.pivots)


def _verify_assignment(system: LinearSystem, assignment: dict[str, Fraction]) -> None:
    """Check every bound and row by substitution, exactly and in integers.

    Every value is put over one common denominator D, as the numerator
    `num[name]`.  A bound b is checked as num * den(b) against num(b) * D; a
    row is scaled by the lcm m of its own coefficient and rhs denominators,
    so its lhs is the integer sum of (coef * m) * num and its rhs
    (rhs * m) * D.
    """
    D = math.lcm(*(x.denominator for x in assignment.values()))
    num = {name: x.numerator * (D // x.denominator) for name, x in assignment.items()}
    for v in system.variables:
        x = num[v.name]
        lb, ub = v.lb, v.ub
        if (x * lb.denominator < lb.numerator * D
                or ub is not None and x * ub.denominator > ub.numerator * D):
            raise RuntimeError(f"internal: bound on {v.name} violated by {assignment[v.name]}")
    for row in system.rows:
        rhs = row.rhs
        m = math.lcm(rhs.denominator, *(coef.denominator for _, coef in row.terms))
        lhs = sum(coef.numerator * (m // coef.denominator) * num[name] for name, coef in row.terms)
        b = rhs.numerator * (m // rhs.denominator) * D
        ok = lhs <= b if row.sense == "<=" else lhs >= b if row.sense == ">=" else lhs == b
        if not ok:
            raise RuntimeError(
                f"internal: row {row.name} violated ({Fraction(lhs, m * D)} {row.sense} {rhs})"
            )


def _irreducible_core(tableau: _Simplex, phase1: Infeasible) -> Infeasible:
    """Shrink `tableau`'s phase-1 Farkas support to an irreducible core, verified exactly.

    One deletion pass tries each row, as a row selection of that tableau;
    when the rest is infeasible, the pass continues from that trial's own
    Farkas support.  The kept set only shrinks, and a subset of a feasible
    system is feasible, so a row kept because the set without it was
    feasible stays needed.  The final core is one more selection, re-solved
    exactly.  `pivots` counts the pivots of the pass alone.
    """
    rows, pivots = tableau.system.rows, 0
    names = set(phase1.conflict_core)
    kept = [r for r, row in enumerate(rows) if row.name in names]
    for r in list(kept):
        if rows[r].name in names:
            i = kept.index(r)
            trial = tableau.select(kept[:i] + kept[i + 1:]).solve()
            pivots += trial.pivots
            if not trial.feasible:
                names = set(trial.conflict_core)
                kept = [k for k in kept if rows[k].name in names]
    final = tableau.select(kept).solve()
    if final.feasible:
        raise RuntimeError(
            f"internal: core {names} of Farkas support {phase1.conflict_core} is feasible"
        )
    return Infeasible(final.conflict_core, pivots + final.pivots)  # irreducible, so all of it is support


def solve_feasibility(system: LinearSystem) -> Feasible | Infeasible:
    """Decide the system exactly; Feasible results are substitution-verified,
    Infeasible ones carry a verified irreducible core.  `pivots` counts
    every simplex pivot, those of the core's deletion pass included.  This
    is the simplex's one input check: it raises `ValueError` on an ill-formed
    system.  It encodes the checked system once; the core's deletion trials
    are row selections of that encoding, so they are well formed too."""
    problems = table_violations(system.variables, system.rows, ())
    problems += [f"variable {v.name}: must be continuous"
                 for v in system.variables if v.kind != "continuous"]
    if problems:
        raise ValueError("ill-formed system: " + "; ".join(problems))
    tableau = _Simplex(system)
    result = tableau.solve()
    if result.feasible:
        return result
    core = _irreducible_core(tableau, result)
    return Infeasible(core.conflict_core, result.pivots + core.pivots)


# ---------------------------------------------------------------------------
# The path-length system for a fixed forest, and weight recovery.


def path_length_system(
    instance: Instance, forest: RoutingForest
) -> tuple[LinearSystem, dict[str, frozenset[Binding]]]:
    """OBM's path-length block with the routing binaries fixed by the forest.

    The rows are built by `models._ModelBuilder` with the instance's eps and
    big_M, each origin's binary on a link bound to 1 on the forest's links
    and to 0 elsewhere.  The system's first |L| variables are the link
    weights, in instance link order.  Returns the system plus row metadata:
    each row name maps to the (origin, link, value) bindings folded into the
    row.  A `pl_ub` row on (i, j) depends on every other link into j (its
    own binary cancels from the row), a `pl_lb` row only on (i, j) being
    used.

    The lower-bound rows of unused links are omitted: for any weights that
    satisfy the remaining rows, the exact shortest distances satisfy them
    too, since d_i + w_ij - d_j <= (|N|-1)*w_max < big_M.  So dropping them
    changes no feasibility answer.

    Presolve: the weight of a link that no origin's tree uses is fixed at
    w_max (lb = ub), and the simplex gives it no column.  This changes no
    feasibility answer either.  Such a link has no `pl_lb` row, and raising
    its weight to w_max in a solution only loosens its `pl_ub` rows, the
    only rows that mention it, with the potentials kept.  w_max is a grid
    point, so the same holds on the grid.  The same argument runs on any
    subset of the rows, under any bounds on the other variables, a branch
    node's included: a set of rows that is infeasible with such a weight at
    w_max is infeasible with it anywhere in [w_min, w_max].  So a core may
    mention a weight fixed at w_max, and its cut needs no binding of it:
    another forest may use that link and still be cut.
    """
    b = _ModelBuilder(instance, fixed=True)
    b.lengths()
    pairs = instance.link_pairs()
    used_by_any: set[tuple[str, str]] = set()
    for s in instance.origins():
        used = forest.used_links(s)
        used_by_any |= used
        b.path_length(s, s, {pair: (s, pair, 1 if pair in used else 0) for pair in pairs})
    variables = b.variables
    for k, pair in enumerate(pairs):
        if pair not in used_by_any:
            variables[k] = variables[k]._replace(lb=instance.w_max)
    return LinearSystem(tuple(variables), tuple(b.constraints)), b.bindings


def row_bindings(
    meta: dict[str, frozenset[Binding]],
    row_names: tuple[str, ...],
) -> frozenset[Binding]:
    """The (origin, link, value) assignments that parametrize the given rows.

    Any forest agreeing with these bindings instantiates identical rows, so
    an infeasible core's bindings are a sound no-good pattern, also when the
    core mentions a weight the presolve fixed at w_max (`path_length_system`
    says why).
    """
    return frozenset().union(*(meta[name] for name in row_names))


# Branch nodes one recovery may solve below its root; past it, recovery
# ends with status "branch_limit".
MAX_BRANCH_NODES = 10_000


class WeightRecovery(NamedTuple):
    """Outcome of recover_weights.

    status: "ok" (weights verified through the routing oracle),
    "lp_infeasible" (the continuous system has no solution),
    "grid_infeasible" (continuous solutions exist but no grid point realizes
    the forest), or "branch_limit" (the search stopped after
    MAX_BRANCH_NODES branch nodes).  "lp_infeasible" carries the
    `row_bindings` of the root's core, "grid_infeasible" their union over the
    leaves' cores.  A core may mention a weight the presolve fixed at w_max
    and adds no binding of it (`path_length_system` says why).  stage:
    "direct" (the root's snap) or "branch".  `lp_solves` counts the nodes
    solved; `pivots` counts every simplex pivot, those of the cores'
    deletion passes included.  A fixed weight has no simplex column.
    """

    status: str
    weights: WeightVector | None = None
    stage: str | None = None  # "direct" | "branch"
    bindings: frozenset = frozenset()
    lp_solves: int = 0
    pivots: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _matches_forest(instance: Instance, weights: WeightVector, forest: RoutingForest) -> bool:
    try:
        routed = spf.routing_from_weights(instance, weights)
    except (spf.NonUniqueRoutingError, spf.UnreachableDemandError):
        return False
    return routed == forest


def recover_weights(instance: Instance, forest: RoutingForest) -> WeightRecovery:
    """Find grid weights whose unique shortest paths reproduce the forest.

    The system comes presolved: each weight that no tree uses is fixed at
    w_max, a grid point, and never branched on; `path_length_system` says
    why that changes no answer and no cut below.

    Write each weight as w_e = w_min + res*n_e, with n_e an integer in
    [0, N] and N = grid size - 1.  With eps = gcd(w_min, res), the instance's
    default, `path_length_system` is feasible at grid weights exactly when
    those weights realize the forest:

    - if it is feasible, the potentials l are at most the true distances d
      (every link has a `pl_ub` row and l_s = 0) and equal them along the
      tree (its links are tight), so every unused link into a visited node
      j has d(i) + w_ij >= l_i + w_ij >= l_j + eps = d(j) + eps, and each
      tree path is the unique shortest one;
    - if the weights realize the forest, every difference of two grid path
      lengths is an integer combination of w_min and res, so a positive one
      is at least eps, and l = d satisfies the system.

    Each feasible node reads its LP weights once, as one list of grid
    positions n_e = (w_e - w_min)/res, and snaps each to w_min +
    res*floor(n_e + 1/2), the root ("direct") as every branch node
    ("branch").  With n_e = p/q, floor(n_e + 1/2) = (2p + q) // (2q), and
    each snapped position's weight is computed once per recovery, in a dict
    that holds only the positions snaps reach, never the whole grid.  If
    the snap misses, recovery branches depth first on the first link whose
    n_e is not an integer: w_e <= w_min + res*floor(n_e) first, then
    w_e >= w_min + res*ceil(n_e).  By the argument above an LP
    point with every weight on the grid realizes the forest, so it ends the
    search.  The system's first |L| variables are the link weights, in
    instance link order, so the k-th of them is the k-th link's weight and
    its branch variable.  Branching changes variable bounds only, which
    depend on no routing binary: each leaf is infeasible on its core's rows
    alone, so every forest sharing the union of the leaves' `row_bindings`
    fails the same tree, and the union is a sound no-good cut.  The root is
    decided by `solve_feasibility`, which checks the system and gives an
    infeasible root its core.  A missed snap encodes the system once more,
    and each branch node is its parent's tableau with one weight's bounds
    tightened, unchecked.  Only a failed search shrinks its leaves' Farkas
    supports to irreducible cores, each selecting rows of its leaf's tableau.

    Every bound is a grid point: the root's are w_min and w_max, the
    presolve fixes a weight at w_max, and a branch bound is floor(n_e) or
    ceil(n_e) in grid positions.  `_verify_assignment` has checked that each
    LP weight lies within its node's bounds, so n_e lies between the bounds'
    positions, inside [0, N].  Bounds never cross and never pass w_max: an
    off-grid n_e lies strictly between two integer bound positions, so
    floor(n_e) and ceil(n_e) lie between them too.  The snap needs no clamp:
    floor(n_e + 1/2) lies in [0, N], so it is `rational.snap_to_grid`'s
    nearest grid point, halves rounded up.

    Successful results are re-verified through the routing oracle: the
    returned weights route every demand along exactly the forest's paths.
    """
    system, meta = path_length_system(instance, forest)
    w_min, res = instance.w_min, instance.weight_resolution
    weights = system.variables[: len(instance.links)]
    pairs, grid = instance.link_pairs(), {}  # grid: each snapped position's weight
    lp_solves = pivots = 0
    leaves: list[tuple[_Simplex, Infeasible]] = []

    def outcome(status, weights=None, stage=None, bindings=frozenset()) -> WeightRecovery:
        return WeightRecovery(status, weights, stage, bindings, lp_solves, pivots)

    stack: list[_Simplex | None] = [None]  # None: the root
    while stack:
        if lp_solves > MAX_BRANCH_NODES:
            return outcome("branch_limit")
        node = stack.pop()
        result = solve_feasibility(system) if node is None else node.solve()
        lp_solves += 1
        pivots += result.pivots
        if not result.feasible:
            if node is None:
                return outcome("lp_infeasible", bindings=row_bindings(meta, result.conflict_core))
            leaves.append((node, result))
            continue
        positions = [(result.assignment[weight.name] - w_min) / res for weight in weights]
        snap = [(2 * n.numerator + n.denominator) // (2 * n.denominator) for n in positions]
        grid.update((k, w_min + res * k) for k in set(snap) - grid.keys())
        snapped = WeightVector(dict(zip(pairs, map(grid.__getitem__, snap))))
        if _matches_forest(instance, snapped, forest):
            return outcome("ok", snapped, "direct" if node is None else "branch")
        k = next((k for k, n in enumerate(positions) if n.denominator != 1), None)
        if k is None:
            raise RuntimeError("internal: on-grid LP weights do not realize the forest")
        node = node or _Simplex(system)
        v = node.system.variables[k]
        stack.append(node.tightened(k, w_min + res * math.ceil(positions[k]), v.ub))
        stack.append(node.tightened(k, v.lb, w_min + res * math.floor(positions[k])))
    # Only a failed search uses its leaves' cores: their union is the cut.
    bindings: frozenset[Binding] = frozenset()
    for node, farkas in leaves:
        core = _irreducible_core(node, farkas)
        pivots += core.pivots
        bindings |= row_bindings(meta, core.conflict_core)
    return outcome("grid_infeasible", bindings=bindings)
