"""Exact linear feasibility: the weight-recovery subproblem.

Given a fixed routing forest, decide whether link weights inside the bounds
and per-origin length values exist that satisfy the path-length constraints,
and recover a concrete grid weight vector when they do.

The solver is a sparse two-phase primal simplex over `fractions.Fraction`:
each tableau row holds only its nonzeros, and a pivot touches only the pivot
row's nonzeros in the rows that have a nonzero in the entering column.
Bland's smallest-index rule picks both the entering and the leaving choice,
so pivoting is deterministic and cannot cycle.  Exact arithmetic is the point:
the strict inequalities that separate a unique shortest path from a tie must
not be blurred by floating error.  Feasible results are verified by direct
substitution before they are returned.

Weight recovery runs a three-stage policy:

 1. solve the feasibility system and snap the weights to the grid;
 2. if snapping breaks strictness, re-solve maximizing the smallest strict
    slack (the margin) and snap again;
 3. if that still fails, filter the oracle's weight-grid enumeration
    (`spf.unique_grid_routings`, bounded by a combination limit) to this
    forest, which settles grid realizability exactly.

`maximize_margin` runs the same stages with the margin LP first.  Both use
the eps and big_M that `models.resolve_params` derives from the instance.

A reported infeasibility therefore means the forest is not realizable as a
unique-shortest-path system at the requested strictness; `grid_infeasible`
(the grid has no witness although the continuous system has one) is reported
distinctly from `lp_infeasible`.

An infeasible system's certificate is an irreducible infeasible subsystem:
the rows used by phase 1's Farkas dual ray, shrunk by one deletion pass and
re-solved once exactly.  `row_bindings` turns it into a no-good cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .instance import Instance
from .models import Constraint, Variable, resolve_params, table_violations
from .rational import grid_points, snap_to_grid
from . import spf
from .spf import GridSearchLimitError, RoutingForest, WeightVector  # noqa: F401 (re-export)

# A routing binary fixed by a forest: (origin, link, 0 or 1).
Binding = tuple[str, tuple[str, str], int]


class UnboundedObjectiveError(ValueError):
    pass


class SimplexResourceError(RuntimeError):
    """Pivot count or rational bit-size exceeded the configured budget."""


@dataclass(frozen=True)
class LinearSystem:
    """Continuous variables with bounds, sparse rows, optional objective."""

    variables: tuple[Variable, ...]
    rows: tuple[Constraint, ...]
    objective: tuple[tuple[str, Fraction], ...] = ()
    maximize: bool = True


@dataclass(frozen=True)
class Feasible:
    assignment: dict[str, Fraction]
    objective_value: Fraction | None = None
    pivots: int = 0

    @property
    def feasible(self) -> bool:
        return True


@dataclass(frozen=True)
class Infeasible:
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


def system_violations(system: LinearSystem) -> list[str]:
    out = table_violations(system.variables, system.rows, system.objective)
    for v in system.variables:
        if v.kind != "continuous":
            out.append(f"variable {v.name}: must be continuous")
    return out


# ---------------------------------------------------------------------------
# Two-phase simplex.

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Per-solve budgets; exceeding either raises SimplexResourceError.
MAX_PIVOTS = 200_000
MAX_BITS = 1_000_000


class _Simplex:
    def __init__(self, system: LinearSystem):
        problems = system_violations(system)
        if problems:
            raise ValueError("ill-formed system: " + "; ".join(problems))
        self.system = system
        self.pivots = 0

        # Column encoding: every structural variable becomes one or two
        # nonnegative columns, x = base + sum(sign * u).
        self.col_sign: list[Fraction] = []
        self.var_base: list[Fraction] = []
        self.var_cols: list[list[int]] = []
        extra_rows: list[tuple[dict[int, Fraction], str, Fraction]] = []
        for v in system.variables:
            cols: list[int] = []
            if v.lb is not None and v.lb == v.ub:
                base = v.lb  # fixed variable: no column at all
            elif v.lb is not None:
                base = v.lb
                cols.append(self._new_col(_ONE))
                if v.ub is not None:
                    extra_rows.append(({cols[0]: _ONE}, "<=", v.ub - v.lb))
            elif v.ub is not None:
                base = v.ub
                cols.append(self._new_col(-_ONE))
            else:
                base = _ZERO
                cols.append(self._new_col(_ONE))
                cols.append(self._new_col(-_ONE))
            self.var_base.append(base)
            self.var_cols.append(cols)
        self.n_struct = len(self.col_sign)

        var_index = {v.name: i for i, v in enumerate(system.variables)}
        raw_rows: list[tuple[dict[int, Fraction], str, Fraction]] = []
        for row in system.rows:
            coeffs: dict[int, Fraction] = {}
            rhs = row.rhs
            for name, coef in row.terms:
                vi = var_index[name]
                rhs -= coef * self.var_base[vi]
                for c in self.var_cols[vi]:
                    coeffs[c] = coeffs.get(c, _ZERO) + coef * self.col_sign[c]
            raw_rows.append((coeffs, row.sense, rhs))
        raw_rows.extend(extra_rows)

        # Sparse rows {column: nonzero coefficient} with the rhs kept apart,
        # flipped to rhs >= 0.  Each inequality gets a slack column; a row
        # whose slack is not +1 after the flip gets an artificial column,
        # numbered after every slack.  The initial basis is slack or artificial.
        self.rows: list[dict[int, Fraction]] = []
        self.rhs: list[Fraction] = []
        slacks: list[int | None] = []
        ncols = self.n_struct
        for coeffs, sense, rhs in raw_rows:
            row = {c: a for c, a in coeffs.items() if a != 0}
            slack = None
            if sense != "=":
                slack = ncols
                ncols += 1
                row[slack] = _ONE if sense == "<=" else -_ONE
            if rhs < 0:
                row = {c: -a for c, a in row.items()}
                rhs = -rhs
            self.rows.append(row)
            self.rhs.append(rhs)
            slacks.append(slack)
        self.artificial_start = ncols
        self.basis: list[int] = []
        for row, slack in zip(self.rows, slacks):
            if slack is None or row[slack] != _ONE:
                slack = ncols
                ncols += 1
                row[slack] = _ONE
            self.basis.append(slack)
        self.ncols = ncols
        self.active = list(range(len(self.rows)))
        self.initial_basis = list(self.basis)

    def _new_col(self, sign: Fraction) -> int:
        self.col_sign.append(sign)
        return len(self.col_sign) - 1

    def _zrow(self, cost: list[Fraction]) -> list[Fraction]:
        z = list(cost)
        for r in self.active:
            cb = cost[self.basis[r]]
            if cb != 0:
                for j, a in self.rows[r].items():
                    z[j] -= cb * a
        return z

    def _objective_value(self, cost: list[Fraction]) -> Fraction:
        total = _ZERO
        for r in self.active:
            cb = cost[self.basis[r]]
            if cb != 0:
                total += cb * self.rhs[r]
        return total

    def _pivot_rows(self, r: int, c: int) -> dict[int, Fraction]:
        """Normalize row r on column c and eliminate c from the other rows.

        Only the pivot row's nonzeros are touched, and only in rows with a
        nonzero in column c; an entry that cancels to 0 is deleted.
        """
        self.pivots += 1
        if self.pivots > MAX_PIVOTS:
            raise SimplexResourceError(f"pivot budget {MAX_PIVOTS} exceeded")
        row = self.rows[r]
        piv = row[c]
        if piv.numerator.bit_length() + piv.denominator.bit_length() > MAX_BITS:
            raise SimplexResourceError("rational coefficients exceeded the bit budget")
        if piv != _ONE:
            inv = _ONE / piv
            self.rows[r] = row = {j: a * inv for j, a in row.items()}
            self.rhs[r] *= inv
        b = self.rhs[r]
        for rr in self.active:
            other = self.rows[rr]
            factor = other.get(c)
            if factor is None or rr == r:
                continue
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
            if b:
                self.rhs[rr] += neg * b
        self.basis[r] = c
        return row

    def _pivot(self, r: int, c: int) -> None:
        factor = self.z[c]
        row = self._pivot_rows(r, c)
        if factor != 0:
            z = self.z
            for j, a in row.items():
                z[j] -= factor * a

    def _minimize(self, cost: list[Fraction], banned: set[int]) -> None:
        self.z = self._zrow(cost)
        while True:
            enter = None
            for j in range(self.ncols):
                if j in banned:
                    continue
                if self.z[j] < 0:
                    enter = j
                    break
            if enter is None:
                return
            leave = None
            best = None
            for r in self.active:
                a = self.rows[r].get(enter)
                if a is not None and a > 0:
                    ratio = self.rhs[r] / a
                    if best is None or ratio < best or (
                        ratio == best and self.basis[r] < self.basis[leave]
                    ):
                        best = ratio
                        leave = r
            if leave is None:
                raise UnboundedObjectiveError("objective is unbounded")
            self._pivot(leave, enter)

    def _farkas_support(self, cost: list[Fraction]) -> tuple[str, ...]:
        """The system rows used by the dual ray of an infeasible phase 1.

        Each row's initial basic column is a unit column, so the ray's entry
        for the row is 1 - z[artificial], or -z[slack] (cost minus z).
        """
        return tuple(
            row.name
            for row, col in zip(self.system.rows, self.initial_basis)
            if cost[col] != self.z[col]
        )

    def solve(self) -> Feasible | Infeasible:
        """Infeasible results carry the unverified Farkas support."""
        art = set(range(self.artificial_start, self.ncols))
        if art:
            cost = [_ZERO] * self.ncols
            for c in art:
                cost[c] = _ONE
            self._minimize(cost, banned=set())
            if self._objective_value(cost) > 0:
                return Infeasible(self._farkas_support(cost), self.pivots)
            # Drive surviving artificials out of the basis; rows that cannot
            # pivot are redundant and dropped.
            for r in list(self.active):
                if self.basis[r] in art:
                    pivot_col = min(
                        (j for j in self.rows[r] if j < self.artificial_start),
                        default=None,
                    )
                    if pivot_col is None:
                        self.active.remove(r)
                    else:
                        # Degenerate pivot (rhs is 0), so feasibility holds
                        # whatever the sign of the pivot element.
                        self._pivot_rows(r, pivot_col)

        objective_value = None
        if self.system.objective:
            var_index = {v.name: i for i, v in enumerate(self.system.variables)}
            cost = [_ZERO] * self.ncols
            sense = Fraction(-1) if self.system.maximize else _ONE
            for name, coef in self.system.objective:
                for c in self.var_cols[var_index[name]]:
                    cost[c] += sense * coef * self.col_sign[c]
            self._minimize(cost, banned=art)

        values = [_ZERO] * self.ncols
        for r in self.active:
            values[self.basis[r]] = self.rhs[r]
        assignment = {}
        for vi, v in enumerate(self.system.variables):
            x = self.var_base[vi]
            for c in self.var_cols[vi]:
                x += self.col_sign[c] * values[c]
            assignment[v.name] = x
        if self.system.objective:
            objective_value = sum(
                (coef * assignment[name] for name, coef in self.system.objective), _ZERO
            )
        _verify_assignment(self.system, assignment)
        return Feasible(assignment, objective_value, self.pivots)


def _verify_assignment(system: LinearSystem, assignment: dict[str, Fraction]) -> None:
    for v in system.variables:
        x = assignment[v.name]
        if v.lb is not None and x < v.lb or v.ub is not None and x > v.ub:
            raise RuntimeError(f"internal: bound on {v.name} violated by {x}")
    for row in system.rows:
        lhs = sum((coef * assignment[name] for name, coef in row.terms), _ZERO)
        ok = lhs <= row.rhs if row.sense == "<=" else lhs >= row.rhs if row.sense == ">=" else lhs == row.rhs
        if not ok:
            raise RuntimeError(f"internal: row {row.name} violated ({lhs} {row.sense} {row.rhs})")


def _irreducible_core(system: LinearSystem, phase1: Infeasible) -> Infeasible:
    """Shrink phase 1's Farkas support to an irreducible core, verified exactly.

    One deletion pass tries each row; when the rest is infeasible, the pass
    continues from that trial's own Farkas support.  The kept set only
    shrinks, and a subset of a feasible system is feasible, so a row kept
    because the set without it was feasible stays needed.  The final core
    is re-solved exactly.  `pivots` adds every pivot of the pass to phase 1's.
    """
    pivots = phase1.pivots

    def farkas_support(rows: list[Constraint]) -> tuple[str, ...] | None:
        nonlocal pivots
        mentioned = {name for row in rows for name, _ in row.terms}
        variables = tuple(v for v in system.variables if v.name in mentioned)
        result = _Simplex(LinearSystem(variables, tuple(rows))).solve()
        pivots += result.pivots
        return None if result.feasible else result.conflict_core

    names = set(phase1.conflict_core)
    kept = [row for row in system.rows if row.name in names]
    for row in list(kept):
        if row.name not in names:
            continue
        trial = [r for r in kept if r is not row]
        core = farkas_support(trial)
        if core is not None:
            names = set(core)
            kept = [r for r in trial if r.name in names]
    if farkas_support(kept) is None:
        raise RuntimeError(
            f"internal: core {names} of Farkas support {phase1.conflict_core} is feasible"
        )
    return Infeasible(tuple(row.name for row in kept), pivots)


def solve_feasibility(system: LinearSystem) -> Feasible | Infeasible:
    """Decide the system exactly; Feasible results are substitution-verified,
    Infeasible ones carry a verified irreducible core.  `pivots` counts
    every simplex pivot, those of the core's deletion pass included."""
    result = _Simplex(system).solve()
    return result if result.feasible else _irreducible_core(system, result)


# ---------------------------------------------------------------------------
# The path-length system for a fixed forest, and weight recovery.

_MARGIN_VAR = "t_margin"


def path_length_system(
    instance: Instance,
    forest: RoutingForest,
    eps: Fraction,
    big_M: Fraction,
    margin_variable: bool = False,
) -> tuple[LinearSystem, dict[str, frozenset[Binding]]]:
    """Instantiate the path-length constraints for fixed routing binaries.

    Returns the system plus row metadata: each row name maps to the
    (origin, link, value) bindings of the routing binaries that parametrize
    the row.  A `pl_ub` row on (i, j) depends on every link into j, a `pl_lb`
    row only on (i, j) being used.  With `margin_variable` the strict rows
    get a shared slack variable t in [eps, big_M] and the objective becomes
    max t.

    The lower-bound rows of unused links are omitted: for any weights that
    satisfy the remaining rows, the exact shortest distances satisfy them
    too, since d_i + w_ij - d_j <= (|N|-1)*w_max < big_M.  So dropping them
    changes no feasibility answer.
    """
    variables: list[Variable] = []
    wname: dict[tuple[str, str], str] = {}
    for link in instance.links:
        name = f"w_{link.tail}_{link.head}"
        wname[(link.tail, link.head)] = name
        variables.append(Variable(name, "continuous", instance.w_min, instance.w_max))
    lname: dict[tuple[str, str], str] = {}
    origins = instance.origins()
    for s in origins:
        for node in instance.nodes:
            name = f"l_{s}_{node}"
            lname[(s, node)] = name
            ub = Fraction(0) if node == s else None
            variables.append(Variable(name, "continuous", Fraction(0), ub))
    if margin_variable:
        variables.append(Variable(_MARGIN_VAR, "continuous", eps, big_M))

    pairs_into = {
        node: [(l.tail, l.head) for l in links] for node, links in instance.in_links().items()
    }
    rows: list[Constraint] = []
    meta: dict[str, frozenset[Binding]] = {}
    for s in origins:
        used = forest.used_links(s)
        into = {
            node: frozenset((s, pair, 1 if pair in used else 0) for pair in pairs)
            for node, pairs in pairs_into.items()
        }
        insum = {node: sum(v for _, _, v in binds) for node, binds in into.items()}
        for link in instance.links:
            i, j = link.tail, link.head
            y = 1 if (i, j) in used else 0
            gap = insum[j] - y
            # l_j - l_i - w_ij: at most -eps * gap, and 0 on a used link.
            terms = (
                (wname[(i, j)], Fraction(-1)),
                (lname[(s, i)], Fraction(-1)),
                (lname[(s, j)], Fraction(1)),
            )
            name = f"pl_ub_{s}_{i}_{j}"
            if margin_variable and gap > 0:
                margin = ((_MARGIN_VAR, Fraction(gap)),)
                rows.append(Constraint(name, terms + margin, "<=", Fraction(0)))
            else:
                rows.append(Constraint(name, terms, "<=", -eps * gap))
            meta[name] = into[j]
            if y == 0:
                continue
            name = f"pl_lb_{s}_{i}_{j}"
            rows.append(Constraint(name, terms, ">=", Fraction(0)))
            meta[name] = frozenset({(s, (i, j), 1)})

    objective = ((_MARGIN_VAR, Fraction(1)),) if margin_variable else ()
    system = LinearSystem(tuple(variables), tuple(rows), objective, maximize=True)
    return system, meta


def row_bindings(
    meta: dict[str, frozenset[Binding]],
    row_names: tuple[str, ...],
) -> frozenset[Binding]:
    """The (origin, link, value) assignments that parametrize the given rows.

    Any forest agreeing with these bindings instantiates identical rows, so
    an infeasible core's bindings are a sound no-good pattern.
    """
    return frozenset().union(*(meta[name] for name in row_names))


@dataclass(frozen=True)
class WeightRecovery:
    """Outcome of recover_weights / maximize_margin.

    status: "ok" (weights verified through the routing oracle),
    "lp_infeasible" (the continuous system has no solution), or
    "grid_infeasible" (continuous solutions exist but no grid point realizes
    the forest).  "lp_infeasible" carries the `row_bindings` of the core.
    `lp_solves` counts the stage LPs run; `pivots` counts every simplex
    pivot, those of the core's deletion pass included.
    """

    status: str
    weights: WeightVector | None = None
    stage: str | None = None  # "direct" | "margin" | "exhaustive"
    lp_margin: Fraction | None = None
    bindings: frozenset = frozenset()
    lp_solves: int = 0
    pivots: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _snap_vector(instance: Instance, assignment: dict[str, Fraction]) -> WeightVector:
    values = {}
    for link in instance.links:
        raw = assignment[f"w_{link.tail}_{link.head}"]
        values[(link.tail, link.head)] = snap_to_grid(
            raw, instance.w_min, instance.w_max, instance.weight_resolution
        )
    return WeightVector(values)


def _matches_forest(instance: Instance, weights: WeightVector, forest: RoutingForest) -> bool:
    try:
        routed = spf.routing_from_weights(instance, weights)
    except (spf.NonUniqueRoutingError, spf.UnreachableDemandError):
        return False
    return routed == forest


def _grid_witness(
    instance: Instance, forest: RoutingForest, limit: int
) -> WeightVector | None:
    """The first grid vector, in enumeration order, that realizes the forest."""
    points = grid_points(instance.w_min, instance.w_max, instance.weight_resolution)
    index = instance.node_index()
    target = tuple(
        tuple(index[node] for node in forest.paths.get((d.origin, d.destination), ()))
        for d in instance.demands
    )
    pairs = instance.link_pairs()
    for combo, paths in spf.unique_grid_routings(instance, limit):
        if paths != target:
            continue
        candidate = WeightVector({pair: points[i] for pair, i in zip(pairs, combo)})
        if _matches_forest(instance, candidate, forest):
            return candidate
    return None


def _recover(
    instance: Instance,
    forest: RoutingForest,
    stages: tuple[str, ...],
    grid_search_limit: int,
) -> WeightRecovery:
    """Run the LP stages in the given order, then the exhaustive stage.

    Each LP stage solves the plain ("direct") or the margin ("margin")
    system and snaps its weights to the grid.  Either system is feasible
    exactly when the other is (the margin t ranges over [eps, big_M]), so
    the first LP settles infeasibility.  A GridSearchLimitError from the
    exhaustive stage carries the LP stages' `lp_solves` and `pivots`.
    """
    eps, big_M = resolve_params(instance, None, None)
    lp_margin = None
    lp_solves = pivots = 0

    def outcome(status, weights=None, stage=None, bindings=frozenset()) -> WeightRecovery:
        return WeightRecovery(status, weights, stage, lp_margin, bindings, lp_solves, pivots)

    for stage in stages:
        system, meta = path_length_system(
            instance, forest, eps, big_M, margin_variable=stage == "margin"
        )
        result = solve_feasibility(system)
        lp_solves += 1
        pivots += result.pivots
        if not result.feasible:
            bindings = row_bindings(meta, result.conflict_core)
            return outcome("lp_infeasible", bindings=bindings)
        if stage == "margin":
            lp_margin = result.objective_value
        snapped = _snap_vector(instance, result.assignment)
        if _matches_forest(instance, snapped, forest):
            return outcome("ok", snapped, stage)
    try:
        witness = _grid_witness(instance, forest, grid_search_limit)
    except GridSearchLimitError as exc:
        exc.lp_solves, exc.pivots = lp_solves, pivots
        raise
    if witness is None:
        return outcome("grid_infeasible")
    return outcome("ok", witness, "exhaustive")


def recover_weights(
    instance: Instance,
    forest: RoutingForest,
    *,
    grid_search_limit: int = spf.GRID_LIMIT,
) -> WeightRecovery:
    """Find grid weights whose unique shortest paths reproduce the forest.

    eps and big_M are the instance's defaults (`models.resolve_params`):
    eps = gcd(w_min, weight_resolution) is the smallest gap two grid path
    lengths can have, so it cuts off no grid-realizable forest.  Successful
    results are re-verified through the routing oracle: the returned weights
    route every demand along exactly the forest's paths.
    """
    return _recover(instance, forest, ("direct", "margin"), grid_search_limit)


def strictness_margin(
    instance: Instance, forest: RoutingForest, weights: WeightVector
) -> Fraction | None:
    """Smallest strict-row slack realized by the weights (None if no strict rows).

    A strict row exists for each unused link into a node that the origin's
    tree visits; its slack is (l_i + w_ij) - l_j under exact distances.
    """
    in_links = instance.in_links()
    best: Fraction | None = None
    for s in instance.origins():
        used = forest.used_links(s)
        visited = {node for (_, node) in used}
        lengths = spf.shortest_path_lengths(instance, weights, s).dist
        for node in visited:
            for link in in_links[node]:
                pair = (link.tail, link.head)
                if pair in used:
                    continue
                li = lengths.get(link.tail)
                if li is None:
                    continue
                slack = li + weights.values[pair] - lengths[node]
                if best is None or slack < best:
                    best = slack
    return best


def maximize_margin(instance: Instance, forest: RoutingForest) -> WeightRecovery:
    """Recover weights maximizing the smallest strict slack before snapping.

    The margin LP runs first, with the instance's default eps and big_M; its
    optimum is at least eps whenever the forest is LP-feasible.  If its
    snapped weights miss the forest, the direct and exhaustive stages of
    recover_weights follow.
    """
    return _recover(instance, forest, ("margin", "direct"), spf.GRID_LIMIT)
