"""Exact linear feasibility: the weight-recovery subproblem.

Given a fixed routing forest, decide whether link weights inside the bounds
and per-origin length values exist that satisfy the path-length constraints,
and recover a concrete grid weight vector when they do.

The solver is a dense two-phase primal simplex over `fractions.Fraction` with
Bland's smallest-index rule for both the entering and the leaving choice, so
pivoting is deterministic and cannot cycle.  Exact arithmetic is the point:
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

`maximize_margin` runs the same stages with the margin LP first.  Both take
their eps/big_M defaults from `models.resolve_params`.

A reported infeasibility therefore means the forest is not realizable as a
unique-shortest-path system at the requested strictness; `grid_infeasible`
(the grid has no witness although the continuous system has one) is reported
distinctly from `lp_infeasible`.

An infeasible system's certificate is an irreducible infeasible subsystem:
the rows used by phase 1's Farkas dual ray, re-solved once exactly and
shrunk by one deletion pass.  `row_bindings` turns it into a no-good cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .instance import Instance
from .models import Constraint, Variable, resolve_params
from .rational import grid_points, snap_to_grid
from . import spf
from .spf import GridSearchLimitError, RoutingForest, WeightVector  # noqa: F401 (re-export)


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

    @property
    def feasible(self) -> bool:
        return False


def system_violations(system: LinearSystem) -> list[str]:
    out = []
    seen = {}
    for v in system.variables:
        if v.kind != "continuous":
            out.append(f"variable {v.name}: must be continuous")
        if v.name in seen:
            out.append(f"variable {v.name}: declared twice")
        seen[v.name] = v
        if v.lb is not None and v.ub is not None and v.lb > v.ub:
            out.append(f"variable {v.name}: empty bound interval")
    names = set()
    for r in system.rows:
        if r.name in names:
            out.append(f"row {r.name}: declared twice")
        names.add(r.name)
        if r.sense not in ("<=", ">=", "="):
            out.append(f"row {r.name}: unknown sense {r.sense!r}")
        for var, _ in r.terms:
            if var not in seen:
                out.append(f"row {r.name}: references undeclared {var!r}")
    for var, _ in system.objective:
        if var not in seen:
            out.append(f"objective: references undeclared {var!r}")
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
        self.col_var: list[int] = []
        self.var_base: list[Fraction] = []
        self.var_cols: list[list[int]] = []
        extra_rows: list[tuple[dict[int, Fraction], str, Fraction]] = []
        for vi, v in enumerate(system.variables):
            cols: list[int] = []
            if v.lb is not None and v.lb == v.ub:
                base = v.lb  # fixed variable: no column at all
            elif v.lb is not None:
                base = v.lb
                cols.append(self._new_col(vi, _ONE))
                if v.ub is not None:
                    extra_rows.append(({cols[0]: _ONE}, "<=", v.ub - v.lb))
            elif v.ub is not None:
                base = v.ub
                cols.append(self._new_col(vi, -_ONE))
            else:
                base = _ZERO
                cols.append(self._new_col(vi, _ONE))
                cols.append(self._new_col(vi, -_ONE))
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

        # Slack columns, rhs normalization, initial basis (slack or artificial).
        m = len(raw_rows)
        ncols = self.n_struct
        slack_of_row: list[int | None] = []
        senses = []
        for coeffs, sense, rhs in raw_rows:
            senses.append(sense)
            if sense in ("<=", ">="):
                slack_of_row.append(ncols)
                ncols += 1
            else:
                slack_of_row.append(None)
        self.rows: list[list[Fraction]] = []
        self.basis: list[int] = []
        self.artificial_start = None
        art_cols: list[int] = []
        for r, (coeffs, sense, rhs) in enumerate(raw_rows):
            dense = [_ZERO] * ncols
            for c, coef in coeffs.items():
                dense[c] = coef
            if sense == "<=":
                dense[slack_of_row[r]] = _ONE
            elif sense == ">=":
                dense[slack_of_row[r]] = -_ONE
            flip = rhs < 0
            if flip:
                dense = [-x for x in dense]
                rhs = -rhs
            dense.append(rhs)
            self.rows.append(dense)
            slack = slack_of_row[r]
            if slack is not None and dense[slack] == _ONE:
                self.basis.append(slack)
            else:
                self.basis.append(-1)  # placeholder: artificial added below
                art_cols.append(r)
        self.artificial_start = ncols
        for k, r in enumerate(art_cols):
            col = ncols + k
            for rr in range(m):
                self.rows[rr].insert(col, _ONE if rr == r else _ZERO)
            self.basis[r] = col
        self.ncols = ncols + len(art_cols)
        self.active = list(range(m))
        self.initial_basis = list(self.basis)

    def _new_col(self, var_index: int, sign: Fraction) -> int:
        self.col_sign.append(sign)
        self.col_var.append(var_index)
        return len(self.col_sign) - 1

    def _zrow(self, cost: list[Fraction]) -> list[Fraction]:
        z = list(cost)
        for r in self.active:
            cb = cost[self.basis[r]]
            if cb != 0:
                row = self.rows[r]
                for j in range(self.ncols):
                    if row[j] != 0:
                        z[j] -= cb * row[j]
        return z

    def _objective_value(self, cost: list[Fraction]) -> Fraction:
        total = _ZERO
        for r in self.active:
            cb = cost[self.basis[r]]
            if cb != 0:
                total += cb * self.rows[r][-1]
        return total

    def _pivot_rows(self, r: int, c: int) -> list[Fraction]:
        """Normalize row r on column c and eliminate c from the other rows."""
        self.pivots += 1
        if self.pivots > MAX_PIVOTS:
            raise SimplexResourceError(f"pivot budget {MAX_PIVOTS} exceeded")
        piv = self.rows[r][c]
        if piv.numerator.bit_length() + piv.denominator.bit_length() > MAX_BITS:
            raise SimplexResourceError("rational coefficients exceeded the bit budget")
        inv = _ONE / piv
        self.rows[r] = row = [x * inv for x in self.rows[r]]
        for rr in self.active:
            if rr == r:
                continue
            other = self.rows[rr]
            factor = other[c]
            if factor != 0:
                self.rows[rr] = [a - factor * b for a, b in zip(other, row)]
        self.basis[r] = c
        return row

    def _pivot(self, r: int, c: int) -> None:
        factor = self.z[c]
        row = self._pivot_rows(r, c)
        if factor != 0:
            self.z = [a - factor * b for a, b in zip(self.z, row)]

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
                a = self.rows[r][enter]
                if a > 0:
                    ratio = self.rows[r][-1] / a
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
                return Infeasible(self._farkas_support(cost))
            # Drive surviving artificials out of the basis; rows that cannot
            # pivot are redundant and dropped.
            for r in list(self.active):
                if self.basis[r] in art:
                    pivot_col = None
                    for j in range(self.artificial_start):
                        if self.rows[r][j] != 0:
                            pivot_col = j
                            break
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
            values[self.basis[r]] = self.rows[r][-1]
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
        return Feasible(assignment=assignment, objective_value=objective_value)


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


def _irreducible_core(system: LinearSystem, support: tuple[str, ...]) -> tuple[str, ...]:
    """Verify a Farkas support exactly, then shrink it to an irreducible core.

    One deletion pass drops each row whose removal leaves the rest infeasible.
    A subsystem of a feasible system is feasible, so every row that survives
    the pass is needed: without it the final core is feasible.
    """

    def infeasible(rows: list[Constraint]) -> bool:
        mentioned = {name for row in rows for name, _ in row.terms}
        variables = tuple(v for v in system.variables if v.name in mentioned)
        return not _Simplex(LinearSystem(variables, tuple(rows))).solve().feasible

    names = set(support)
    kept = [row for row in system.rows if row.name in names]
    if not infeasible(kept):
        raise RuntimeError(f"internal: Farkas support {support} is feasible")
    for row in list(kept):
        trial = [r for r in kept if r is not row]
        if infeasible(trial):
            kept = trial
    return tuple(row.name for row in kept)


def solve_feasibility(system: LinearSystem) -> Feasible | Infeasible:
    """Decide the system exactly; Feasible results are substitution-verified,
    Infeasible ones carry a verified irreducible core."""
    result = _Simplex(system).solve()
    if result.feasible:
        return result
    return Infeasible(_irreducible_core(system, result.conflict_core))


# ---------------------------------------------------------------------------
# The path-length system for a fixed forest, and weight recovery.

_MARGIN_VAR = "t_margin"


def path_length_system(
    instance: Instance,
    forest: RoutingForest,
    eps: Fraction,
    big_M: Fraction,
    margin_variable: bool = False,
) -> tuple[LinearSystem, dict[str, tuple[str, str, tuple[str, str]]]]:
    """Instantiate the path-length constraints for fixed routing binaries.

    Returns the system plus row metadata name -> (kind, origin, link).  With
    `margin_variable` the strict rows get a shared slack variable t in
    [eps, big_M] and the objective becomes max t.

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

    in_links = instance.in_links()
    rows: list[Constraint] = []
    meta: dict[str, tuple[str, str, tuple[str, str]]] = {}
    for s in origins:
        used = forest.used_links(s)
        insum = {node: sum(1 for l in in_links[node] if (l.tail, l.head) in used)
                 for node in instance.nodes}
        for link in instance.links:
            i, j = link.tail, link.head
            y = 1 if (i, j) in used else 0
            gap = insum[j] - y
            terms: list[tuple[str, Fraction]] = [
                (wname[(i, j)], Fraction(-1)),
                (lname[(s, i)], Fraction(-1)),
                (lname[(s, j)], Fraction(1)),
            ]
            if margin_variable and gap > 0:
                terms.append((_MARGIN_VAR, Fraction(gap)))
                rhs = Fraction(0)
            else:
                rhs = -eps * gap
            name = f"pl_ub_{s}_{i}_{j}"
            rows.append(Constraint(name, tuple(terms), "<=", rhs))
            meta[name] = ("ub", s, (i, j))
            if y == 0:
                continue
            terms = [
                (wname[(i, j)], Fraction(-1)),
                (lname[(s, i)], Fraction(-1)),
                (lname[(s, j)], Fraction(1)),
            ]
            name = f"pl_lb_{s}_{i}_{j}"
            rows.append(Constraint(name, tuple(terms), ">=", Fraction(0)))
            meta[name] = ("lb", s, (i, j))

    objective = ((_MARGIN_VAR, Fraction(1)),) if margin_variable else ()
    system = LinearSystem(tuple(variables), tuple(rows), objective, maximize=True)
    return system, meta


def row_bindings(
    instance: Instance,
    forest: RoutingForest,
    meta: dict[str, tuple[str, str, tuple[str, str]]],
    row_names: tuple[str, ...],
) -> frozenset[tuple[str, tuple[str, str], int]]:
    """The (origin, link, value) assignments that parametrize the given rows.

    Any forest agreeing with these bindings instantiates identical rows, so
    an infeasible core's bindings are a sound no-good pattern.
    """
    in_links = instance.in_links()
    bindings: set[tuple[str, tuple[str, str], int]] = set()
    for name in row_names:
        kind, s, (i, j) = meta[name]
        used = forest.used_links(s)
        bindings.add((s, (i, j), 1 if (i, j) in used else 0))
        if kind == "ub":
            for link in in_links[j]:
                pair = (link.tail, link.head)
                bindings.add((s, pair, 1 if pair in used else 0))
    return frozenset(bindings)


@dataclass(frozen=True)
class WeightRecovery:
    """Outcome of recover_weights / maximize_margin.

    status: "ok" (weights verified through the routing oracle),
    "lp_infeasible" (the continuous system has no solution), or
    "grid_infeasible" (continuous solutions exist but no grid point realizes
    the forest).  "lp_infeasible" carries the `row_bindings` of the core.
    """

    status: str
    weights: WeightVector | None = None
    stage: str | None = None  # "direct" | "margin" | "exhaustive"
    lp_margin: Fraction | None = None
    bindings: frozenset = frozenset()

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
    target = [
        [index[node] for node in forest.paths.get((d.origin, d.destination), ())]
        for d in instance.demands
    ]
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
    eps,
    big_M,
    stages: tuple[str, ...],
    grid_search_limit: int,
) -> WeightRecovery:
    """Run the LP stages in the given order, then the exhaustive stage.

    Each LP stage solves the plain ("direct") or the margin ("margin")
    system and snaps its weights to the grid.  Either system is feasible
    exactly when the other is (the margin t ranges over [eps, big_M]), so
    the first LP settles infeasibility.
    """
    eps, big_M = resolve_params(instance, eps, big_M)
    lp_margin = None
    for stage in stages:
        system, meta = path_length_system(
            instance, forest, eps, big_M, margin_variable=stage == "margin"
        )
        result = solve_feasibility(system)
        if not result.feasible:
            return WeightRecovery(
                status="lp_infeasible",
                bindings=row_bindings(instance, forest, meta, result.conflict_core),
            )
        if stage == "margin":
            lp_margin = result.objective_value
        snapped = _snap_vector(instance, result.assignment)
        if _matches_forest(instance, snapped, forest):
            return WeightRecovery(
                status="ok", weights=snapped, stage=stage, lp_margin=lp_margin
            )
    witness = _grid_witness(instance, forest, grid_search_limit)
    if witness is None:
        return WeightRecovery(status="grid_infeasible", lp_margin=lp_margin)
    return WeightRecovery(
        status="ok", weights=witness, stage="exhaustive", lp_margin=lp_margin
    )


def recover_weights(
    instance: Instance,
    forest: RoutingForest,
    eps=None,
    big_M=None,
    *,
    grid_search_limit: int = spf.GRID_LIMIT,
) -> WeightRecovery:
    """Find grid weights whose unique shortest paths reproduce the forest.

    Successful results are re-verified through the routing oracle: the
    returned weights route every demand along exactly the forest's paths.
    """
    return _recover(
        instance, forest, eps, big_M, ("direct", "margin"), grid_search_limit
    )


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


def maximize_margin(instance: Instance, forest: RoutingForest, eps=None, big_M=None) -> WeightRecovery:
    """Recover weights maximizing the smallest strict slack before snapping.

    The margin LP runs first; its optimum is at least eps whenever the forest
    is LP-feasible.  If its snapped weights miss the forest, the direct and
    exhaustive stages of recover_weights follow.
    """
    return _recover(instance, forest, eps, big_M, ("margin", "direct"), spf.GRID_LIMIT)
