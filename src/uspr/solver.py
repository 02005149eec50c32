"""Optimization engines and the routing-structure constructions.

`benders_solve` runs the decomposition loop: an integer master enumerates
candidate routing forests in nondecreasing total-load order, and the weight
recovery subproblem decides whether each candidate is realizable as a unique
shortest-path system.  Unrealizable candidates are excluded with no-good
cuts, on the bindings of an irreducible infeasible subsystem (or, when only
the grid fails, on the union of those of the branch-and-bound leaves);
because candidates arrive best-first, the first realizable one is optimal.
`brute_force_solve` is the independent reference: it enumerates every
weight vector on the grid and keeps the best capacity-feasible
unique-routing outcome.  Both judge a routing only through `spf`.

The master (`master_search`) is one best-first search over partial
assignments of a path to each demand.  It drops a partial assignment as
soon as a link load passes its capacity or two of its paths, of any
origins, disagree on a segment.  The segment rule is sound.  Let a routed
s->t path P visit u and then v, under positive weights that make P the
unique shortest s->t path.  Another u->v path Q no longer than P's u->v
part would turn P into an s->t walk no longer than P; with its cycles
removed, that walk is a second shortest s->t path or a shorter one.  So
P's u->v part is the unique shortest u->v path, every routed path through
u and then v takes it, and all of them leave u on the same link.  Within
one origin this gives the rule that each node is entered on one link.
No-good cuts are tested once per complete assignment, on the forest just
before it is emitted.

Every `Optimal` answer, from either solver, is re-verified through the
routing oracle: its weights must route exactly its forest, within capacity.

The module also implements the structure mappings used by the property
suites: loop stripping and path extraction by one forward walk per demand,
the demand-to-origin mapping (a forest of the demands' paths), its inverse
(each demand's path as its link set, from a forest `spf.forest_violations`
accepts), and the sub-path check.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Collection, Iterator, Mapping, Sequence

from . import lp, spf
from .instance import Instance
from .rational import grid_points, grid_size, write_json
from .spf import RoutingForest, WeightVector


class ConservationError(ValueError):
    """Flow conservation violated where an operation requires it."""


class RoutingLoopError(ValueError):
    pass


class SubpathOptimalityError(ValueError):
    def __init__(self, origin: str, node: str):
        self.origin = origin
        self.node = node
        super().__init__(
            f"demands from origin {origin!r} enter node {node!r} on different links"
        )


class MalformedForestError(ValueError):
    pass


@dataclass(frozen=True)
class DemandRouting:
    """Per-demand link selections, aligned with the instance demand order."""

    links: tuple[frozenset[tuple[str, str]], ...]


@dataclass(frozen=True)
class Diagnostics:
    """`nodes_explored` counts, for `benders_solve`, the complete demand->path
    assignments the master reached, those a cut removes included; for
    `brute_force_solve`, the weight vectors."""

    iterations: int = 0
    cuts_added: int = 0
    nodes_explored: int = 0
    wall_time: float = 0.0
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Solution:
    status: str  # "Optimal" | "Infeasible" | "BoundsExhausted"
    weights: WeightVector | None
    forest: RoutingForest | None
    objective: Fraction | None
    diagnostics: Diagnostics


@dataclass(frozen=True)
class SolverConfig:
    """Limits of a decomposition solve.  Both are checked before each master
    candidate, so a weight recovery that has started always finishes and
    can overrun `time_limit`.  eps and big_M are not settable: every solve
    derives them from the instance (`models.resolve_params`).  Weight
    recovery's branch-node budget is the constant `lp.MAX_BRANCH_NODES`."""

    node_limit: int | None = None
    time_limit: float | None = None

    def __post_init__(self) -> None:
        if self.node_limit is not None and self.node_limit < 0:
            raise ValueError(f"node_limit must be >= 0, got {self.node_limit}")
        if self.time_limit is not None and not self.time_limit >= 0:  # NaN fails too
            raise ValueError(f"time_limit must be >= 0, got {self.time_limit}")


# ---------------------------------------------------------------------------
# Demand-routing checks and constructions.


def routing_objective(instance: Instance, routing: DemandRouting) -> Fraction:
    total = Fraction(0)
    for demand, links in zip(instance.demands, routing.links):
        total += demand.bandwidth * len(links)
    return total


def _balance_violations(instance: Instance, routing: DemandRouting) -> list[str]:
    out = []
    if len(routing.links) != len(instance.demands):
        return [
            f"routing covers {len(routing.links)} demands, instance has "
            f"{len(instance.demands)}"
        ]
    link_set = set(instance.link_pairs())
    for k, (demand, links) in enumerate(zip(instance.demands, routing.links)):
        net: Counter[str] = Counter()
        for pair in sorted(links):
            if pair not in link_set:
                out.append(f"demand {k}: {pair} is not an instance link")
            net[pair[1]] += 1
            net[pair[0]] -= 1
        ends = {demand.origin: -1, demand.destination: 1}
        for node in instance.nodes:
            expected = ends.get(node, 0)
            if net[node] != expected:
                out.append(
                    f"demand {k}: balance at {node!r} is {net[node]}, "
                    f"expected {expected}"
                )
    return out


def _walks(instance: Instance, routing: DemandRouting) -> list[list[str]]:
    """Each demand's loop-free origin -> destination path through its
    selection; raises ConservationError on an unbalanced selection.

    The walk starts at the origin and leaves each node on its smallest
    unused link.  When it re-enters a node already on its path, it cuts that
    loop out.  It stops at the destination.  Every node it enters, other
    than the destination, has as many selected links out as in (the origin
    has one more), so an unused link out is always left and the walk
    reaches the destination.  The links it leaves off its path are balanced
    at every node, so they are directed cycles.
    """
    problems = _balance_violations(instance, routing)
    if problems:
        raise ConservationError("; ".join(problems))
    walks = []
    for demand, links in zip(instance.demands, routing.links):
        unused: dict[str, list[str]] = {}
        for i, j in sorted(links, reverse=True):
            unused.setdefault(i, []).append(j)
        path = [demand.origin]
        while path[-1] != demand.destination:
            node = unused[path[-1]].pop()
            if node in path:
                del path[path.index(node) + 1 :]
            else:
                path.append(node)
        walks.append(path)
    return walks


def strip_loops(instance: Instance, routing: DemandRouting) -> DemandRouting:
    """Remove every directed cycle from each demand's link selection.

    Requires flow conservation (cycles allowed).  Each demand keeps the
    path of its walk (`_walks`), so the result is balanced and the objective
    strictly decreases whenever something was removed.  Where cycles touch
    the path, several loop-free paths are left, and the walk's is kept.
    """
    return DemandRouting(tuple(frozenset(zip(p, p[1:])) for p in _walks(instance, routing)))


def routing_paths(instance: Instance, routing: DemandRouting) -> dict[tuple[str, str], tuple[str, ...]]:
    """Per-demand node sequences.  Raises ConservationError on an unbalanced
    selection and RoutingLoopError on a balanced one that holds a directed
    cycle: one with more links than its walk (`_walks`)."""
    out = {}
    walks = _walks(instance, routing)
    for k, (demand, links, path) in enumerate(zip(instance.demands, routing.links, walks)):
        if len(links) != len(path) - 1:
            raise RoutingLoopError(f"demand {k}: the selection holds a directed cycle")
        out[(demand.origin, demand.destination)] = tuple(path)
    return out


@dataclass(frozen=True)
class SubpathViolation:
    origin: str
    node: str
    entering_links: tuple[tuple[str, str], ...]


def subpath_optimality_check(instance: Instance, routing: DemandRouting) -> list[SubpathViolation]:
    """Nodes entered on more than one link by demands sharing an origin."""
    out = []
    for origin in instance.origins():
        entering: dict[str, set[tuple[str, str]]] = {}
        for demand, links in zip(instance.demands, routing.links):
            if demand.origin != origin:
                continue
            for i, j in links:
                entering.setdefault(j, set()).add((i, j))
        for node in instance.nodes:
            if node == origin:
                continue
            used = entering.get(node, set())
            if len(used) > 1:
                out.append(SubpathViolation(origin, node, tuple(sorted(used))))
    return out


def demand_routing_violations(instance: Instance, routing: DemandRouting) -> list[str]:
    """Constraint check for the relaxed demand model: conservation, capacity,
    sub-path optimality."""
    out = _balance_violations(instance, routing)
    loads: dict[tuple[str, str], Fraction] = {}
    for demand, links in zip(instance.demands, routing.links):
        for pair in links:
            loads[pair] = loads.get(pair, Fraction(0)) + demand.bandwidth
    for link in instance.links:
        load = loads.get((link.tail, link.head), Fraction(0))
        if load > link.capacity:
            out.append(
                f"link ({link.tail!r}, {link.head!r}): load {load} exceeds "
                f"capacity {link.capacity}"
            )
    for v in subpath_optimality_check(instance, routing):
        out.append(
            f"origin {v.origin!r}: node {v.node!r} entered via {len(v.entering_links)} links"
        )
    return out


def demand_to_origin(instance: Instance, routing: DemandRouting) -> RoutingForest:
    """The forest of the demands' paths.  Requires a loop-free,
    conservation-satisfying, sub-path-optimal routing."""
    paths = routing_paths(instance, routing)
    violations = subpath_optimality_check(instance, routing)
    if violations:
        v = violations[0]
        raise SubpathOptimalityError(v.origin, v.node)
    forest = RoutingForest(paths)
    leftover = spf.forest_violations(instance, forest)
    if leftover:
        raise RuntimeError(f"internal: aggregated forest invalid: {leftover}")
    return forest


def origin_to_demand(instance: Instance, forest: RoutingForest) -> DemandRouting:
    """Each demand's path, as its link set.  A forest that
    `spf.forest_violations` rejects raises MalformedForestError listing the
    violations."""
    violations = spf.forest_violations(instance, forest)
    if violations:
        raise MalformedForestError("; ".join(violations))
    paths = [forest.paths[(d.origin, d.destination)] for d in instance.demands]
    return DemandRouting(tuple(frozenset(zip(p, p[1:])) for p in paths))


# ---------------------------------------------------------------------------
# Master enumeration.


@dataclass(frozen=True)
class NoGoodCut:
    """Forbid every forest agreeing with all (origin, link, used) bindings."""

    bindings: frozenset[tuple[str, tuple[str, str], int]]


def cut_matches(cut: NoGoodCut, used_by_origin: Mapping[str, Collection[tuple[str, str]]]) -> bool:
    """Whether the cut forbids a forest whose origin s uses the links
    `used_by_origin[s]`, as `RoutingForest.used_links(s)` reads them."""
    for s, pair, value in cut.bindings:
        if (pair in used_by_origin.get(s, ())) != bool(value):
            return False
    return True


def segment_conflict(next_hop: Mapping, path: Sequence) -> bool:
    """Whether `path` leaves a node u toward a later node v of the path on
    another link than the one `next_hop[u][v]` records.

    `next_hop[u][v]` is the node after u on routed paths that visit u and
    then v.  In a realizable routing all such paths agree on it (see the
    module docstring), so a path that disagrees cannot join the routing.
    Nodes may be any hashable labels.
    """
    for a in range(len(path) - 1):
        row = next_hop.get(path[a])
        if row:
            step = path[a + 1]
            for v in path[a + 1 :]:
                hop = row.get(v)
                if hop is not None and hop != step:
                    return True
    return False


def add_segments(next_hop: Mapping, path: Sequence) -> dict:
    """A copy of the table that also records every segment of `path`.  The
    rows of nodes the path does not leave are shared, not copied."""
    table = dict(next_hop)
    for a in range(len(path) - 1):
        u = path[a]
        table[u] = {**table.get(u, {}), **dict.fromkeys(path[a + 1 :], path[a + 1])}
    return table


def master_search(
    instance: Instance,
    cuts: Sequence[NoGoodCut] = (),
    incumbent_bound: Fraction | None = None,
    stats: dict | None = None,
) -> Iterator[RoutingForest]:
    """Stream every capacity-feasible, segment-consistent routing forest,
    best objective first.

    One best-first search runs over partial assignments of a path to each
    demand, the demands grouped by origin in `instance.origins()` order and
    in instance order within an origin.  A state holds the integer link
    loads (bandwidths scaled by the lcm of their denominators) and the
    `next_hop[u][v]` table of its paths' segments.  A path may extend a
    state only if no link load passes floor(capacity * scale) and
    `segment_conflict` finds no disagreement with the table.  Dropping the
    other assignments loses no realizable routing: every subpath of a unique
    shortest path is the unique shortest path between its end nodes, so all
    routed paths through u and then v share one u->v segment, whatever the
    weights.  The same holds for the LP of `lp.path_length_system`, whose
    potentials are tight along the forest and at most the true distances:
    a forest the rule rejects has an infeasible system.

    A state's bound is its load plus each remaining demand's minimum load
    (its hop distance times its bandwidth).  A demand's paths come in
    nondecreasing load, so a pop pushes only the next sibling and the first
    child (Lawler's rule), and complete assignments leave the heap in
    nondecreasing load; ties go to the deeper state.  A pushed path is
    checked only when it is popped, so no path whose bound passes the last
    emitted load is checked.  `stats["combinations"]` counts the complete
    assignments reached, those a cut removes included.  Cuts are tested
    only on emission, against the complete forest: `cuts` is read live, so
    entries appended while iterating suppress later candidates.  An empty
    stream means the master is infeasible.
    """
    if stats is None:
        stats = {}
    stats.setdefault("combinations", 0)
    origins = instance.origins()
    cg = spf.CompiledGraph(instance)
    index = cg.index
    demands = [d for s in origins for d in instance.demands_from(s)]
    # Loads are integers in 1/scale units, so a load passes a capacity
    # exactly when it passes floor(capacity * scale).
    scale = math.lcm(*(d.bandwidth.denominator for d in demands))
    units = [int(d.bandwidth * scale) for d in demands]
    caps = [math.floor(link.capacity * scale) for link in instance.links]
    dists: dict[str, list[int]] = {}
    streams = []
    for d in demands:
        if d.destination not in dists:
            dists[d.destination] = spf.hop_distances(cg, index[d.destination])
        dist = dists[d.destination]
        if dist[index[d.origin]] == len(instance.nodes):
            return
        streams.append(spf.PathStream(cg, dist, index[d.origin], index[d.destination]))
    n_demands = len(demands)
    suffix = [0] * (n_demands + 1)
    for k in range(n_demands - 1, -1, -1):
        suffix[k] = suffix[k + 1] + units[k] * dists[demands[k].destination][index[demands[k].origin]]
    limit = None if incumbent_bound is None else incumbent_bound * scale

    def forest(state) -> RoutingForest:
        paths: dict[tuple[str, str], tuple[str, ...]] = {}
        while state[0] is not None:
            _, k, j = state[:3]
            paths[(demands[k].origin, demands[k].destination)] = tuple(
                instance.nodes[v] for v in streams[k].get(j)[0]
            )
            state = state[0]
        return RoutingForest(paths)

    # A state is (parent, demand k, path j, load, link loads, next-hop table);
    # a heap entry (bound, -k, tiebreak, parent, k, j) stands for extending
    # `parent` by path j of demand k, which is checked when it is popped.
    # The root is k = -1.
    heap: list = []
    counter = itertools.count()

    def push(parent, k: int, j: int) -> None:
        path = streams[k].get(j)
        if path is not None:
            bound = parent[3] + units[k] * len(path[1]) + suffix[k + 1]
            heapq.heappush(heap, (bound, -k, next(counter), parent, k, j))

    root = (None, -1, -1, 0, [0] * len(caps), {})
    heap.append((suffix[0], 1, next(counter), None, -1, -1))
    while heap:
        bound, _, _, parent, k, j = heapq.heappop(heap)
        if limit is not None and bound > limit:
            return
        if parent is None:
            state = root
        else:
            push(parent, k, j + 1)
            nodes, links = streams[k].get(j)
            loads, unit = parent[4], units[k]
            if any(loads[e] + unit > caps[e] for e in links) or segment_conflict(parent[5], nodes):
                continue
            load = parent[3] + unit * len(links)
            if k + 1 < n_demands:
                loads = list(loads)
                for e in links:
                    loads[e] += unit
                state = (parent, k, j, load, loads, add_segments(parent[5], nodes))
            else:
                state = (parent, k, j, load, None, None)
        if k + 1 == n_demands:
            stats["combinations"] += 1
            candidate = forest(state)
            used = {s: candidate.used_links(s) for s in origins}
            if not any(cut_matches(cut, used) for cut in cuts):
                yield candidate
            continue
        push(state, k + 1, 0)


# ---------------------------------------------------------------------------
# Solvers.


def _verified_solution(
    instance: Instance,
    weights: WeightVector,
    forest: RoutingForest,
    diagnostics: Diagnostics,
) -> Solution:
    routed = spf.routing_from_weights(instance, weights)
    if routed != forest:
        raise RuntimeError("internal: the weights do not route the forest")
    if spf.check_capacity(instance, routed):
        raise RuntimeError("internal: accepted forest violates capacity")
    objective = spf.evaluate_objective(instance, routed)
    return Solution("Optimal", weights, routed, objective, diagnostics)


def benders_solve(instance: Instance, config: SolverConfig | None = None) -> Solution:
    """Decomposition solve: best-first master candidates, exact weight
    recovery, no-good cuts on failures.  The first recovered candidate is
    optimal.  `details` counts `lp_solves` (recovery nodes solved; those past
    one per iteration are branch nodes) and `lp_pivots`, and names the
    `reason` of a BoundsExhausted answer: "time_limit", "node_limit" or
    "branch_limit"."""
    config = config or SolverConfig()
    started = time.perf_counter()
    cuts: list[NoGoodCut] = []
    stats: dict = {}
    stream = master_search(instance, cuts, stats=stats)
    iterations = 0
    lp_solves = lp_pivots = 0

    def diagnostics(**extra) -> Diagnostics:
        return Diagnostics(
            iterations=iterations,
            cuts_added=len(cuts),
            nodes_explored=stats.get("combinations", 0),
            wall_time=time.perf_counter() - started,
            details={
                "lp_solves": lp_solves,
                "lp_pivots": lp_pivots,
                **extra,
            },
        )

    def exhausted(reason: str) -> Solution:
        return Solution("BoundsExhausted", None, None, None, diagnostics(reason=reason))

    while True:
        if config.time_limit is not None and time.perf_counter() - started >= config.time_limit:
            return exhausted("time_limit")
        if config.node_limit is not None and iterations >= config.node_limit:
            return exhausted("node_limit")
        try:
            candidate = next(stream)
        except StopIteration:
            return Solution("Infeasible", None, None, None, diagnostics())
        iterations += 1
        recovery = lp.recover_weights(instance, candidate)
        lp_solves += recovery.lp_solves
        lp_pivots += recovery.pivots
        if recovery.ok:
            return _verified_solution(instance, recovery.weights, candidate, diagnostics())
        if recovery.status == "branch_limit":
            return exhausted("branch_limit")
        cuts.append(NoGoodCut(recovery.bindings))


def brute_force_solve(instance: Instance, grid_limit: int = spf.GRID_LIMIT) -> Solution:
    """Exhaustive reference: the best capacity-feasible unique routing over
    every admissible weight vector, lexicographically over the fixed link
    order, keeping the first vector attaining the minimum objective.

    The forests come from `spf.unique_grid_routings`.  It lists each
    demand's candidate paths once, and decides each origin's outcome once
    per grid setting of C_s, the links of its demands' candidates:
    sum_s P^|C_s| settings (P grid points), rather than one per vector,
    as a bit mask of outcomes per block of settings.  The candidates'
    lengths are updated link by link; no setting runs Dijkstra, except on
    a one-point grid.  The sweep skips every set of vectors whose blocks
    can route no new forest.  It yields each distinct forest once, with
    its first vector, in the order of those vectors; so keeping the first
    strictly better capacity-feasible forest, judged by
    `spf.check_capacity` and `spf.evaluate_objective`, keeps the first
    vector of the minimum.  The answer is re-verified
    through the oracle.  `iterations` and `nodes_explored` count the P^|L|
    vectors decided; `details` gives P and the sweep's `settings` and
    `visited` counters.
    """
    started = time.perf_counter()
    pairs = instance.link_pairs()
    best = None  # (objective, combo, forest)
    stats: dict = {}
    for combo, forest in spf.unique_grid_routings(instance, grid_limit, stats):
        if spf.check_capacity(instance, forest):
            continue
        objective = spf.evaluate_objective(instance, forest)
        if best is None or objective < best[0]:
            best = (objective, combo, forest)
    n_points = grid_size(instance.w_min, instance.w_max, instance.weight_resolution)
    evaluated = n_points ** len(pairs)
    diagnostics = Diagnostics(
        iterations=evaluated,
        cuts_added=0,
        nodes_explored=evaluated,
        wall_time=time.perf_counter() - started,
        details={"grid_points": n_points, **stats},
    )
    if best is None:
        return Solution("Infeasible", None, None, None, diagnostics)
    _objective, combo, forest = best
    points = grid_points(instance.w_min, instance.w_max, instance.weight_resolution)
    weights = WeightVector({pair: points[i] for pair, i in zip(pairs, combo)})
    return _verified_solution(instance, weights, forest, diagnostics)


# ---------------------------------------------------------------------------
# Solution export.


def solution_to_json(instance: Instance, solution: Solution) -> str:
    forest, d = solution.forest, solution.diagnostics
    return write_json({
        "status": solution.status,
        "objective": solution.objective,
        "max_utilization": None if forest is None else spf.max_utilization(instance, forest),
        "weights": None if solution.weights is None else spf.weight_records(solution.weights),
        "paths": None if forest is None else [
            {"origin": dm.origin, "destination": dm.destination,
             "path": forest.paths[(dm.origin, dm.destination)]}
            for dm in instance.demands
        ],
        "diagnostics": {
            "iterations": d.iterations,
            "cuts_added": d.cuts_added,
            "nodes_explored": d.nodes_explored,
            "wall_time": round(Fraction(d.wall_time), 6),
            "details": d.details,
        },
    })
