"""Shared builders for the test suite.

Instances used across modules: a 2-node single link, a triangle with a
shortcut, the same triangle on the coarse grid {2, 5}, the 4-node diamond
(two parallel 2-hop routes), and seeded random instances kept small enough
for exhaustive grid enumeration.  Test references for the models module:
`model_counts` and `ReferenceBuilder`; for the path lister:
`simple_paths`; for the grid oracle's per-origin tables:
`reference_origin_table`; for the DBM<->OBM mappings: `all_routings`,
every sub-path-optimal routing of a small instance.  The shortest-path
length and count references, the LP reader, the linearization check and
the structure mappings themselves are in `oracles.py`.
"""

from __future__ import annotations

import itertools
import random
from array import array
from fractions import Fraction

from oracles import DemandRouting, subpath_optimality_check
from uspr import models, spf
from uspr.instance import Demand, Instance, Link, generate_random_instance
from uspr.models import LinearModel, SizeTable


def mk_instance(nodes, links, demands, w_min=1, w_max=10, step=1) -> Instance:
    return Instance(
        nodes=tuple(nodes),
        links=tuple(Link(t, h, Fraction(c)) for t, h, c in links),
        demands=tuple(Demand(o, d, Fraction(b)) for o, d, b in demands),
        w_min=Fraction(w_min),
        w_max=Fraction(w_max),
        weight_resolution=Fraction(step),
    )


def two_node(cap=10) -> Instance:
    return mk_instance("ab", [("a", "b", cap)], [("a", "b", 1)])


def diamond(w_min=1, w_max=10, cap=10) -> Instance:
    return mk_instance(
        ["s", "a", "b", "t"],
        [("s", "a", cap), ("a", "t", cap), ("s", "b", cap), ("b", "t", cap)],
        [("s", "t", 1)],
        w_min=w_min,
        w_max=w_max,
    )


def triangle(w_min=1, w_max=10) -> Instance:
    return mk_instance(
        ["s", "a", "t"],
        [("s", "a", 10), ("a", "t", 10), ("s", "t", 10)],
        [("s", "t", 1)],
        w_min=w_min,
        w_max=w_max,
    )


def coarse_grid_triangle() -> Instance:
    # Grid {2, 5}: the two-hop route needs 2 + 2 < 5, a gap of 1 that
    # eps = resolution = 3 would forbid.  The optimum is 4.
    return mk_instance(
        ["s", "a", "t"],
        [("s", "a", 10), ("a", "t", 10), ("s", "t", 1)],
        [("s", "t", 2)],
        w_min=2, w_max=5, step=3,
    )


def diamond_chain(n: int, weight=1) -> Instance:
    """n diamonds in a row on the one-point grid {weight}: the demand
    v0 -> v<n> has 2^n simple paths, all of one length."""
    nodes = [f"v{i}" for i in range(n + 1)]
    links = []
    for i in range(n):
        for mid in (f"a{i}", f"b{i}"):
            nodes.append(mid)
            links += [(f"v{i}", mid, 10), (mid, f"v{i + 1}", 10)]
    return mk_instance(nodes, links, [("v0", f"v{n}", 1)], w_min=weight, w_max=weight)


def path_graph(n=3, cap=10, w_max=10) -> Instance:
    nodes = [f"p{i}" for i in range(n)]
    links = [(nodes[i], nodes[i + 1], cap) for i in range(n - 1)]
    return mk_instance(nodes, links, [(nodes[0], nodes[-1], 1)], w_max=w_max)


def small_random(seed: int, max_nodes: int = 5, max_grid: int = 3,
                 combo_cap: int = 2500, tight: bool = False) -> Instance:
    """Seeded small instance whose full weight grid stays enumerable."""
    n = 2 + seed % (max_nodes - 1)
    degree = min(1.0 + (seed % 4) * 0.25, float(n - 1))
    demands = min(1 + seed % 3, n * (n - 1))
    pts = 1 + (seed % max_grid)
    links_est = max(n, round(degree * n))
    while pts > 1 and pts**links_est > combo_cap:
        pts -= 1
    cap_range = (2, 5) if tight else (4, 15)
    return generate_random_instance(
        n, degree, demands,
        capacity_range=cap_range, demand_range=(1, 4),
        w_min=1, w_max=pts, weight_resolution=1, seed=seed,
    )


def out_links_of(instance: Instance) -> dict[str, list[Link]]:
    """Each node's out-links, in instance link order."""
    adj: dict[str, list[Link]] = {n: [] for n in instance.nodes}
    for link in instance.links:
        adj[link.tail].append(link)
    return adj


def random_tree_routing(instance: Instance, rng: random.Random) -> DemandRouting:
    """A random loop-free sub-path-optimal routing.

    Per origin, grow a random in-link tree from the origin until every node
    reachable is covered, then read each demand's path off the tree.  One
    shared tree per origin keeps sub-path optimality by construction.
    """
    out_links = out_links_of(instance)
    inlink_by_origin: dict[str, dict[str, str]] = {}
    for origin in instance.origins():
        inlink: dict[str, str] = {}
        reached = {origin}
        frontier = [origin]
        while frontier:
            node = frontier[rng.randrange(len(frontier))]
            frontier.remove(node)
            heads = [l.head for l in out_links[node] if l.head not in reached]
            rng.shuffle(heads)
            for head in heads:
                if head in reached:
                    continue
                inlink[head] = node
                reached.add(head)
                frontier.append(head)
            # nodes may be re-offered by later frontier entries; that is fine
        inlink_by_origin[origin] = inlink
    selections = []
    for demand in instance.demands:
        inlink = inlink_by_origin[demand.origin]
        node = demand.destination
        links = []
        while node != demand.origin:
            prev = inlink[node]
            links.append((prev, node))
            node = prev
        selections.append(frozenset(links))
    return DemandRouting(tuple(selections))


def simple_paths(instance: Instance, origin: str, destination: str) -> list[tuple[str, ...]]:
    """All simple paths origin -> destination, in DFS order (out-links in
    instance order).  The reference for `spf.PathStream`, which lists
    the same paths by hop count; it recurses once per hop, so small
    instances only."""
    out_links = out_links_of(instance)
    result: list[tuple[str, ...]] = []
    path = [origin]
    on_path = {origin}

    def visit(node: str) -> None:
        if node == destination:
            result.append(tuple(path))
            return
        for link in out_links[node]:
            if link.head in on_path:
                continue
            path.append(link.head)
            on_path.add(link.head)
            visit(link.head)
            path.pop()
            on_path.remove(link.head)

    visit(origin)
    return result


def reference_origin_table(
    cg: spf.CompiledGraph, point_units: list[int], src: int, dests: list[int], axis: list[int]
) -> tuple[array, list]:
    """`spf._origin_table` by one Dijkstra run and walk-back per setting:
    the reference its candidate-path sweep is checked against.  Settings
    run lexicographically over `axis`, the other links at the first grid
    point; id 0 is "some demand unreachable or not unique"."""
    ids: dict = {None: 0}
    table = array("I")
    wunits = [point_units[0]] * len(cg.tails)
    for setting in itertools.product(point_units, repeat=len(axis)):
        for e, w in zip(axis, setting):
            wunits[e] = w
        _dist, counts, pred = spf.dijkstra_units(cg, wunits, src)
        outcome: tuple | None = ()
        for dest in dests:
            if counts[dest] != 1:
                outcome = None
                break
            outcome += (tuple(spf.walk_back_unique(cg, counts, pred, src, dest)),)
        table.append(ids.setdefault(outcome, len(ids)))
    return table, list(ids)


def all_routings(instance: Instance, cap: int = 5000) -> list[DemandRouting]:
    """Every sub-path-optimal loop-free routing (per-demand simple paths,
    filtered for per-origin in-link consistency).  Exhaustive; small use only."""
    per_demand = []
    for d in instance.demands:
        paths = simple_paths(instance, d.origin, d.destination)
        if not paths:
            return []
        per_demand.append(paths)
    total = 1
    for paths in per_demand:
        total *= len(paths)
        if total > cap:
            raise ValueError(f"routing space too large ({total}+ combos)")
    out = []
    for combo in itertools.product(*per_demand):
        links = tuple(
            frozenset(zip(nodes, nodes[1:])) for nodes in combo
        )
        routing = DemandRouting(links)
        if not subpath_optimality_check(instance, routing):
            out.append(routing)
    return out


def assert_endpoint_conditions(instance: Instance, routing: DemandRouting, forest) -> None:
    """Endpoint flow conditions: exactly one outgoing selection at each
    demand origin with none incoming, the mirror at destinations, and zero
    tree inflow at each root."""
    for demand, links in zip(instance.demands, routing.links):
        out_at_origin = sum(1 for (i, _) in links if i == demand.origin)
        in_at_origin = sum(1 for (_, j) in links if j == demand.origin)
        assert (out_at_origin, in_at_origin) == (1, 0)
        in_at_dest = sum(1 for (_, j) in links if j == demand.destination)
        out_at_dest = sum(1 for (i, _) in links if i == demand.destination)
        assert (in_at_dest, out_at_dest) == (1, 0)
    for origin, tree in spf.origin_flows(instance, forest).items():
        inflow = sum((f for (i, j), f in tree.items() if j == origin), Fraction(0))
        outflow = sum((f for (i, j), f in tree.items() if i == origin), Fraction(0))
        assert inflow == 0
        assert outflow == instance.origin_bandwidth(origin)


def random_cycle(instance: Instance, rng: random.Random, avoid) -> list[tuple[str, str]] | None:
    """A directed cycle whose links avoid the given set, or None."""
    out_links = out_links_of(instance)
    for _ in range(30):
        node = instance.nodes[rng.randrange(len(instance.nodes))]
        walk = [node]
        links: list[tuple[str, str]] = []
        ok = True
        while True:
            choices = [l for l in out_links[walk[-1]] if (l.tail, l.head) not in avoid]
            if not choices:
                ok = False
                break
            link = choices[rng.randrange(len(choices))]
            pair = (link.tail, link.head)
            if pair in links:
                ok = False
                break
            links.append(pair)
            walk.append(link.head)
            if link.head in walk[:-1]:
                at = walk.index(link.head)
                cycle_links = links[at:]
                return cycle_links
            if len(walk) > 3 * len(instance.nodes):
                ok = False
                break
        if not ok:
            continue
    return None


def model_counts(model: LinearModel) -> SizeTable:
    """Actual per-family counts of a built model, keyed like `size_report`:
    the reference its closed-form tables are checked against."""
    variables: dict[str, int] = {}
    for v in model.variables:
        fam = models._family(v.name, models._VAR_FAMILY_LABEL)
        variables[fam] = variables.get(fam, 0) + 1
    constraints: dict[str, int] = {}
    for c in model.constraints:
        fam = models._family(c.name, models._ROW_FAMILY_LABEL)
        constraints[fam] = constraints.get(fam, 0) + 1
    return SizeTable(model.formulation, variables, constraints)


class ReferenceBuilder(models._ModelBuilder):
    """`_ModelBuilder` whose `row` orders terms itself: it sorts a row's
    terms by declaration position and drops zero coefficients, as the
    builder once did for every row.  Models built with it (patched in for
    `models._ModelBuilder` and `lp._ModelBuilder`) are the reference the
    emitted term order is checked against."""

    def __init__(self, *args, **kwargs) -> None:
        self.index: dict[str, int] = {}
        super().__init__(*args, **kwargs)

    def var(self, name, kind, lb, ub):
        self.index[name] = len(self.variables)
        return super().var(name, kind, lb, ub)

    def row(self, name, terms, sense, rhs):
        coeffs = dict(terms)
        if self.fixed:
            bound = [v for v in coeffs if type(v) is tuple]
            for v in bound:
                if v[2]:
                    rhs -= coeffs[v]
                del coeffs[v]
            self.bindings[name] = frozenset(bound)
        ordered = tuple(
            (v, c) for v in sorted(coeffs, key=self.index.__getitem__) if (c := coeffs[v])
        )
        self.constraints.append(models.Constraint(name, ordered, sense, rhs))
