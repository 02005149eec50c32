"""Exact shortest-path oracle: lengths, uniqueness, routing, evaluation.

All decisions are made in exact arithmetic.  Weights live on the instance's
resolution grid; internally they are scaled to integers (by the common
denominator of the weight values), so distance comparisons and uniqueness
checks never involve an epsilon.

Uniqueness is decided by counting shortest paths, capped at two, in the
same heap pass that finds the distances (`dijkstra_units`).  With strictly
positive weights every node's shortest-path predecessors settle before it,
so its count is final when it settles: a strictly shorter path copies its
tail's count, an equal one makes it two.  The pass also records the link
that last reached each node, which the unique path walks back along.  The
counts are validated against a second pass over the tight-link DAG
(`count_paths_capped`) and against exhaustive path enumeration in the tests.

A routing forest is its demands' paths and nothing else.  An origin uses a
link when one of its demands' paths does, and its flow there is the summed
bandwidth of those demands (`origin_flows`, the one place flows are
derived).  This module is the one place that judges a forest:
`forest_violations` checks its paths, and `check_capacity` and
`evaluate_objective` evaluate it.

The weight-grid enumeration (`unique_grid_routings`) is factored by origin:
an origin's routing depends only on the weights of the links that can lie
on its paths, so each origin is routed once per grid setting of those links
and every grid vector combines the tabulated outcomes.  A depth-first sweep
over the vectors skips each prefix below which no new forest lies.  It
yields each distinct forest once, with the first grid vector that routes it.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .instance import Demand, Instance
from .rational import (
    format_number, grid_points, grid_size, on_grid, read_json, read_records, snap_to_grid,
    write_json,
)


class InvalidWeightsError(ValueError):
    """Weight vector does not fit the instance (missing links or off-grid)."""


class UnreachablePathError(ValueError):
    def __init__(self, origin: str, destination: str):
        self.origin = origin
        self.destination = destination
        super().__init__(f"no path from {origin!r} to {destination!r}")


class UnreachableDemandError(ValueError):
    def __init__(self, demand: Demand):
        self.demand = demand
        super().__init__(
            f"demand ({demand.origin!r} -> {demand.destination!r}) has no routing path"
        )


class NonUniqueRoutingError(ValueError):
    def __init__(self, demand: Demand):
        self.demand = demand
        super().__init__(
            f"demand ({demand.origin!r} -> {demand.destination!r}) has two or more "
            "shortest paths"
        )


class ZeroCapacityError(ValueError):
    pass


class GridSearchLimitError(RuntimeError):
    """Exhaustive grid enumeration would exceed the combination limit."""


GRID_LIMIT = 200_000  # default combination limit of exhaustive grid enumeration


@dataclass(frozen=True)
class WeightVector:
    """Per-link weights; each value must be a grid point of its instance."""

    values: dict[tuple[str, str], Fraction]


@dataclass(frozen=True)
class PathLengths:
    """Shortest-path lengths from one origin; unreachable nodes are absent."""

    origin: str
    dist: dict[str, Fraction]


@dataclass(frozen=True)
class RoutingForest:
    """Per-demand routing paths: `paths[(s, t)]` is the node sequence routing
    the demand s -> t.  Origin s's tree is the union of its demands' paths;
    `origin_flows` sums their bandwidths per link."""

    paths: dict[tuple[str, str], tuple[str, ...]]

    def used_links(self, origin: str) -> set[tuple[str, str]]:
        """The links on the paths of `origin`'s demands."""
        return {
            pair for (s, _t), path in self.paths.items() if s == origin
            for pair in zip(path, path[1:])
        }


def weight_violations(instance: Instance, weights: WeightVector) -> list[str]:
    pairs = instance.link_pairs()
    out = [f"link {pair}: missing weight" for pair in pairs if pair not in weights.values]
    known = set(pairs)
    for pair, value in weights.values.items():
        if pair not in known:
            out.append(f"link {pair}: not an instance link")
        elif not on_grid(value, instance.w_min, instance.w_max, instance.weight_resolution):
            out.append(f"link {pair}: weight {value} is not an admissible grid point")
    return out


def _check_weights(instance: Instance, weights: WeightVector) -> None:
    problems = weight_violations(instance, weights)
    if problems:
        raise InvalidWeightsError("; ".join(problems))


# ---------------------------------------------------------------------------
# Compiled integer-unit core.  Shared by the public operations and by the
# weight-grid enumeration, which calls it once per origin and grid setting of
# that origin's relevant links.


class CompiledGraph:
    """Index-based adjacency view of an instance, for the hot paths."""

    __slots__ = ("nodes", "index", "tails", "heads", "out_links", "in_links")

    def __init__(self, instance: Instance):
        self.nodes = instance.nodes
        self.index = {n: i for i, n in enumerate(instance.nodes)}
        self.tails = [self.index[l.tail] for l in instance.links]
        self.heads = [self.index[l.head] for l in instance.links]
        n = len(instance.nodes)
        self.out_links: list[list[int]] = [[] for _ in range(n)]
        self.in_links: list[list[int]] = [[] for _ in range(n)]
        for e, (t, h) in enumerate(zip(self.tails, self.heads)):
            self.out_links[t].append(e)
            self.in_links[h].append(e)


def scale_weights(instance: Instance, weights: WeightVector) -> tuple[list[int], int]:
    """Weights as integers in 1/scale units, ordered like instance.links."""
    ordered = [weights.values[(l.tail, l.head)] for l in instance.links]
    scale = math.lcm(*(w.denominator for w in ordered))
    return [int(w * scale) for w in ordered], scale


def dijkstra_units(cg: CompiledGraph, wunits: list[int], src: int) -> tuple[list, list, list]:
    """Exact integer Dijkstra that also decides uniqueness, in one heap pass.

    Returns (dist, counts, pred).  dist is None where unreachable.  counts
    holds each node's shortest-path count capped at 2: a strictly shorter
    path copies its tail's count, an equal one sets it to 2.  Weights are
    positive, so a node's count is final when it settles, before it relaxes
    its out-links.  pred holds the link that last lowered each node's distance,
    -1 at the source and at unreachable nodes; it is the last link of the
    shortest path wherever the count is 1.
    """
    n = len(cg.nodes)
    dist: list = [None] * n
    counts = [0] * n
    pred = [-1] * n
    dist[src] = 0
    counts[src] = 1
    heads, out_links = cg.heads, cg.out_links
    heap = [(0, src)]
    while heap:
        d, node = heapq.heappop(heap)
        if d != dist[node]:
            continue
        count = counts[node]
        for e in out_links[node]:
            nd = d + wunits[e]
            head = heads[e]
            old = dist[head]
            if old is None or nd < old:
                dist[head] = nd
                counts[head] = count
                pred[head] = e
                heapq.heappush(heap, (nd, head))
            elif nd == old:
                counts[head] = 2
    return dist, counts, pred


def count_paths_capped(cg: CompiledGraph, wunits: list[int], dist: list) -> list[int]:
    """Shortest-path counts from the Dijkstra source, capped at 2 per node,
    by a second pass over the tight-link DAG.  The reference for the counts
    `dijkstra_units` keeps as it settles nodes."""
    order = sorted(
        (i for i in range(len(cg.nodes)) if dist[i] is not None),
        key=lambda i: (dist[i], i),
    )
    counts = [0] * len(cg.nodes)
    if order:
        counts[order[0]] = 1
    for node in order:
        if counts[node]:
            continue
        total = 0
        for e in cg.in_links[node]:
            tail = cg.tails[e]
            if dist[tail] is not None and dist[tail] + wunits[e] == dist[node]:
                total += counts[tail]
                if total >= 2:
                    break
        counts[node] = min(total, 2)
    return counts


def walk_back_unique(
    cg: CompiledGraph, counts: list[int], pred: list[int], src: int, dest: int
) -> list[int]:
    """Node-index sequence of the unique shortest src -> dest path, following
    the `pred` links of `dijkstra_units`; every node on it must count 1."""
    path = [dest]
    node = dest
    while node != src:
        if counts[node] != 1:
            raise RuntimeError("internal: walk on a non-unique shortest-path DAG")
        node = cg.tails[pred[node]]
        path.append(node)
    path.reverse()
    return path


def relevant_links(cg: CompiledGraph, src: int, dests: list[int]) -> list[int]:
    """R_s: the links (u, v) with u reachable from `src`, v != src and v
    reaching some node of `dests`, ascending.

    Every simple src -> t path to a destination t uses only these links,
    and with positive weights shortest paths are simple and no link into
    src is ever tight.  So for every demand from src, the distance, the
    capped path count and the unique path are functions of the weights on
    R_s alone.
    """
    n = len(cg.nodes)
    reach = hop_distances([src], cg.out_links, cg.heads)
    coreach = hop_distances(dests, cg.in_links, cg.tails)
    return [
        e
        for e, (u, v) in enumerate(zip(cg.tails, cg.heads))
        if reach[u] < n and v != src and coreach[v] < n
    ]


def hop_distances(starts: list[int], links: list[list[int]], ends: list[int]) -> list[int]:
    """BFS hop count from the nearest of `starts` to every node, stepping
    along `links[node]` to `ends[e]`; len(links), the node count, where no
    start reaches.  Pass out-links and heads to search forward, in-links
    and tails to search backward."""
    n = len(links)
    dist = [n] * n
    for node in starts:
        dist[node] = 0
    queue = list(starts)
    for node in queue:  # the loop also visits the nodes appended to it
        for e in links[node]:
            v = ends[e]
            if dist[v] == n:
                dist[v] = dist[node] + 1
                queue.append(v)
    return dist


def _origin_table(
    cg: CompiledGraph, point_units: list[int], src: int, dests: list[int], rel: list[int]
) -> tuple[array, list]:
    """One origin's outcome for every grid setting of its relevant links.

    Settings run lexicographically over `rel`; the links outside it stay at
    the first grid point.  The table holds an outcome id per setting; id 0
    is "some demand unreachable or not unique", any other id indexes the
    returned outcomes: the demands' node-index paths, in `dests` order.
    """
    ids: dict = {None: 0}
    table = array("I")
    wunits = [point_units[0]] * len(cg.tails)
    for setting in itertools.product(point_units, repeat=len(rel)):
        for e, w in zip(rel, setting):
            wunits[e] = w
        _dist, counts, pred = dijkstra_units(cg, wunits, src)
        outcome: tuple | None = ()
        for dest in dests:
            if counts[dest] != 1:
                outcome = None
                break
            outcome += (tuple(walk_back_unique(cg, counts, pred, src, dest)),)
        table.append(ids.setdefault(outcome, len(ids)))
    return table, list(ids)


def _block_masks(table: array, n_points: int, depth: int) -> list[list[int]]:
    """masks[f][p]: the outcome ids in the table block whose first f setting
    digits spell p in base n_points, as bits (bit i for id i)."""
    masks = [[1 << i for i in table]]
    for _ in range(depth):
        finer = masks[-1]
        masks.append([
            functools.reduce(operator.or_, finer[p:p + n_points])
            for p in range(0, len(finer), n_points)
        ])
    masks.reverse()
    return masks


def _mask_ids(mask: int) -> list[int]:
    """The nonzero outcome ids in a block mask."""
    return [i for i in range(1, mask.bit_length()) if mask >> i & 1]


def unique_grid_routings(
    instance: Instance, limit: int, stats: dict | None = None
) -> Iterator[tuple[tuple[int, ...], RoutingForest]]:
    """Each forest that some grid weight vector routes uniquely, once.

    A forest comes with the lexicographically first grid vector (over the
    fixed link order) under which every demand has a unique shortest path
    along it, given as an index tuple into `grid_points(w_min, w_max,
    weight_resolution)`; forests come in the order of those vectors.
    Raises ValueError unless `limit` is a non-negative int, and
    GridSearchLimitError when the grid holds more than `limit` vectors.

    The enumeration is factored by origin.  Each origin s's outcome depends
    only on the weights of its relevant links R_s (`relevant_links`), so it
    is tabulated once over the P^|R_s| settings of R_s, P being the number
    of grid points: sum_s P^|R_s| <= |origins| * P^|L| oracle runs in all.
    Outcome ids are interned per origin, so each distinct tuple of them is
    one distinct forest, built once.

    The vectors are then swept depth first, in lexicographic order, one
    link per level.  A prefix of a vector selects one contiguous block of
    each origin's table, since R_s is ascending.  The sweep skips the
    vectors below a prefix when some origin has only id 0 in its block, or
    when every combination of the blocks' nonzero ids is already in `seen`:
    no unseen forest lies below.  That check is skipped when the
    combinations outnumber `seen`.  A prefix whose blocks each hold one id,
    and that id nonzero, routes one forest, first with the remaining links
    at index 0.  A link in no R_s changes no outcome and stays at index 0.

    `stats["settings"]` receives the oracle runs, sum_s P^|R_s|, and
    `stats["visited"]` the prefixes the sweep examined.
    """
    if not isinstance(limit, int) or isinstance(limit, bool) or limit < 0:
        raise ValueError(f"grid_limit must be a non-negative integer, got {limit!r}")
    if stats is None:
        stats = {}
    grid = (instance.w_min, instance.w_max, instance.weight_resolution)
    n_points = grid_size(*grid)
    n_links = len(instance.links)
    total = n_points ** n_links
    if total > limit:  # before the grid is built: a wide one would not fit
        raise GridSearchLimitError(
            f"{total} weight combinations exceed grid_limit {limit}"
        )
    points = grid_points(*grid)
    cg = CompiledGraph(instance)
    wscale = math.lcm(*(p.denominator for p in points))
    point_units = [int(p * wscale) for p in points]
    origins = []  # (outcomes, demand keys)
    blocks = []  # per origin, `_block_masks` of its table
    # depends[e]: (origin number, position of e in R_s plus one) for each R_s holding e
    depends: list[list[tuple[int, int]]] = [[] for _ in range(n_links)]
    stats["settings"] = 0
    for origin in instance.origins():
        src = cg.index[origin]
        keys = [(origin, d.destination) for d in instance.demands_from(origin)]
        dests = [cg.index[t] for _s, t in keys]
        rel = relevant_links(cg, src, dests)
        for f, e in enumerate(rel, 1):
            depends[e].append((len(origins), f))
        table, outcomes = _origin_table(cg, point_units, src, dests, rel)
        stats["settings"] += len(table)
        origins.append((outcomes, keys))
        blocks.append(_block_masks(table, n_points, len(rel)))
    swept = [e for e in range(n_links) if depends[e]]
    seen: set[tuple[int, ...]] = set()
    combo = [0] * n_links
    stats["visited"] = 0

    def sweep(level: int, prefixes: list[int], masks: list[int]):
        stats["visited"] += 1
        if not all(m >> 1 for m in masks):  # some origin never routes uniquely
            return
        if all(m & (m - 1) == 0 for m in masks):  # one forest, under every vector
            key = tuple(m.bit_length() - 1 for m in masks)
            if key not in seen:
                seen.add(key)
                yield tuple(combo), key
            return
        size = math.prod((m >> 1).bit_count() for m in masks)
        if size <= len(seen) and all(
            key in seen for key in itertools.product(*map(_mask_ids, masks))
        ):  # no unseen forest
            return
        e = swept[level]
        for digit in range(n_points):
            combo[e] = digit
            child_prefixes, child_masks = prefixes[:], masks[:]
            for o, f in depends[e]:
                p = prefixes[o] * n_points + digit
                child_prefixes[o] = p
                child_masks[o] = blocks[o][f][p]
            yield from sweep(level + 1, child_prefixes, child_masks)
        combo[e] = 0

    for combo_found, key in sweep(0, [0] * len(origins), [b[0][0] for b in blocks]):
        paths = {
            demand: tuple(instance.nodes[v] for v in path)
            for (outcomes, keys), outcome_id in zip(origins, key)
            for demand, path in zip(keys, outcomes[outcome_id])
        }
        yield combo_found, RoutingForest(paths)


# ---------------------------------------------------------------------------
# Public operations.


def shortest_path_lengths(instance: Instance, weights: WeightVector, origin: str) -> PathLengths:
    """Exact shortest-path lengths from `origin` under the given weights."""
    _check_weights(instance, weights)
    if origin not in instance.node_index():
        raise ValueError(f"unknown origin {origin!r}")
    cg = CompiledGraph(instance)
    wunits, scale = scale_weights(instance, weights)
    dist, _counts, _pred = dijkstra_units(cg, wunits, cg.index[origin])
    out = {
        node: Fraction(dist[i], scale)
        for i, node in enumerate(instance.nodes)
        if dist[i] is not None
    }
    return PathLengths(origin=origin, dist=out)


def count_shortest_paths(
    instance: Instance, weights: WeightVector, origin: str, destination: str
) -> int:
    """1 if exactly one minimum-length path exists, 2 for two or more.

    Unreachable destinations raise UnreachablePathError rather than counting
    as zero.
    """
    _check_weights(instance, weights)
    idx = instance.node_index()
    if origin not in idx or destination not in idx:
        raise ValueError("unknown origin or destination node")
    cg = CompiledGraph(instance)
    wunits, _scale = scale_weights(instance, weights)
    _dist, counts, _pred = dijkstra_units(cg, wunits, cg.index[origin])
    if not counts[cg.index[destination]]:
        raise UnreachablePathError(origin, destination)
    return counts[cg.index[destination]]


def routing_from_weights(instance: Instance, weights: WeightVector) -> RoutingForest:
    """Route every demand along its unique shortest path.

    Raises NonUniqueRoutingError if any demand has two or more shortest paths
    and UnreachableDemandError if some demand has none.
    """
    _check_weights(instance, weights)
    cg = CompiledGraph(instance)
    wunits, _scale = scale_weights(instance, weights)
    paths: dict[tuple[str, str], tuple[str, ...]] = {}
    for origin in instance.origins():
        src = cg.index[origin]
        _dist, counts, pred = dijkstra_units(cg, wunits, src)
        for demand in instance.demands_from(origin):
            di = cg.index[demand.destination]
            if not counts[di]:
                raise UnreachableDemandError(demand)
            if counts[di] != 1:
                raise NonUniqueRoutingError(demand)
            node_path = walk_back_unique(cg, counts, pred, src, di)
            paths[(origin, demand.destination)] = tuple(instance.nodes[i] for i in node_path)
    return RoutingForest(paths)


def origin_flows(instance: Instance, forest: RoutingForest) -> dict[str, dict[tuple[str, str], Fraction]]:
    """Per origin, each link on its demands' paths with the summed bandwidth
    of the demands whose paths use it.  Origins come in `instance.origins()`
    order, links as the paths, in demand order, first reach them.  A demand
    with no path adds nothing; paths keyed to no demand are not read."""
    flows: dict[str, dict[tuple[str, str], Fraction]] = {o: {} for o in instance.origins()}
    for demand in instance.demands:
        path = forest.paths.get((demand.origin, demand.destination), ())
        tree = flows[demand.origin]
        for pair in zip(path, path[1:]):
            tree[pair] = tree.get(pair, Fraction(0)) + demand.bandwidth
    return flows


def evaluate_objective(instance: Instance, forest: RoutingForest) -> Fraction:
    """Total carried load: the sum of all per-origin link flows."""
    return sum(link_loads(instance, forest).values(), Fraction(0))


@dataclass(frozen=True)
class CapacityViolation:
    link: tuple[str, str]
    load: Fraction
    capacity: Fraction

    @property
    def excess(self) -> Fraction:
        return self.load - self.capacity


def link_loads(instance: Instance, forest: RoutingForest) -> dict[tuple[str, str], Fraction]:
    """Per link, the summed flows of all origins."""
    loads: dict[tuple[str, str], Fraction] = {}
    for tree in origin_flows(instance, forest).values():
        for pair, flow in tree.items():
            loads[pair] = loads.get(pair, Fraction(0)) + flow
    return loads


def check_capacity(instance: Instance, forest: RoutingForest) -> list[CapacityViolation]:
    """Every link whose carried load strictly exceeds its capacity."""
    loads = link_loads(instance, forest)
    out = []
    for link in instance.links:
        load = loads.get((link.tail, link.head), Fraction(0))
        if load > link.capacity:
            out.append(CapacityViolation((link.tail, link.head), load, link.capacity))
    return out


def max_utilization(instance: Instance, forest: RoutingForest) -> Fraction:
    """max over links of load/capacity; 0 when nothing is loaded."""
    loads = link_loads(instance, forest)
    best = Fraction(0)
    caps = {(l.tail, l.head): l.capacity for l in instance.links}
    for pair, load in loads.items():
        if load == 0:
            continue
        cap = caps[pair]
        if cap == 0:
            raise ZeroCapacityError(f"link {pair} carries load {load} but has zero capacity")
        best = max(best, load / cap)
    return best


def hop_count_weights(instance: Instance) -> WeightVector:
    """Uniform weights: the grid point closest to 1 inside the bounds."""
    value = snap_to_grid(
        Fraction(1), instance.w_min, instance.w_max, instance.weight_resolution
    )
    return WeightVector({(l.tail, l.head): value for l in instance.links})


def inv_cap_weights(instance: Instance) -> WeightVector:
    """Weights proportional to max_capacity / capacity, clamped to the grid.

    The raw value w_min * max_capacity / c_ij is snapped to the nearest grid
    point inside [w_min, w_max]; links with zero capacity are an error.
    """
    if not instance.links:
        return WeightVector({})
    for link in instance.links:
        if link.capacity == 0:
            raise ZeroCapacityError(
                f"link ({link.tail!r}, {link.head!r}) has zero capacity"
            )
    max_cap = max(l.capacity for l in instance.links)
    values = {}
    for link in instance.links:
        raw = instance.w_min * max_cap / link.capacity
        values[(link.tail, link.head)] = snap_to_grid(
            raw, instance.w_min, instance.w_max, instance.weight_resolution
        )
    return WeightVector(values)


def forest_violations(instance: Instance, forest: RoutingForest) -> list[str]:
    """Check a forest's paths; an empty list means valid.

    Two steps.  Each demand has one path, a simple path of instance links
    from its origin to its destination, and no path is keyed to a
    non-demand.  Then no origin's tree, the union of its demands' paths,
    enters a node on two links.  Flow conservation, flows in (0, d_s], an
    unentered root and one entering link per destination all follow.  Path
    problems end the check.  Messages come in demand order.
    """
    wanted = {(d.origin, d.destination) for d in instance.demands}
    out = [f"path {key}: no such demand" for key in forest.paths if key not in wanted]
    pairs = set(instance.link_pairs())
    for demand in instance.demands:
        key = (demand.origin, demand.destination)
        path = forest.paths.get(key)
        if path is None:
            out.append(f"path {key}: missing")
        elif len(path) < 2 or path[0] != demand.origin or path[-1] != demand.destination:
            out.append(f"path {key}: endpoints do not match the demand")
        elif len(set(path)) != len(path):
            out.append(f"path {key}: repeats a node")
        elif not pairs.issuperset(zip(path, path[1:])):
            out.append(f"path {key}: uses a link that is not an instance link")
    if out:
        return out
    for origin, tree in origin_flows(instance, forest).items():
        for node, n in Counter(j for _i, j in tree).items():
            if n > 1:
                out.append(f"origin {origin!r}: node {node!r} is entered on {n} links")
    return out


# ---------------------------------------------------------------------------
# Weight-vector file I/O and the forest report used by the CLI.


def weight_records(weights: WeightVector) -> list[dict]:
    """One {"tail", "head", "weight"} record per link, sorted by link."""
    return [{"tail": t, "head": h, "weight": w} for (t, h), w in sorted(weights.values.items())]


def save_weights(weights: WeightVector) -> str:
    """The weights file `load_weights` reads, and `uspr verify` with it.

    No command writes this file: `uspr solve` writes the solution JSON,
    whose "weights" array holds the same records.  The library keeps it as
    the one writer of the format, for callers that compute weights
    themselves.
    """
    return write_json(weight_records(weights))


def load_weights(text: str) -> WeightVector:
    """Read a weights file; each link may be given once."""
    records = read_records(
        read_json(text, InvalidWeightsError), "weights", ("tail", "head", "weight"),
        InvalidWeightsError,
    )
    values = {}
    for i, (tail, head, weight) in enumerate(records):
        if (tail, head) in values:
            raise InvalidWeightsError(f"weights[{i}]: duplicate link ({tail!r}, {head!r})")
        values[(tail, head)] = weight
    return WeightVector(values)


def render_forest(instance: Instance, forest: RoutingForest) -> str:
    """Plain-text forest report: per-demand paths, then per-origin flows."""
    lines = []
    for demand in instance.demands:
        path = forest.paths.get((demand.origin, demand.destination))
        route = " ".join(path) if path else "(missing)"
        lines.append(
            f"demand {demand.origin}->{demand.destination} "
            f"(bandwidth {format_number(demand.bandwidth)}): {route}"
        )
    for origin, tree in origin_flows(instance, forest).items():
        lines.append(f"origin {origin}:")
        for (a, b), flow in sorted(tree.items()):
            lines.append(f"  link {a}->{b} flow {format_number(flow)}")
    return "\n".join(lines) + "\n"
