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

The weight-grid enumeration (`unique_grid_routings`) is factored by origin.
Each demand's candidate paths, its simple paths short enough to be
shortest somewhere on the grid, are listed once (`PathStream`, the
master's path lister too).  An origin's routing depends only on the
weights of the links of its demands' candidate paths, so each origin's
outcome is decided once per grid setting of those links, by a depth-first
walk over the settings that runs no Dijkstra: it updates only the lengths
of the candidates on the link that changes.  As it unwinds, the walk
stores each block of settings' outcomes as a bit mask.  On a one-point
grid the one setting is one Dijkstra run instead.  A depth-first sweep
over the vectors reads those masks and skips each prefix below which no
new forest lies.  It yields each distinct forest once, with the first
grid vector that routes it.
"""

from __future__ import annotations

import heapq
import itertools
import math
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
# Compiled integer-unit core.  Shared by the public operations, the master's
# path lists and the weight-grid enumeration.


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


def hop_distances(cg: CompiledGraph, dest: int) -> list[int]:
    """BFS hop count from every node to `dest`, along the links backward;
    the node count where `dest` is unreachable."""
    n = len(cg.nodes)
    dist = [n] * n
    dist[dest] = 0
    queue = [dest]
    for node in queue:  # the loop also visits the nodes appended to it
        for e in cg.in_links[node]:
            v = cg.tails[e]
            if dist[v] == n:
                dist[v] = dist[node] + 1
                queue.append(v)
    return dist


class PathStream:
    """One demand's simple paths by hop count, and paths of equal hop count
    in the order a depth-first search from the origin, following each
    node's out-links in instance order, reaches them.  They are listed one
    hop count at a time, by a DFS limited to that many hops and pruned by
    the BFS hop distance to the destination, only as far as the reader
    asks.  Each entry is (node indices, link indices).  The master reads
    the paths one at a time (`get`), the grid oracle all of a few hops at once
    (`within`)."""

    def __init__(self, cg: CompiledGraph, dist: list[int], origin: int, destination: int):
        self.paths: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        self._cg, self._dist = cg, dist
        self._origin, self._destination = origin, destination
        self._hops = dist[origin]  # len(nodes) when the destination is unreachable

    def get(self, j: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        while j >= len(self.paths) and self._hops < len(self._dist):
            self._list(self._hops)
            self._hops += 1
        return self.paths[j] if j < len(self.paths) else None

    def within(self, hops: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Every path of at most `hops` links."""
        while self._hops <= hops and self._hops < len(self._dist):
            self._list(self._hops)
            self._hops += 1
        return [path for path in self.paths if len(path[1]) <= hops]

    def _list(self, hops: int) -> None:
        """Append the paths of exactly `hops` links, in DFS order.  The DFS
        keeps one out-link iterator per path node on an explicit stack, so a
        path may be longer than the interpreter's recursion limit."""
        out_links, heads = self._cg.out_links, self._cg.heads
        dist, destination, paths = self._dist, self._destination, self.paths
        if self._origin == destination:
            paths.append(((destination,), ()))
            return
        nodes, links = [self._origin], []
        on_path = [False] * len(dist)
        on_path[self._origin] = True
        it = iter(out_links[self._origin])
        stack = [it]
        left = hops - 1  # links left after the next one
        while True:
            for e in it:
                v = heads[e]
                if on_path[v] or dist[v] > left:
                    continue
                if v == destination:
                    if not left:
                        paths.append(((*nodes, v), (*links, e)))
                    continue
                nodes.append(v)
                links.append(e)
                on_path[v] = True
                it = iter(out_links[v])
                stack.append(it)
                left -= 1
                break
            else:
                stack.pop()
                if not stack:
                    return
                it = stack[-1]
                left += 1
                on_path[nodes.pop()] = False
                links.pop()


def _origin_table(
    cg: CompiledGraph, point_units: list[int], src: int, dests: list[int]
) -> tuple[list[list[int]], list, list[int]]:
    """One origin's outcome for every grid setting of its axis: the links
    of its demands' candidate paths, ascending.

    Returns (masks, outcomes, axis).  Settings run lexicographically over
    the axis.  Outcome id 0 is "some demand unreachable or not unique", any
    other id indexes the outcomes: the demands' node-index paths, in
    `dests` order.  masks[f][p] holds, as bits (bit i for id i), the ids
    under the block of settings whose first f axis digits spell p in base
    P, the number of grid points; masks[-1] holds one bit per setting.

    No setting runs Dijkstra.  Each demand's candidates are its simple
    paths of at most floor(w_max * h / w_min) links, h its BFS hop
    distance: a longer path is longer than the h-hop one at w_max, so never
    shortest, tie included.  The sweep walks the settings depth first, one
    axis link per level, and adds a level's weight change to the lengths of
    the candidates on its link only.  A demand is decided at the deepest
    level one of its candidates touches: unique when exactly one candidate
    has the least length.  Every mask starts as id 0 alone, which a tie
    leaves in place for the whole block below; at the last level every
    demand is decided and the setting gets its one outcome.  As the sweep
    unwinds, each block's mask becomes the OR of its P sub-blocks' masks.
    An unreachable demand gives id 0 over an empty axis.

    With one grid point there is one setting, over an empty axis, while
    the candidates can be exponentially many, so that setting is one
    Dijkstra run instead.  With two or more, distinct candidates have
    distinct link sets, so a demand has at most 2^|axis| <= P^|axis| of
    them: no more than there are settings.
    """
    n_points = len(point_units)
    ids: dict = {None: 0}
    if n_points == 1:
        _dist, counts, pred = dijkstra_units(cg, point_units * len(cg.tails), src)
        outcome: tuple | None = ()
        for dest in dests:
            if counts[dest] != 1:
                outcome = None
                break
            outcome += (tuple(walk_back_unique(cg, counts, pred, src, dest)),)
        return [[1 << ids.setdefault(outcome, len(ids))]], list(ids), []
    first, last = point_units[0], point_units[-1]
    candidates = []  # per demand, its candidates as (node indices, link indices)
    for dest in dests:
        dist = hop_distances(cg, dest)
        if dist[src] == len(dist):  # unreachable: no setting routes it
            return [[1]], list(ids), []
        candidates.append(PathStream(cg, dist, src, dest).within(last * dist[src] // first))
    axis = sorted({e for paths in candidates for _nodes, links in paths for e in links})
    depth = len(axis)
    level_of = {e: level for level, e in enumerate(axis)}
    lengths = []  # per demand, its candidates' lengths under the current prefix
    touched: list[list[tuple[list[int], int]]] = [[] for _ in axis]  # per level, (lengths, j)
    decided: list[list[int]] = [[] for _ in range(depth + 1)]  # demands, by deciding level
    for k, paths in enumerate(candidates):
        lens = [first * len(links) for _nodes, links in paths]
        for j, (_nodes, links) in enumerate(paths):
            for e in links:
                touched[level_of[e]].append((lens, j))
        lengths.append(lens)
        decided[max(level_of[e] for _nodes, links in paths for e in links) + 1].append(k)
    winners: list = [None] * len(dests)
    masks = [[1] * n_points**level for level in range(depth + 1)]
    steps = [b - a for a, b in zip(point_units, point_units[1:])]
    reset = first - last

    def sweep(level: int, p: int) -> int:
        for k in decided[level]:
            lens = lengths[k]
            least = min(lens)
            if lens.count(least) > 1:
                return 1
            winners[k] = candidates[k][lens.index(least)][0]
        if level == depth:
            mask = 1 << ids.setdefault(tuple(winners), len(ids))
        else:
            links = touched[level]
            child = p * n_points
            mask = sweep(level + 1, child)
            for digit, step in enumerate(steps, 1):
                for lens, j in links:
                    lens[j] += step
                mask |= sweep(level + 1, child + digit)
            for lens, j in links:
                lens[j] += reset
        masks[level][p] = mask
        return mask

    sweep(0, 0)
    del sweep  # it holds itself through its closure: free its lists now, not at a collection
    return masks, list(ids), axis


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
    The grid size P^|L| is multiplied out only until it passes `limit`, so a
    wide grid is refused at once, and a count of 40 digits or more is
    written P^|L| in the message.

    The enumeration is factored by origin.  Each origin s's outcome depends
    only on the weights of C_s, the links of its demands' candidate paths,
    so it is decided once for each of the P^|C_s| settings of C_s, P being
    the number of grid points: sum_s P^|C_s| <= |origins| * P^|L| settings
    in all.  No setting runs Dijkstra (`_origin_table`): each demand's
    candidate paths are listed once, and a depth-first walk over the
    settings moves one link's weight at a time and updates the lengths of
    the candidates on that link alone.  With P = 1 the one setting per
    origin is one Dijkstra run, since the candidates can be exponentially
    many.  The walk returns each block of settings' outcome ids as a bit
    mask.  Outcome ids are interned per origin, so each distinct tuple of
    them is one distinct forest, built once.

    The vectors are then swept depth first, in lexicographic order, one
    link per level.  A prefix of a vector selects one block of each
    origin's settings, since C_s is ascending.  The sweep skips the vectors
    below a prefix when some origin has only id 0 in its block, or when
    every combination of the blocks' nonzero ids is already found: no new
    forest lies below.  That check is skipped when the combinations
    outnumber the forests found.  A prefix whose blocks each hold one id,
    and that id nonzero, routes one forest, first with the remaining links
    at index 0.  A link in no C_s changes no outcome and stays at index 0.

    `stats["settings"]` receives the settings decided, sum_s P^|C_s|, and
    `stats["visited"]` the prefixes the sweep examined.
    """
    if not isinstance(limit, int) or isinstance(limit, bool) or limit < 0:
        raise ValueError(f"grid_limit must be a non-negative integer, got {limit!r}")
    if stats is None:
        stats = {}
    grid = (instance.w_min, instance.w_max, instance.weight_resolution)
    n_points = grid_size(*grid)
    n_links = len(instance.links)
    total, links = 1, 0  # total = P^links, multiplied out only until it passes the limit
    while links < n_links and total <= limit:
        total *= n_points
        links += 1
    if total > limit:  # before the grid is built: a wide one would not fit
        count = (  # no number of 40 digits or more is written out
            total if links == n_links and total < 10**40
            else f"{n_points}^{n_links}" if n_points < 10**40
            else f"at least 2^{(n_points.bit_length() - 1) * n_links}"
        )
        bound = limit if limit < 10**40 else f"of {limit.bit_length()} bits"
        raise GridSearchLimitError(f"{count} weight combinations exceed grid_limit {bound}")
    points = grid_points(*grid)
    cg = CompiledGraph(instance)
    wscale = math.lcm(*(p.denominator for p in points))
    point_units = [int(p * wscale) for p in points]
    origins = []  # (outcomes, demand keys)
    blocks = []  # per origin, its block masks
    # depends[e]: (origin number, position of e in its axis plus one) for each axis holding e
    depends: list[list[tuple[int, int]]] = [[] for _ in range(n_links)]
    stats["settings"] = 0
    for origin in instance.origins():
        keys = [(origin, d.destination) for d in instance.demands_from(origin)]
        dests = [cg.index[t] for _s, t in keys]
        pyramid, outcomes, axis = _origin_table(cg, point_units, cg.index[origin], dests)
        for f, e in enumerate(axis, 1):
            depends[e].append((len(origins), f))
        stats["settings"] += len(pyramid[-1])
        origins.append((outcomes, keys))
        blocks.append(pyramid)
    swept = [e for e in range(n_links) if depends[e]]
    found: dict[tuple[int, ...], tuple[int, ...]] = {}  # each forest's key: its first vector
    combo = [0] * n_links
    stats["visited"] = 0

    def sweep(level: int, prefixes: list[int], masks: list[int]) -> None:
        stats["visited"] += 1
        if not all(m >> 1 for m in masks):  # some origin never routes uniquely
            return
        if all(m & (m - 1) == 0 for m in masks):  # one forest, under every vector
            found.setdefault(tuple(m.bit_length() - 1 for m in masks), tuple(combo))
            return
        size = math.prod((m >> 1).bit_count() for m in masks)
        if size <= len(found) and all(
            key in found for key in itertools.product(*map(_mask_ids, masks))
        ):  # no new forest
            return
        e = swept[level]
        for digit in range(n_points):
            combo[e] = digit
            child_prefixes, child_masks = prefixes[:], masks[:]
            for o, f in depends[e]:
                p = prefixes[o] * n_points + digit
                child_prefixes[o] = p
                child_masks[o] = blocks[o][f][p]
            sweep(level + 1, child_prefixes, child_masks)
        combo[e] = 0

    sweep(0, [0] * len(origins), [b[0][0] for b in blocks])
    del sweep  # as in `_origin_table`: free the block masks now, not at a collection
    for key, first_combo in found.items():
        paths = {
            demand: tuple(instance.nodes[v] for v in path)
            for (outcomes, keys), outcome_id in zip(origins, key)
            for demand, path in zip(keys, outcomes[outcome_id])
        }
        yield first_combo, RoutingForest(paths)


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
