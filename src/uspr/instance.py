"""Problem instances: capacitated directed network, demand matrix, weight grid.

An instance bundles everything a solve needs:

 - `nodes`: ordered node identifiers,
 - `links`: directed links (tail, head, capacity >= 0), no self-loops, no
   duplicate (tail, head) pairs,
 - `demands`: (origin, destination, bandwidth > 0), at most one demand per
   ordered origin-destination pair,
 - `w_min`, `w_max`, `weight_resolution`: admissible link weights are the
   grid points w_min + n * weight_resolution inside [w_min, w_max].

The file format is JSON:

    {
      "nodes": ["a", "b"],
      "links": [{"tail": "a", "head": "b", "capacity": 10}],
      "demands": [{"origin": "a", "destination": "b", "bandwidth": 1}],
      "w_min": 1,
      "w_max": 10,
      "weight_resolution": 1
    }

Numbers are decimal; capacities and bandwidths may be fractional.  Values may
also be given as strings ("0.5", "1/3") when an exact non-decimal rational is
needed.  `load_instance(save_instance(x)) == x` holds for every valid
instance.

Derived sets (origins, per-origin demand groups, per-origin destination sets)
are recomputed from `demands` on every call, never stored, so they cannot get
out of sync with the data.  Instances are immutable after construction and
safe to share across workers.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from typing import NamedTuple

from .rational import on_grid, parse_number, read_json, read_records, write_json


class InstanceParseError(ValueError):
    """Malformed instance text: bad JSON or a missing/ill-typed field."""


class InstanceValidationError(ValueError):
    """Structurally parseable instance that violates a data invariant."""

    def __init__(self, violations: list["Violation"]):
        self.violations = violations
        lines = "; ".join(str(v) for v in violations)
        super().__init__(f"invalid instance: {lines}")


class GenerationError(ValueError):
    """Random generation is impossible for the requested parameters."""


class Link(NamedTuple):
    tail: str
    head: str
    capacity: Fraction


class Demand(NamedTuple):
    origin: str
    destination: str
    bandwidth: Fraction


class Violation(NamedTuple):
    location: str
    message: str

    def __str__(self) -> str:
        return f"{self.location}: {self.message}"


class _InstanceDimsFields(NamedTuple):
    n_nodes: int
    n_links: int
    n_demands: int
    n_origins: int


class InstanceDims(_InstanceDimsFields):
    """Cardinalities used by the closed-form model size tables."""

    __slots__ = ()

    def __new__(cls, n_nodes: int, n_links: int, n_demands: int, n_origins: int):
        self = super().__new__(cls, n_nodes, n_links, n_demands, n_origins)
        for name, value in zip(self._fields, self):
            if value < 0:
                raise ValueError(f"{name} must be non-negative")
        if n_origins > n_demands:
            raise ValueError("n_origins cannot exceed n_demands")
        if n_origins > n_nodes:
            raise ValueError("n_origins cannot exceed n_nodes")
        return self

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through it: check there too
        return cls(*iterable)


class Instance(NamedTuple):
    nodes: tuple[str, ...]
    links: tuple[Link, ...]
    demands: tuple[Demand, ...]
    w_min: Fraction
    w_max: Fraction
    weight_resolution: Fraction

    def node_index(self) -> dict[str, int]:
        return {n: i for i, n in enumerate(self.nodes)}

    def link_pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple((l.tail, l.head) for l in self.links)

    def origins(self) -> tuple[str, ...]:
        """The origin set S, ordered by node declaration order."""
        present = {d.origin for d in self.demands}
        return tuple(n for n in self.nodes if n in present)

    def demands_from(self, origin: str) -> tuple[Demand, ...]:
        """D_s: demands sharing the given origin, in demand declaration order."""
        return tuple(d for d in self.demands if d.origin == origin)

    def destinations_from(self, origin: str) -> tuple[str, ...]:
        """T_s: destination nodes of demands from `origin`, in node order."""
        dests = {d.destination for d in self.demands if d.origin == origin}
        return tuple(n for n in self.nodes if n in dests)

    def origin_bandwidth(self, origin: str) -> Fraction:
        """Total bandwidth rooted at `origin` (the per-tree supply)."""
        return sum((d.bandwidth for d in self.demands_from(origin)), Fraction(0))

    def in_links(self) -> dict[str, list[Link]]:
        adj: dict[str, list[Link]] = {n: [] for n in self.nodes}
        for link in self.links:
            adj[link.head].append(link)
        return adj

    def dims(self) -> InstanceDims:
        return InstanceDims(
            n_nodes=len(self.nodes),
            n_links=len(self.links),
            n_demands=len(self.demands),
            n_origins=len(self.origins()),
        )


def _reachable_from(adj: dict[str, list[str]], origin: str) -> set[str]:
    seen = {origin}
    frontier = [origin]
    while frontier:
        node = frontier.pop()
        for head in adj[node]:
            if head not in seen:
                seen.add(head)
                frontier.append(head)
    return seen


def validate_instance(instance: Instance) -> list[Violation]:
    """Check every data invariant; an empty report means the instance is valid.

    Violations are data, not exceptions: all of them are reported at once,
    each with the location of the offending field.
    """
    out: list[Violation] = []
    seen_nodes: set[str] = set()
    for i, node in enumerate(instance.nodes):
        if node in seen_nodes:
            out.append(Violation(f"nodes[{i}]", f"duplicate node id {node!r}"))
        seen_nodes.add(node)
        # ids appear verbatim in model/LP names such as w_{tail}_{head}
        if not re.fullmatch(r"[A-Za-z0-9]+", node):
            out.append(Violation(f"nodes[{i}]", "node id must be ASCII letters and "
                                 f"digits, with no whitespace or symbols: {node!r}"))

    if instance.w_min <= 0:
        out.append(Violation("w_min", "weight lower bound must be positive"))
    if instance.w_max < instance.w_min:
        out.append(Violation("w_max", "weight upper bound below lower bound"))
    if instance.weight_resolution <= 0:
        out.append(Violation("weight_resolution", "resolution must be positive"))
    elif instance.w_max >= instance.w_min and not on_grid(
        instance.w_max, instance.w_min, instance.w_max, instance.weight_resolution
    ):
        out.append(
            Violation("w_max", "weight bounds are not representable on the resolution grid")
        )

    node_set = set(instance.nodes)
    seen_links: set[tuple[str, str]] = set()
    for i, link in enumerate(instance.links):
        where = f"links[{i}]"
        if link.tail not in node_set:
            out.append(Violation(where, f"unknown tail node {link.tail!r}"))
        if link.head not in node_set:
            out.append(Violation(where, f"unknown head node {link.head!r}"))
        if link.tail == link.head:
            out.append(Violation(where, "self-loop link"))
        if (link.tail, link.head) in seen_links:
            out.append(Violation(where, f"duplicate link ({link.tail!r}, {link.head!r})"))
        seen_links.add((link.tail, link.head))
        if link.capacity < 0:
            out.append(Violation(where, f"negative capacity {link.capacity}"))

    # Links with an unknown endpoint are reported above and carry no route.
    adj: dict[str, list[str]] = {node: [] for node in node_set}
    for link in instance.links:
        if link.tail in node_set and link.head in node_set:
            adj[link.tail].append(link.head)
    seen_pairs: set[tuple[str, str]] = set()
    reachable: dict[str, set[str]] = {}
    for k, demand in enumerate(instance.demands):
        where = f"demands[{k}]"
        pair = (demand.origin, demand.destination)
        if demand.origin not in node_set:
            out.append(Violation(where, f"unknown origin node {demand.origin!r}"))
            continue
        if demand.destination not in node_set:
            out.append(Violation(where, f"unknown destination node {demand.destination!r}"))
            continue
        if demand.origin == demand.destination:
            out.append(Violation(where, "origin equals destination"))
            continue
        if pair in seen_pairs:
            out.append(Violation(where, f"duplicate OD pair ({pair[0]!r}, {pair[1]!r})"))
        seen_pairs.add(pair)
        if demand.bandwidth <= 0:
            out.append(Violation(where, f"bandwidth must be positive, got {demand.bandwidth}"))
        # Full strong connectivity is not required, but every demand must be
        # routable at least in principle.
        if demand.origin not in reachable:
            reachable[demand.origin] = _reachable_from(adj, demand.origin)
        if demand.destination not in reachable[demand.origin]:
            out.append(Violation(where, "destination unreachable from origin"))
    return out


def _draw_fraction(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    # Values land on a 1/100 lattice of the range: exact and reproducible.
    return lo + (hi - lo) * Fraction(rng.randint(0, 100), 100)


def generate_random_instance(
    n_nodes: int,
    avg_out_degree: float,
    n_demands: int,
    capacity_range: tuple = (10, 100),
    demand_range: tuple = (1, 10),
    w_min=1,
    w_max=10,
    weight_resolution=1,
    seed: int = 0,
) -> Instance:
    """Generate a random valid instance, deterministically for a fixed seed.

    The topology is a Hamiltonian cycle over a shuffled node order (which
    makes the graph strongly connected by construction) plus extra arcs
    sampled uniformly without replacement until the link count reaches
    round(avg_out_degree * n_nodes), which may not fall below n_nodes.
    Demands are drawn over distinct ordered node pairs.  Capacities and
    bandwidths are drawn on a 1/100 lattice of their ranges.
    """
    if n_nodes < 2:
        raise GenerationError("need at least 2 nodes")
    if not math.isfinite(avg_out_degree) or avg_out_degree <= 0:
        raise GenerationError(f"avg_out_degree must be positive and finite, got {avg_out_degree}")
    if n_demands <= 0:
        raise GenerationError("n_demands must be positive")
    max_links = n_nodes * (n_nodes - 1)
    target_links = round(avg_out_degree * n_nodes)
    if target_links > max_links:
        raise GenerationError(
            f"avg_out_degree {avg_out_degree} needs {target_links} links; "
            f"only {max_links} ordered pairs exist"
        )
    if target_links < n_nodes:
        raise GenerationError(
            f"avg_out_degree {avg_out_degree} gives {target_links} links; "
            f"the Hamiltonian backbone alone has {n_nodes}"
        )
    if n_demands > max_links:
        raise GenerationError(
            f"generation-infeasible: {n_demands} demands requested but only "
            f"{max_links} ordered OD pairs exist"
        )
    cap_lo, cap_hi = (parse_number(v, "capacity_range") for v in capacity_range)
    dem_lo, dem_hi = (parse_number(v, "demand_range") for v in demand_range)
    w_min = parse_number(w_min, "w_min")
    w_max = parse_number(w_max, "w_max")
    weight_resolution = parse_number(weight_resolution, "weight_resolution")
    if not (0 < cap_lo <= cap_hi) or not (0 < dem_lo <= dem_hi):
        raise GenerationError("capacity and demand ranges must be positive and ordered")

    rng = random.Random(seed)
    nodes = tuple(f"n{i}" for i in range(n_nodes))

    order = list(nodes)
    rng.shuffle(order)
    pairs: list[tuple[str, str]] = []
    used: set[tuple[str, str]] = set()
    for i in range(n_nodes):
        pair = (order[i], order[(i + 1) % n_nodes])
        pairs.append(pair)
        used.add(pair)
    candidates = [
        (a, b) for a in nodes for b in nodes if a != b and (a, b) not in used
    ]
    extra = max(0, target_links - n_nodes)
    pairs.extend(rng.sample(candidates, extra))

    links = tuple(
        Link(tail, head, _draw_fraction(rng, cap_lo, cap_hi)) for tail, head in pairs
    )

    od_pairs = [(a, b) for a in nodes for b in nodes if a != b]
    chosen = rng.sample(od_pairs, n_demands)
    demands = tuple(
        Demand(o, d, _draw_fraction(rng, dem_lo, dem_hi)) for o, d in chosen
    )

    instance = Instance(nodes, links, demands, w_min, w_max, weight_resolution)
    violations = validate_instance(instance)
    if violations:  # the backbone routes every demand; bad weight bounds land here
        raise GenerationError(
            "generator produced an invalid instance: " + "; ".join(str(v) for v in violations)
        )
    return instance


def save_instance(instance: Instance) -> str:
    """Serialize to the canonical JSON text (deterministic bytes)."""
    return write_json({
        "nodes": instance.nodes,
        "links": [
            {"tail": l.tail, "head": l.head, "capacity": l.capacity} for l in instance.links
        ],
        "demands": [
            {"origin": d.origin, "destination": d.destination, "bandwidth": d.bandwidth}
            for d in instance.demands
        ],
        "w_min": instance.w_min,
        "w_max": instance.w_max,
        "weight_resolution": instance.weight_resolution,
    })


def _require(mapping: dict, field: str, where: str) -> object:
    if field not in mapping:
        raise InstanceParseError(f"{where}: missing field {field!r}")
    return mapping[field]


def load_instance(text: str) -> Instance:
    """Parse and validate instance text.

    Raises InstanceParseError for malformed text (with the offending field
    named) and InstanceValidationError when the data violates an invariant.
    """
    raw = read_json(text, InstanceParseError)
    if not isinstance(raw, dict):
        raise InstanceParseError("top level must be a JSON object")

    nodes_raw = _require(raw, "nodes", "instance")
    if not isinstance(nodes_raw, list) or not all(isinstance(n, str) for n in nodes_raw):
        raise InstanceParseError("nodes: must be an array of string ids")
    nodes = tuple(nodes_raw)
    links = tuple(Link(*r) for r in read_records(
        _require(raw, "links", "instance"), "links", ("tail", "head", "capacity"),
        InstanceParseError,
    ))
    demands = tuple(Demand(*r) for r in read_records(
        _require(raw, "demands", "instance"), "demands", ("origin", "destination", "bandwidth"),
        InstanceParseError,
    ))

    w_min, w_max, resolution = (
        parse_number(_require(raw, field, "instance"), field, InstanceParseError)
        for field in ("w_min", "w_max", "weight_resolution")
    )
    instance = Instance(nodes, links, demands, w_min, w_max, resolution)
    violations = validate_instance(instance)
    if violations:
        raise InstanceValidationError(violations)
    return instance
