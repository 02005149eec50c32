"""Test oracles: reference code that no command and no solver runs.

The tests check the package against these, and these against the package.
Each check here raises and never asserts, so it also checks under
`python -O`, and it needs no assertion rewriting (pytest rewrites only the
asserts of test modules and `conftest.py`).

Shortest paths, from one `spf.dijkstra_units` pass each:
`shortest_path_lengths` gives an origin's exact lengths and
`count_shortest_paths` one demand's path count capped at 2.
`save_weights` writes the weights file `spf.load_weights` reads.

Judging in `Fraction`s: `fraction_link_loads`, `fraction_check_capacity`,
`fraction_evaluate_objective` and `fraction_on_grid` are the bodies that
`spf.link_loads`, `spf.check_capacity`, `spf.evaluate_objective` and
`rational.on_grid` had before they judged in integers, kept as references.

Models: `linearization_check` resolves each binary pattern of the
path-length pair to its logic case, and `parse_lp` reads `export_lp`'s
text back into a `LinearModel`, so an export round-trips.

The structure mappings are the DBM<->OBM correspondence of the two
formulations, on a `DemandRouting`, one link set per demand: loop
stripping and path extraction by one forward walk per demand, the
demand-to-origin mapping (a forest of the demands' paths), its inverse
(each demand's path as its link set, from a forest `forest_violations`
accepts, which checks a forest's paths), and the sub-path check.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from uspr import spf
from uspr.instance import Instance
from uspr.models import (
    Constraint, LinearModel, ModelParameterError, Variable, table_violations,
)
from uspr.rational import parse_number, write_json
from uspr.spf import (
    CapacityViolation, CompiledGraph, RoutingForest, WeightVector, _check_weights, dijkstra_units,
    scale_weights, weight_records,
)

_ZERO, _ONE, _MINUS_ONE = Fraction(0), Fraction(1), Fraction(-1)


# ---------------------------------------------------------------------------
# Shortest-path lengths and counts, and the weights file.


class UnreachablePathError(ValueError):
    def __init__(self, origin: str, destination: str):
        self.origin = origin
        self.destination = destination
        super().__init__(f"no path from {origin!r} to {destination!r}")


class PathLengths(NamedTuple):
    """Shortest-path lengths from one origin; unreachable nodes are absent."""

    origin: str
    dist: dict[str, Fraction]


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


def save_weights(weights: WeightVector) -> str:
    """The weights file `load_weights` reads, and `uspr verify` with it: the
    bare array of `weight_records`, the records a solution file's "weights"
    member holds too."""
    return write_json(weight_records(weights))


# ---------------------------------------------------------------------------
# Judging in `Fraction`s: loads summed over `spf.origin_flows`, and grid
# membership by subtracting and dividing.


def fraction_link_loads(instance: Instance, forest: RoutingForest) -> dict[tuple[str, str], Fraction]:
    """Per link, the summed flows of all origins."""
    loads: dict[tuple[str, str], Fraction] = {}
    for tree in spf.origin_flows(instance, forest).values():
        for pair, flow in tree.items():
            loads[pair] = loads.get(pair, Fraction(0)) + flow
    return loads


def fraction_check_capacity(instance: Instance, forest: RoutingForest) -> list[CapacityViolation]:
    """Every link whose carried load strictly exceeds its capacity."""
    loads = fraction_link_loads(instance, forest)
    out = []
    for link in instance.links:
        load = loads.get((link.tail, link.head), Fraction(0))
        if load > link.capacity:
            out.append(CapacityViolation((link.tail, link.head), load, link.capacity))
    return out


def fraction_evaluate_objective(instance: Instance, forest: RoutingForest) -> Fraction:
    """Total carried load: the sum of all per-origin link flows."""
    return sum(fraction_link_loads(instance, forest).values(), Fraction(0))


def fraction_on_grid(value: Fraction, w_min: Fraction, w_max: Fraction, step: Fraction) -> bool:
    if value < w_min or value > w_max:
        return False
    return ((value - w_min) / step).denominator == 1


# ---------------------------------------------------------------------------
# The path-length linearization check and the LP reader.


class PathLengthCase(NamedTuple):
    """Feasible relation on q = l_j - (l_i + w_ij) implied by the binaries."""

    relation: str  # "equal" | "strict" | "slack"
    lower: Fraction
    upper: Fraction


def linearization_check(link_used: int, incoming_sum: int, eps, big_M) -> PathLengthCase:
    """Resolve one binary pattern of the path-length pair to its logic case.

    `link_used` is the routing binary on (i, j); `incoming_sum` is the total
    of routing binaries over all links into j (including (i, j)).  The
    returned interval is exactly the feasible set of the linearized pair for
    that pattern and is checked against the logic form:

      used            -> q = 0             (equality)
      merge, unused   -> q <= -eps         (strict)
      elsewhere       -> -M <= q <= 0      (slack)
    """
    eps = parse_number(eps, "eps")
    big_M = parse_number(big_M, "big_M")
    if not 0 < eps < big_M:
        raise ModelParameterError("need 0 < eps < big_M")
    if link_used not in (0, 1):
        raise ValueError(f"link_used must be a binary value, got {link_used!r}")
    if incoming_sum not in (0, 1):
        raise ValueError(
            f"incoming_sum must be 0 or 1 under path uniqueness, got {incoming_sum!r}"
        )
    if link_used > incoming_sum:
        raise ValueError("inconsistent binaries: the link contributes to the incoming sum")
    upper = -eps * (incoming_sum - link_used)
    lower = -big_M * (1 - link_used)
    if link_used == 1:
        relation, expected = "equal", (0, 0)
    elif incoming_sum == 1:
        relation, expected = "strict", (-big_M, -eps)
    else:
        relation, expected = "slack", (-big_M, 0)
    if (lower, upper) != expected:
        raise RuntimeError(f"internal: {relation} case has interval [{lower}, {upper}]")
    return PathLengthCase(relation, lower, upper)


class LpParseError(ValueError):
    pass


def _parse_terms(tokens: list[str], where: str) -> tuple[tuple[str, Fraction], ...]:
    """Signed terms; a token starting with a digit, '.' or a sign is a number."""
    terms: list[tuple[str, Fraction]] = []
    sign = _ONE
    pending: Fraction | None = None
    for tok in tokens:
        if tok == "+":
            sign = _ONE
        elif tok == "-":
            sign = _MINUS_ONE
        elif tok[0] in "0123456789.+-":
            if pending is not None:
                raise LpParseError(f"{where}: two consecutive numbers")
            pending = parse_number(tok, where, LpParseError)
        else:
            terms.append((tok, sign * (_ONE if pending is None else pending)))
            sign = _ONE
            pending = None
    if pending is not None:
        if len(terms) == 0 and pending == 0:
            return ()  # the literal "0" objective / empty row
        raise LpParseError(f"{where}: trailing number without a variable")
    return tuple(terms)


def parse_lp(text: str) -> LinearModel:
    """Read LP text produced by export_lp back into a LinearModel.

    Raises LpParseError, naming the line, on a malformed line or number; a
    Bounds line must be one of `export_lp`'s three forms, each with a finite
    lower bound, so a `free` line or a `-inf` bound is refused.  Raises it
    too on a name the tables cannot place: a term on a variable with no
    Bounds line, a Binary name with no Bounds line, or a name declared twice.
    """
    formulation = ""
    eps = _ZERO
    big_M = _ZERO
    section = None
    objective: tuple[tuple[str, Fraction], ...] = ()
    constraints: list[Constraint] = []
    bounds: list[tuple[str, Fraction, Fraction | None]] = []
    binaries: dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        where = f"line {lineno}"
        if line.startswith("\\"):
            body = line[1:].strip()
            if body.startswith("formulation:"):
                formulation = body.split(":", 1)[1].strip()
            elif body.startswith("eps:"):
                eps = parse_number(body.split(":", 1)[1].strip(), where, LpParseError)
            elif body.startswith("big_M:"):
                big_M = parse_number(body.split(":", 1)[1].strip(), where, LpParseError)
            continue
        if line in ("Minimize", "Subject To", "Bounds", "Binary", "End"):
            section = line
            continue
        if section == "Minimize":
            if not line.startswith("obj:"):
                raise LpParseError(f"{where}: expected 'obj:'")
            objective = _parse_terms(line[len("obj:"):].split(), where)
        elif section == "Subject To":
            if ":" not in line:
                raise LpParseError(f"{where}: constraint without a name")
            name, rest = line.split(":", 1)
            tokens = rest.split()
            sense_pos = None
            for i, tok in enumerate(tokens):
                if tok in ("<=", ">=", "="):
                    sense_pos = i
                    break
            if sense_pos is None or sense_pos != len(tokens) - 2:
                raise LpParseError(f"{where}: expected '<terms> <sense> <rhs>'")
            terms = _parse_terms(tokens[:sense_pos], where)
            rhs = parse_number(tokens[-1], where, LpParseError)
            constraints.append(Constraint(name.strip(), terms, tokens[sense_pos], rhs))
        elif section == "Bounds":
            tokens = line.split()
            if len(tokens) == 3 and tokens[1] == "=":
                v = parse_number(tokens[2], where, LpParseError)
                bounds.append((tokens[0], v, v))
            elif (len(tokens) == 3 and tokens[1] == "<="
                  or len(tokens) == 5 and tokens[1] == tokens[3] == "<="):
                lb = parse_number(tokens[0], where, LpParseError)
                ub = parse_number(tokens[4], where, LpParseError) if len(tokens) == 5 else None
                bounds.append((tokens[2], lb, ub))
            else:
                raise LpParseError(f"{where}: unrecognized bounds line {line!r}")
        elif section == "Binary":
            binaries[line] = lineno
        elif section == "End":
            raise LpParseError(f"{where}: content after End")
        else:
            raise LpParseError(f"{where}: content outside any section")

    declared = {name for name, _, _ in bounds}
    problems = [
        f"line {lineno}: binary {name!r} has no Bounds line"
        for name, lineno in binaries.items()
        if name not in declared
    ]
    variables = tuple(
        Variable(name, "binary" if name in binaries else "continuous", lb, ub)
        for name, lb, ub in bounds
    )
    problems += table_violations(variables, constraints, objective)
    if problems:
        raise LpParseError("; ".join(problems))
    return LinearModel(formulation, eps, big_M, variables, tuple(constraints), objective)


# ---------------------------------------------------------------------------
# The structure mappings between demand and origin routings.


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


class DemandRouting(NamedTuple):
    """Per-demand link selections, aligned with the instance demand order."""

    links: tuple[frozenset[tuple[str, str]], ...]


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


class SubpathViolation(NamedTuple):
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
            f"origin {v.origin!r}: node {v.node!r} is entered on {len(v.entering_links)} links"
        )
    return out


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
    for origin, tree in spf.origin_flows(instance, forest).items():
        for node, n in Counter(j for _i, j in tree).items():
            if n > 1:
                out.append(f"origin {origin!r}: node {node!r} is entered on {n} links")
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
    leftover = forest_violations(instance, forest)
    if leftover:
        raise RuntimeError(f"internal: aggregated forest invalid: {leftover}")
    return forest


def origin_to_demand(instance: Instance, forest: RoutingForest) -> DemandRouting:
    """Each demand's path, as its link set.  A forest that
    `forest_violations` rejects raises MalformedForestError listing the
    violations."""
    violations = forest_violations(instance, forest)
    if violations:
        raise MalformedForestError("; ".join(violations))
    paths = [forest.paths[(d.origin, d.destination)] for d in instance.demands]
    return DemandRouting(tuple(frozenset(zip(p, p[1:])) for p in paths))
