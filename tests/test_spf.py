import functools
import itertools
import math
import operator
import random
import time
from fractions import Fraction

import pytest

from conftest import (
    diamond, mk_instance, path_graph, reference_origin_table, simple_paths, small_random,
    triangle, two_node,
)
from uspr import spf
from uspr.instance import generate_random_instance
from uspr.rational import grid_points, grid_size
from uspr.solver import DemandRouting, subpath_optimality_check
from uspr.spf import (
    NonUniqueRoutingError,
    RoutingForest,
    UnreachablePathError,
    WeightVector,
    ZeroCapacityError,
)


def uniform_weights(instance, value=1):
    return WeightVector({p: Fraction(value) for p in instance.link_pairs()})


def test_single_link_lengths():
    inst = two_node()
    wv = WeightVector({("a", "b"): Fraction(5)})
    lengths = spf.shortest_path_lengths(inst, wv, "a")
    assert lengths.dist == {"a": Fraction(0), "b": Fraction(5)}


def test_triangle_takes_two_hop_route():
    inst = triangle()
    wv = WeightVector({("s", "a"): Fraction(3), ("a", "t"): Fraction(4), ("s", "t"): Fraction(8)})
    lengths = spf.shortest_path_lengths(inst, wv, "s")
    assert lengths.dist["t"] == 7


def test_origin_distance_zero_everywhere():
    for seed in range(5):
        inst = small_random(seed)
        wv = uniform_weights(inst)
        for origin in inst.nodes:
            assert spf.shortest_path_lengths(inst, wv, origin).dist[origin] == 0


def test_count_diamond_tie():
    inst = diamond()
    assert spf.count_shortest_paths(inst, uniform_weights(inst), "s", "t") == 2


def test_count_diamond_broken_tie():
    inst = diamond()
    wv = WeightVector({("s", "a"): Fraction(1), ("a", "t"): Fraction(1),
                       ("s", "b"): Fraction(1), ("b", "t"): Fraction(2)})
    assert spf.count_shortest_paths(inst, wv, "s", "t") == 1


def test_walk_back_refuses_a_tied_diamond():
    # An explicit raise, so the check also holds under `python -O`.
    cg = spf.CompiledGraph(diamond())
    _dist, counts, pred = spf.dijkstra_units(cg, [1] * len(cg.tails), cg.index["s"])
    assert counts[cg.index["t"]] == 2
    with pytest.raises(RuntimeError, match="internal: .*non-unique"):
        spf.walk_back_unique(cg, counts, pred, cg.index["s"], cg.index["t"])


def test_dijkstra_counts_match_the_tight_dag_count():
    # The counts kept as nodes settle equal a second pass over the tight
    # links, and every node counted once walks back along tight links.
    rng = random.Random(11)
    for seed in range(40):
        inst = small_random(seed, max_nodes=7)
        cg = spf.CompiledGraph(inst)
        link_of = {pair: e for e, pair in enumerate(zip(cg.tails, cg.heads))}
        wunits = [rng.randint(1, 3) for _ in cg.tails]
        for src in range(len(cg.nodes)):
            dist, counts, pred = spf.dijkstra_units(cg, wunits, src)
            assert counts == spf.count_paths_capped(cg, wunits, dist)
            for dest in range(len(cg.nodes)):
                if counts[dest] != 1:
                    continue
                path = spf.walk_back_unique(cg, counts, pred, src, dest)
                assert (path[0], path[-1]) == (src, dest)
                assert sum(wunits[link_of[step]] for step in zip(path, path[1:])) == dist[dest]


def test_count_single_link():
    inst = two_node()
    assert spf.count_shortest_paths(inst, WeightVector({("a", "b"): Fraction(2)}), "a", "b") == 1


def test_count_origin_to_itself_is_one():
    inst = diamond()
    assert spf.count_shortest_paths(inst, uniform_weights(inst), "s", "s") == 1


def test_count_unreachable_is_an_error():
    inst = mk_instance("abc", [("a", "b", 1), ("c", "a", 1)], [("a", "b", 1)])
    wv = uniform_weights(inst)
    with pytest.raises(UnreachablePathError):
        spf.count_shortest_paths(inst, wv, "a", "c")


def test_count_matches_enumeration_small():
    # Exhaustive simple-path enumeration as the independent oracle, of the
    # counts and of the routing: each demand's unique minimum simple path.
    rng = random.Random(7)
    for seed in range(40):
        inst = small_random(seed, max_nodes=6)
        wv = WeightVector({
            p: Fraction(rng.randint(1, max(1, int(inst.w_max))))
            for p in inst.link_pairs()
        })
        unique = {}
        for demand in inst.demands:
            paths = simple_paths(inst, demand.origin, demand.destination)
            lengths = []
            for nodes in paths:
                lengths.append(sum(wv.values[(a, b)] for a, b in zip(nodes, nodes[1:])))
            best = min(lengths)
            expected = min(2, sum(1 for v in lengths if v == best))
            got = spf.count_shortest_paths(inst, wv, demand.origin, demand.destination)
            assert got == expected
            if expected == 1:
                unique[(demand.origin, demand.destination)] = paths[lengths.index(best)]
        if len(unique) == len(inst.demands):
            assert spf.routing_from_weights(inst, wv).paths == unique
        else:
            with pytest.raises(NonUniqueRoutingError):
                spf.routing_from_weights(inst, wv)


def test_routing_diamond():
    inst = diamond()
    wv = WeightVector({("s", "a"): Fraction(1), ("a", "t"): Fraction(1),
                       ("s", "b"): Fraction(1), ("b", "t"): Fraction(2)})
    forest = spf.routing_from_weights(inst, wv)
    assert forest.paths == {("s", "t"): ("s", "a", "t")}
    assert spf.origin_flows(inst, forest) == {"s": {("s", "a"): Fraction(1), ("a", "t"): Fraction(1)}}
    assert spf.forest_violations(inst, forest) == []


def test_routing_non_unique_raises():
    inst = diamond()
    with pytest.raises(NonUniqueRoutingError):
        spf.routing_from_weights(inst, uniform_weights(inst))


def test_routing_aggregates_shared_links():
    inst = mk_instance(
        ["s", "a", "t"],
        [("s", "a", 10), ("a", "t", 10)],
        [("s", "a", 1), ("s", "t", 2)],
    )
    forest = spf.routing_from_weights(inst, uniform_weights(inst))
    flows = spf.origin_flows(inst, forest)["s"]
    assert flows == {("s", "a"): 3, ("a", "t"): 2}  # both demands share the first hop
    assert spf.forest_violations(inst, forest) == []


def test_used_links_are_tight_and_trees_have_unique_inlinks():
    rng = random.Random(3)
    for seed in range(30):
        inst = small_random(seed)
        wv = WeightVector({
            p: Fraction(rng.randint(1, max(1, int(inst.w_max))))
            for p in inst.link_pairs()
        })
        try:
            forest = spf.routing_from_weights(inst, wv)
        except (NonUniqueRoutingError, spf.UnreachableDemandError):
            continue
        assert spf.forest_violations(inst, forest) == []
        for origin in inst.origins():
            lengths = spf.shortest_path_lengths(inst, wv, origin).dist
            indeg = {}
            for (i, j) in forest.used_links(origin):
                assert lengths[j] == lengths[i] + wv.values[(i, j)]
                indeg[j] = indeg.get(j, 0) + 1
            assert all(v == 1 for v in indeg.values())


ST, SA = ("s", "t"), ("s", "a")
PATHS = {ST: ("s", "t"), SA: ("s", "a")}


def forest_instance():
    """Demands s->t and s->a, each with its direct link; a <-> b, s -> b and
    a -> t besides, and no b -> t."""
    return mk_instance(
        ["s", "a", "b", "t"],
        [("s", "a", 10), ("s", "b", 10), ("a", "b", 10), ("b", "a", 10),
         ("a", "t", 10), ("s", "t", 10)],
        [("s", "t", 1), ("s", "a", 2)],
    )


@pytest.mark.parametrize("paths, problem", [
    ({ST: ("s", "t")}, "path ('s', 'a'): missing"),
    ({**PATHS, ("a", "t"): ("a", "t")}, "path ('a', 't'): no such demand"),
    ({**PATHS, ST: ("s", "a")}, "path ('s', 't'): endpoints do not match"),
    ({**PATHS, ST: ("s", "a", "b", "a", "t")}, "path ('s', 't'): repeats a node"),
    ({**PATHS, ST: ("s", "b", "t")}, "path ('s', 't'): uses a link that is not"),
    ({**PATHS, ST: ("s", "b", "a", "t")}, "origin 's': node 'a' is entered on 2 links"),
], ids=[
    "missing path", "path for no demand", "wrong endpoints", "repeated node",
    "non-instance link", "node entered twice",
])
def test_forest_violations_names_each_broken_invariant(paths, problem):
    inst = forest_instance()
    assert spf.forest_violations(inst, RoutingForest(PATHS)) == []
    report = spf.forest_violations(inst, RoutingForest(paths))
    assert any(problem in line for line in report), report


def test_forest_violations_lists_problems_in_demand_order():
    # The paths are keyed against demand order: origins come in node order,
    # and an origin's nodes as its paths, in demand order, first enter them.
    inst = mk_instance(
        ["s", "a", "b", "t"],
        [("s", "a", 10), ("s", "b", 10), ("a", "b", 10), ("b", "a", 10),
         ("a", "t", 10), ("b", "t", 10), ("t", "a", 10)],
        [("s", "t", 1), ("s", "a", 1), ("b", "t", 1), ("b", "a", 1)],
    )
    paths = {("b", "a"): ("b", "t", "a"), ("b", "t"): ("b", "a", "t"),
             ("s", "a"): ("s", "a"), ("s", "t"): ("s", "b", "a", "t")}
    assert spf.forest_violations(inst, RoutingForest(paths)) == [
        "origin 's': node 'a' is entered on 2 links",
        "origin 'b': node 'a' is entered on 2 links",
        "origin 'b': node 't' is entered on 2 links",
    ]
    broken = {**paths, ("s", "t"): ("s", "t"), ("b", "t"): ("b", "s", "t"), ("t", "s"): ("t", "s")}
    del broken[("b", "a")]
    assert spf.forest_violations(inst, RoutingForest(broken)) == [
        "path ('t', 's'): no such demand",
        "path ('s', 't'): uses a link that is not an instance link",
        "path ('b', 't'): uses a link that is not an instance link",
        "path ('b', 'a'): missing",
    ]


def test_forest_violations_agrees_with_subpath_optimality():
    # Every combination of per-demand simple paths: the forest built from it
    # passes exactly when the routing is sub-path optimal.
    instances = [small_random(seed) for seed in range(40)]
    instances += [generate_random_instance(5, 2, 5, seed=seed) for seed in range(20)]
    counts = {"passed": 0, "failed": 0}
    for inst in instances:
        keys = [(d.origin, d.destination) for d in inst.demands]
        for combo in itertools.product(*(simple_paths(inst, *key) for key in keys)):
            forest = RoutingForest(dict(zip(keys, combo)))
            routing = DemandRouting(tuple(frozenset(zip(p, p[1:])) for p in combo))
            valid = spf.forest_violations(inst, forest) == []
            assert valid == (subpath_optimality_check(inst, routing) == [])
            counts["passed" if valid else "failed"] += 1
    assert min(counts.values()) >= 500, counts


def test_triangle_property_of_lengths():
    rng = random.Random(11)
    for seed in range(20):
        inst = small_random(seed)
        wv = WeightVector({
            p: Fraction(rng.randint(1, max(1, int(inst.w_max))))
            for p in inst.link_pairs()
        })
        for origin in inst.origins():
            lengths = spf.shortest_path_lengths(inst, wv, origin).dist
            for (i, j) in inst.link_pairs():
                if i in lengths and j in lengths:
                    assert lengths[j] <= lengths[i] + wv.values[(i, j)]


def test_objective_single_demand_two_hops():
    inst = mk_instance(["s", "a", "t"], [("s", "a", 10), ("a", "t", 10)], [("s", "t", 1)])
    forest = spf.routing_from_weights(inst, uniform_weights(inst))
    assert spf.evaluate_objective(inst, forest) == 2


def test_objective_empty_demands():
    inst = mk_instance("ab", [("a", "b", 1)], [])
    assert spf.evaluate_objective(inst, RoutingForest({})) == 0


def test_objective_counts_bandwidth_times_hops():
    inst = mk_instance(
        ["s", "a", "b", "t"],
        [("s", "a", 10), ("a", "t", 10), ("s", "b", 10), ("b", "a", 10)],
        [("s", "t", 1), ("b", "t", 2)],
    )
    forest = spf.routing_from_weights(inst, uniform_weights(inst))
    # demand 1: s->a->t (2 hops, d=1); demand 2: b->a->t (2 hops, d=2)
    assert spf.evaluate_objective(inst, forest) == 1 * 2 + 2 * 2
    hops = {k: len(p) - 1 for k, p in forest.paths.items()}
    total = sum(d.bandwidth * hops[(d.origin, d.destination)] for d in inst.demands)
    assert spf.evaluate_objective(inst, forest) == total


def test_capacity_boundary_load_equal_is_feasible():
    inst = mk_instance("ab", [("a", "b", 3)], [("a", "b", 3)])
    forest = spf.routing_from_weights(inst, uniform_weights(inst))
    assert spf.check_capacity(inst, forest) == []


def test_capacity_violation_reports_excess():
    inst = mk_instance("ab", [("a", "b", 2)], [("a", "b", 3)])
    forest = spf.routing_from_weights(inst, uniform_weights(inst))
    violations = spf.check_capacity(inst, forest)
    assert len(violations) == 1
    assert violations[0].excess == 1


def test_max_utilization_cases():
    # loads {3/10, 5/5} -> 1.0
    inst = mk_instance(
        ["s", "a", "b"], [("s", "a", 10), ("s", "b", 5)], [("s", "a", 3), ("s", "b", 5)]
    )
    forest = spf.routing_from_weights(inst, uniform_weights(inst))
    assert spf.max_utilization(inst, forest) == 1
    # loads {8/10, 3/6} -> 0.8
    inst2 = mk_instance(
        ["s", "a", "b"], [("s", "a", 10), ("s", "b", 6)], [("s", "a", 8), ("s", "b", 3)]
    )
    forest2 = spf.routing_from_weights(inst2, uniform_weights(inst2))
    assert spf.max_utilization(inst2, forest2) == Fraction(8, 10)


def test_max_utilization_no_load_is_zero():
    inst = mk_instance("ab", [("a", "b", 1)], [])
    assert spf.max_utilization(inst, RoutingForest({})) == 0


def test_max_utilization_zero_capacity_loaded_errors():
    inst = mk_instance("ab", [("a", "b", 0)], [("a", "b", 1)])
    forest = spf.routing_from_weights(inst, uniform_weights(inst))
    with pytest.raises(ZeroCapacityError):
        spf.max_utilization(inst, forest)


def test_hop_count_weights_uniform():
    inst = diamond(w_min=2, w_max=5)
    wv = spf.hop_count_weights(inst)
    assert set(wv.values.values()) == {Fraction(2)}  # clamp(1) -> w_min
    inst2 = diamond()
    assert set(spf.hop_count_weights(inst2).values.values()) == {Fraction(1)}


def test_inv_cap_equal_capacities_equal_weights():
    inst = mk_instance("abc", [("a", "b", 10), ("b", "c", 10)], [("a", "c", 1)])
    wv = spf.inv_cap_weights(inst)
    assert len(set(wv.values.values())) == 1


def test_inv_cap_scales_and_rounds():
    inst = mk_instance("abc", [("a", "b", 10), ("b", "c", 5)], [("a", "c", 1)])
    wv = spf.inv_cap_weights(inst)
    assert wv.values[("a", "b")] == 1
    assert wv.values[("b", "c")] == 2


def test_inv_cap_zero_capacity_errors():
    inst = mk_instance("ab", [("a", "b", 0)], [])
    with pytest.raises(ZeroCapacityError):
        spf.inv_cap_weights(inst)


def test_weights_file_round_trip():
    inst = diamond()
    wv = WeightVector({("s", "a"): Fraction(1), ("a", "t"): Fraction(3, 2),
                       ("s", "b"): Fraction(1), ("b", "t"): Fraction(2)})
    assert spf.load_weights(spf.save_weights(wv)) == wv


def test_weights_file_golden_bytes():
    wv = WeightVector({("b", "a"): Fraction(1, 3), ("a", "b"): Fraction(5, 2)})
    assert spf.save_weights(wv) == (
        '[\n'
        '  {"tail": "a", "head": "b", "weight": 2.5},\n'
        '  {"tail": "b", "head": "a", "weight": "1/3"}\n'
        ']\n'
    )


def test_weights_file_nested_past_the_recursion_limit_rejected():
    with pytest.raises(spf.InvalidWeightsError, match="nested too deeply"):
        spf.load_weights("[" * 100_000 + "]" * 100_000)


def test_weights_file_duplicate_link_rejected():
    text = ('[{"tail": "s", "head": "a", "weight": 1}, '
            '{"tail": "s", "head": "a", "weight": 9}]')
    with pytest.raises(spf.InvalidWeightsError, match=r"weights\[1\]: duplicate link"):
        spf.load_weights(text)


def test_weights_file_non_numeric_weight_names_field():
    with pytest.raises(spf.InvalidWeightsError, match=r"weights\[0\]\.weight"):
        spf.load_weights('[{"tail": "s", "head": "a", "weight": "heavy"}]')


@pytest.mark.parametrize("weight, message", [
    ("1e4301", r"weights\[0\]\.weight: decimal exponent outside -4300..4300"),
    ('"1e-4301"', r"weights\[0\]\.weight: decimal exponent outside -4300..4300"),
    ("7" * 5000, r"weights\[0\]\.weight: more than 4300 digits"),
    ('"' + "7" * 5000 + '"', r"weights\[0\]\.weight: more than 4300 digits"),
], ids=["decimal-exponent", "string-exponent", "json-integer", "string-integer"])
def test_weights_file_refuses_numbers_past_the_digit_limit(weight, message):
    with pytest.raises(spf.InvalidWeightsError, match=f"^{message}"):
        spf.load_weights(f'[{{"tail": "s", "head": "a", "weight": {weight}}}]')


def test_a_refused_json_weight_names_its_field_as_a_string_does():
    messages = []
    for weight in ("1e30000000", '"1e30000000"'):
        with pytest.raises(spf.InvalidWeightsError, match=r"^weights\[1\]\.weight: ") as refused:
            spf.load_weights('[{"tail": "s", "head": "a", "weight": 1}, '
                             f'{{"tail": "a", "head": "t", "weight": {weight}}}]')
        messages.append(str(refused.value))
    assert messages[0] == messages[1]


def test_weight_validation_rejects_off_grid_and_missing():
    inst = two_node()
    with pytest.raises(spf.InvalidWeightsError):
        spf.shortest_path_lengths(inst, WeightVector({}), "a")
    with pytest.raises(spf.InvalidWeightsError):
        spf.shortest_path_lengths(
            inst, WeightVector({("a", "b"): Fraction(3, 2)}), "a"
        )


def test_weight_violations_come_in_instance_link_order():
    inst = generate_random_instance(8, 2, 3, seed=1)
    pairs = inst.link_pairs()
    assert len(pairs) >= 8
    kept = pairs[len(pairs) // 2]
    wv = WeightVector({("x", "y"): Fraction(1), kept: Fraction(1, 3)})
    assert spf.weight_violations(inst, wv) == [
        *(f"link {pair}: missing weight" for pair in pairs if pair != kept),
        "link ('x', 'y'): not an instance link",
        f"link {kept}: weight 1/3 is not an admissible grid point",
    ]


def test_unique_grid_routings_matches_oracle_point_by_point():
    # Each forest the public oracle routes uniquely on the grid is yielded
    # once, with the first vector routing it, in the order of those vectors.
    # Three routes s -> t on the grid {1, 3/2, 2}, beside a link t -> s on
    # no path of s: s has three outcomes and (t, s) is on no axis.
    three_routes = mk_instance(
        ["s", "a", "b", "c", "t"],
        [("s", "a", 10), ("a", "t", 10), ("s", "b", 10), ("b", "t", 10),
         ("s", "c", 10), ("c", "t", 10), ("t", "s", 10)],
        [("s", "t", 1)],
        w_max=2, step=Fraction(1, 2),
    )
    [(_table, _outcomes, axis)] = origin_tables(three_routes)
    assert ("t", "s") not in axis and len(axis) == 6
    assert len(list(spf.unique_grid_routings(three_routes, 10**6))) == 3
    # On the grid {1, 3/2, 2} no path s -> t of more than floor(2 * 1 / 1)
    # links is ever shortest: the 3-link detour s-a-b-t stays off the axis.
    long_detour = mk_instance(
        ["s", "a", "b", "c", "t"],
        [("s", "t", 10), ("s", "a", 10), ("a", "b", 10), ("b", "t", 10),
         ("s", "c", 10), ("c", "t", 10)],
        [("s", "t", 1)],
        w_max=2, step=Fraction(1, 2),
    )
    assert [axis for _table, _outcomes, axis in origin_tables(long_detour)] == [
        [("s", "t"), ("s", "c"), ("c", "t")]]
    instances = [
        diamond(w_min=1, w_max=3), small_random(7), small_random(10), three_routes, long_detour,
        *(generate_random_instance(3, 2, 2, w_max=3, seed=seed) for seed in range(8)),
        *(generate_random_instance(3, 2, 3, w_min=2, w_max=5, weight_resolution=Fraction(3, 2),
                                   seed=seed) for seed in range(4)),
        *(generate_random_instance(4, 1.75, 2, w_max=3, seed=seed) for seed in (3, 5, 6)),
        *(generate_random_instance(4, 2.5, 2, w_max=2, seed=seed) for seed in (3, 7)),
        *(generate_random_instance(3, 2, 3, w_max=4, seed=seed) for seed in (0, 3)),
        generate_random_instance(3, 2, 2, w_max=2, weight_resolution=Fraction(1, 2), seed=0),
    ]
    for inst in instances:
        points = grid_points(inst.w_min, inst.w_max, inst.weight_resolution)
        pairs = inst.link_pairs()
        expected = []
        for combo in itertools.product(range(len(points)), repeat=len(pairs)):
            weights = WeightVector({p: points[i] for p, i in zip(pairs, combo)})
            try:
                forest = spf.routing_from_weights(inst, weights)
            except (NonUniqueRoutingError, spf.UnreachableDemandError):
                continue
            if all(forest != seen for _combo, seen in expected):
                expected.append((combo, forest))
        assert list(spf.unique_grid_routings(inst, 10**6)) == expected


def origin_tables(inst):
    """Each origin's (table, outcomes, axis links) by `spf._origin_table`,
    on the grid in the integer units `unique_grid_routings` gives it.  The
    table is the outcome id of each setting, decoded from the one bit of
    each mask in `masks[-1]` and checked against `reference_origin_table`
    over its axis; every coarser mask is checked to be the OR of the P
    finer masks of its block."""
    cg = spf.CompiledGraph(inst)
    points = grid_points(inst.w_min, inst.w_max, inst.weight_resolution)
    scale = math.lcm(*(p.denominator for p in points))
    units = [int(p * scale) for p in points]
    n = len(units)
    out = []
    for origin in inst.origins():
        src = cg.index[origin]
        dests = [cg.index[d.destination] for d in inst.demands_from(origin)]
        masks, outcomes, axis = spf._origin_table(cg, units, src, dests)
        assert [len(level) for level in masks] == [n**f for f in range(len(axis) + 1)]
        assert all(m and m & (m - 1) == 0 for m in masks[-1])
        table = [m.bit_length() - 1 for m in masks[-1]]
        assert masks[0] == [functools.reduce(operator.or_, (1 << i for i in table))]
        for coarse, fine in zip(masks, masks[1:]):
            assert coarse == [
                functools.reduce(operator.or_, fine[p:p + n]) for p in range(0, len(fine), n)
            ]
        reference, reference_outcomes = reference_origin_table(cg, units, src, dests, axis)
        assert (table, outcomes) == (reference.tolist(), reference_outcomes)
        out.append((table, outcomes, [inst.link_pairs()[e] for e in axis]))
    return out


def test_origin_tables_match_one_dijkstra_per_setting():
    # s reaches b but not t: the table is the one entry 0, over no link.
    unreachable = mk_instance(
        "sabt", [("s", "a", 10), ("a", "b", 10), ("t", "a", 10)],
        [("s", "b", 1), ("s", "t", 1)], w_max=3,
    )
    assert origin_tables(unreachable) == [([0], [None], [])]
    # t -> b and b -> a lie on no simple s -> t path, so on no axis.
    off_path = mk_instance(
        "sabt", [("s", "a", 10), ("a", "t", 10), ("t", "b", 10), ("b", "a", 10)],
        [("s", "t", 1)], w_max=3,
    )
    [(table, _outcomes, axis)] = origin_tables(off_path)
    assert len(table) == 3**2 and axis == [("s", "a"), ("a", "t")]
    # A single candidate each (two_node, path_graph), and one grid point,
    # one entry per table over an empty axis (w_min = w_max).
    assert [axis for _table, _outcomes, axis in origin_tables(diamond(w_min=2, w_max=2))] == [[]]
    instances = [two_node(), path_graph(4, w_max=3), triangle(w_max=3),
                 triangle(w_min=2, w_max=2)]
    grids = [(1, 2, Fraction(1, 2)), (1, 2, Fraction(1, 3)), (2, 5, Fraction(3, 2)),
             (1, 3, 1), (2, 5, 3)]
    for seed in range(150):
        w_min, w_max, step = grids[seed % len(grids)]
        inst = generate_random_instance(3 + seed % 4, 1.5 + seed % 2 * 0.5, 1 + seed % 4,
                                        w_min=w_min, w_max=w_max, weight_resolution=step,
                                        seed=seed)
        if grid_size(w_min, w_max, step) ** len(inst.links) <= 20_000:
            instances.append(inst)
    assert len(instances) > 100
    for inst in instances:
        origin_tables(inst)


def test_unique_grid_routings_limit_refusal():
    with pytest.raises(spf.GridSearchLimitError, match="exceed grid_limit 3"):
        next(spf.unique_grid_routings(diamond(), 3))


def test_unique_grid_routings_refuses_a_huge_grid_at_once():
    # P = 10^4000 grid points on each of 1,200 links: the refusal multiplies
    # out no more than P itself, and writes no number of 40 digits or more.
    inst = generate_random_instance(300, 4, 3, w_max=10**4000)
    assert len(inst.links) == 1200
    started = time.perf_counter()
    with pytest.raises(spf.GridSearchLimitError) as refused:
        next(spf.unique_grid_routings(inst, spf.GRID_LIMIT))
    assert time.perf_counter() - started < 1
    assert 2**13287 < 10**4000 < 2**13288
    assert str(refused.value) == (
        f"at least 2^{13287 * 1200} weight combinations exceed grid_limit 200000"
    )
    # P = 10^30 on 3 links against a limit of 10^50: the running product
    # stops at P^2, past the limit; the limit is given by its bit length.
    wide = mk_instance("sat", [("s", "a", 1), ("a", "t", 1), ("s", "t", 1)], [("s", "t", 1)],
                       w_max=10**30)
    with pytest.raises(spf.GridSearchLimitError) as refused:
        next(spf.unique_grid_routings(wide, 10**50))
    assert str(refused.value) == (
        f"{10**30}^3 weight combinations exceed grid_limit of {(10**50).bit_length()} bits"
    )


@pytest.mark.parametrize("limit", [float("nan"), -1, True, 10.0])
def test_unique_grid_routings_refuses_a_limit_that_is_no_count(limit):
    with pytest.raises(ValueError, match="grid_limit must be a non-negative integer"):
        next(spf.unique_grid_routings(diamond(), limit))


def test_origin_table_axis_holds_only_candidate_links():
    inst = mk_instance(
        ["s", "a", "b", "t", "d", "e", "u"],
        [("s", "a", 10), ("a", "t", 10), ("s", "b", 10), ("b", "s", 10),
         ("a", "d", 10), ("d", "e", 10), ("u", "s", 10)],
        [("s", "t", 1)],
    )
    # b -> s enters the origin, so s -> b leads to no simple path to t;
    # a -> d and d -> e lead to a dead end; u is not reachable from s.
    assert [axis for _table, _outcomes, axis in origin_tables(inst)] == [[("s", "a"), ("a", "t")]]
