import dataclasses
import gc
import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    all_routings,
    assert_endpoint_conditions,
    coarse_grid_triangle,
    diamond,
    diamond_chain,
    mk_instance,
    path_graph,
    random_cycle,
    random_tree_routing,
    simple_paths,
    small_random,
    triangle,
    two_node,
)
from uspr import lp, solver, spf
from uspr.instance import generate_random_instance
from uspr.rational import grid_points
from uspr.solver import (
    ConservationError,
    DemandRouting,
    MalformedForestError,
    RoutingLoopError,
    SolverConfig,
    SubpathOptimalityError,
    benders_solve,
    brute_force_solve,
    demand_routing_violations,
    demand_to_origin,
    master_search,
    origin_to_demand,
    routing_objective,
    strip_loops,
    subpath_optimality_check,
)
from uspr.spf import RoutingForest, WeightVector

F = Fraction


def pathset(*pairs):
    return frozenset(pairs)


# ---------------------------------------------------------------------------
# strip_loops


def cycle_instance():
    return mk_instance(
        ["s", "t", "c1", "c2", "c3"],
        [("s", "t", 10), ("c1", "c2", 10), ("c2", "c3", 10), ("c3", "c1", 10)],
        [("s", "t", 1)],
    )


def test_strip_removes_disjoint_cycle_keeps_path():
    inst = cycle_instance()
    routing = DemandRouting((pathset(("s", "t"), ("c1", "c2"), ("c2", "c3"), ("c3", "c1")),))
    stripped = strip_loops(inst, routing)
    assert stripped.links[0] == pathset(("s", "t"))
    assert routing_objective(inst, stripped) < routing_objective(inst, routing)


def test_strip_is_identity_on_loop_free():
    inst = diamond()
    routing = DemandRouting((pathset(("s", "a"), ("a", "t")),))
    assert strip_loops(inst, routing) == routing


def test_strip_rejects_cycle_only_routing():
    inst = cycle_instance()
    routing = DemandRouting((pathset(("c1", "c2"), ("c2", "c3"), ("c3", "c1")),))
    with pytest.raises(ConservationError):
        strip_loops(inst, routing)


def test_strip_randomized_loop_injection():
    rng = random.Random(42)
    done = 0
    for seed in range(200):
        if done >= 120:
            break
        inst = small_random(seed)
        routing = random_tree_routing(inst, rng)
        k = rng.randrange(len(inst.demands))
        cycle = random_cycle(inst, rng, avoid=routing.links[k])
        if cycle is None:
            continue
        done += 1
        looped = DemandRouting(
            routing.links[:k]
            + (routing.links[k] | frozenset(cycle),)
            + routing.links[k + 1:]
        )
        stripped = strip_loops(inst, looped)
        solver.routing_paths(inst, stripped)  # raises on any cycle left
        assert solver._balance_violations(inst, stripped) == []
        assert routing_objective(inst, stripped) < routing_objective(inst, looped)
    assert done >= 50


# Four links the diamond lacks, in a balanced s -> t selection.
_FOREIGN_SELECTION = (("s", "t"), ("a", "b"), ("b", "a"), ("t", "b"), ("b", "t"))
_FOREIGN_MESSAGE = "; ".join(
    f"demand 0: {pair} is not an instance link"
    for pair in (("a", "b"), ("b", "a"), ("s", "t"), ("t", "b"))
)


def test_non_instance_links_are_listed_in_sorted_order():
    inst = diamond()
    routing = DemandRouting((frozenset(_FOREIGN_SELECTION),))
    for check in (strip_loops, solver.routing_paths, demand_to_origin):
        with pytest.raises(ConservationError) as info:
            check(inst, routing)
        assert str(info.value) == _FOREIGN_MESSAGE


def test_conservation_message_does_not_depend_on_the_hash_seed():
    # A frozenset of string pairs iterates in hash order, which changes with
    # the hash seed; the message must not.
    script = (
        "from conftest import diamond\n"
        "from uspr.solver import ConservationError, DemandRouting, strip_loops\n"
        f"routing = DemandRouting((frozenset({_FOREIGN_SELECTION!r}),))\n"
        "try:\n"
        "    strip_loops(diamond(), routing)\n"
        "except ConservationError as exc:\n"
        "    print(exc)\n"
    )
    path = os.pathsep.join([str(Path(solver.__file__).parents[1]), str(Path(__file__).parent)])
    for seed in "1234":
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout == _FOREIGN_MESSAGE + "\n"


def test_demand_routing_violations_messages():
    inst = diamond()
    assert demand_routing_violations(inst, DemandRouting(())) == [
        "routing covers 0 demands, instance has 1"
    ]
    over = DemandRouting((pathset(("s", "a"), ("a", "t")),))
    assert demand_routing_violations(diamond(cap=Fraction(1, 2)), over) == [
        "link ('s', 'a'): load 1 exceeds capacity 1/2",
        "link ('a', 't'): load 1 exceeds capacity 1/2",
    ]
    # Two demands from s enter t on different links.
    inst = mk_instance(
        "sabtu",
        [("s", "a", 10), ("a", "t", 10), ("s", "b", 10), ("b", "t", 10), ("t", "u", 10)],
        [("s", "t", 1), ("s", "u", 1)],
    )
    split = DemandRouting((
        pathset(("s", "a"), ("a", "t")),
        pathset(("s", "b"), ("b", "t"), ("t", "u")),
    ))
    assert demand_routing_violations(inst, split) == [
        "origin 's': node 't' entered via 2 links"
    ]


@pytest.mark.parametrize("links, kept", [
    # Cycles a-c-t-a and t-a-b-t both touch the path: two loop-free paths
    # are left, and the walk leaves a on its smallest link, to b.
    ([("s", "a"), ("a", "b"), ("b", "t"), ("a", "c"), ("c", "t"), ("t", "a")],
     ("s", "a", "b", "t")),
    # A cycle through the origin: the walk leaves s to a, re-enters s, cuts
    # s-a-s out and leaves s again, to t.
    ([("s", "a"), ("a", "s"), ("s", "t")], ("s", "t")),
    # A cycle through the destination: the walk stops on reaching t.
    ([("s", "a"), ("a", "t"), ("t", "b"), ("b", "t")], ("s", "a", "t")),
])
def test_strip_keeps_the_path_of_the_walk(links, kept):
    names = ["s", "a", "b", "c", "t"]
    inst = mk_instance(
        names, [(u, v, 10) for u in names for v in names if u != v], [("s", "t", 1)]
    )
    looped = DemandRouting((frozenset(links),))
    stripped = strip_loops(inst, looped)
    assert stripped.links[0] == frozenset(zip(kept, kept[1:]))
    assert solver.routing_paths(inst, stripped) == {("s", "t"): kept}
    with pytest.raises(RoutingLoopError):
        solver.routing_paths(inst, looped)


# ---------------------------------------------------------------------------
# demand_to_origin / origin_to_demand


def shared_link_instance():
    return mk_instance(
        ["s", "a", "t"],
        [("s", "a", 10), ("a", "t", 10)],
        [("s", "a", 1), ("s", "t", 2)],
    )


def test_demand_to_origin_aggregates_flows():
    inst = shared_link_instance()
    routing = DemandRouting((pathset(("s", "a")), pathset(("s", "a"), ("a", "t"))))
    forest = demand_to_origin(inst, routing)
    assert spf.origin_flows(inst, forest) == {"s": {("s", "a"): 3, ("a", "t"): 2}}
    assert spf.forest_violations(inst, forest) == []


def test_demand_to_origin_single_demand():
    inst = diamond()
    routing = DemandRouting((pathset(("s", "b"), ("b", "t")),))
    forest = demand_to_origin(inst, routing)
    assert forest.paths[("s", "t")] == ("s", "b", "t")
    assert spf.origin_flows(inst, forest) == {"s": {("s", "b"): F(1), ("b", "t"): F(1)}}


def test_demand_to_origin_raises_when_its_forest_fails_the_check(monkeypatch):
    # An explicit raise, so the check also holds under `python -O`.
    monkeypatch.setattr(spf, "forest_violations", lambda inst, forest: ["planted problem"])
    routing = DemandRouting((pathset(("s", "b"), ("b", "t")),))
    with pytest.raises(RuntimeError, match="internal: .*planted problem"):
        demand_to_origin(diamond(), routing)


def test_demand_to_origin_rejects_divergent_entries():
    inst = mk_instance(
        ["s", "a", "b", "m", "t"],
        [("s", "a", 10), ("s", "b", 10), ("a", "m", 10), ("b", "m", 10), ("m", "t", 10)],
        [("s", "t", 1), ("s", "m", 1)],
    )
    routing = DemandRouting((
        pathset(("s", "a"), ("a", "m"), ("m", "t")),
        pathset(("s", "b"), ("b", "m")),  # enters m on a different link
    ))
    with pytest.raises(SubpathOptimalityError) as err:
        demand_to_origin(inst, routing)
    assert err.value.origin == "s"
    assert err.value.node == "m"


def test_demand_to_origin_rejects_a_cycle_on_the_path():
    # a is entered on two links, but the cycle is what is reported.
    inst = mk_instance(
        ["s", "a", "x", "t"],
        [("s", "a", 10), ("a", "x", 10), ("x", "a", 10), ("a", "t", 10)],
        [("s", "t", 1)],
    )
    routing = DemandRouting((pathset(("s", "a"), ("a", "x"), ("x", "a"), ("a", "t")),))
    with pytest.raises(RoutingLoopError):
        demand_to_origin(inst, routing)


def test_demand_to_origin_rejects_a_disjoint_cycle():
    routing = DemandRouting((pathset(("s", "t"), ("c1", "c2"), ("c2", "c3"), ("c3", "c1")),))
    with pytest.raises(RoutingLoopError):
        demand_to_origin(cycle_instance(), routing)


def test_subpath_check_flags_divergent_merge():
    # five nodes: both demands from s pass node m but enter it differently
    inst = mk_instance(
        ["s", "a", "b", "m", "t"],
        [("s", "a", 10), ("s", "b", 10), ("a", "m", 10), ("b", "m", 10), ("m", "t", 10)],
        [("s", "t", 1), ("s", "m", 1)],
    )
    routing = DemandRouting((
        pathset(("s", "a"), ("a", "m"), ("m", "t")),
        pathset(("s", "b"), ("b", "m")),
    ))
    violations = subpath_optimality_check(inst, routing)
    assert len(violations) == 1
    assert violations[0].origin == "s"
    assert violations[0].node == "m"
    with pytest.raises(SubpathOptimalityError):
        demand_to_origin(inst, routing)


def test_subpath_check_single_demand_empty():
    inst = diamond()
    routing = DemandRouting((pathset(("s", "a"), ("a", "t")),))
    assert subpath_optimality_check(inst, routing) == []


def test_origin_to_demand_diamond():
    inst = diamond()
    forest = RoutingForest({("s", "t"): ("s", "a", "t")})
    routing = origin_to_demand(inst, forest)
    assert routing.links == (pathset(("s", "a"), ("a", "t")),)


def test_origin_to_demand_adjacent_destination():
    inst = two_node()
    forest = RoutingForest({("a", "b"): ("a", "b")})
    assert origin_to_demand(inst, forest).links == (pathset(("a", "b")),)


def test_origin_to_demand_malformed_forests():
    # A node entered on two links, and a path with a cycle.
    two_demands = mk_instance(
        ["s", "a", "b", "t"],
        [("s", "a", 1), ("a", "t", 1), ("s", "b", 1), ("b", "t", 1), ("b", "a", 1)],
        [("s", "t", 1), ("s", "a", 1)],
    )
    two_inlinks = RoutingForest({("s", "t"): ("s", "a", "t"), ("s", "a"): ("s", "b", "a")})
    with pytest.raises(MalformedForestError, match="node 'a' is entered on 2 links"):
        origin_to_demand(two_demands, two_inlinks)
    cyc = mk_instance(
        ["s", "a", "b", "t"],
        [("s", "a", 1), ("a", "b", 1), ("b", "a", 1), ("a", "t", 1), ("b", "t", 1)],
        [("s", "t", 1)],
    )
    cyclic = RoutingForest({("s", "t"): ("s", "a", "b", "a", "t")})
    with pytest.raises(MalformedForestError, match=r"path \('s', 't'\): repeats a node"):
        origin_to_demand(cyc, cyclic)


def complete_digraph(names, demands):
    links = [(u, v, 1000) for u in names for v in names if u != v]
    return mk_instance(names, links, demands)


def test_round_trip_exhaustive_small():
    cases = [
        complete_digraph("abcd", [("a", "c", 1), ("a", "d", 2), ("b", "d", 1)]),
        complete_digraph("abcd", [("a", "b", 1), ("a", "c", 1), ("a", "d", 1)]),
        mk_instance(
            ["s", "a", "b", "m", "t"],
            [("s", "a", 1000), ("s", "b", 1000), ("a", "m", 1000), ("b", "m", 1000),
             ("m", "t", 1000), ("a", "t", 1000), ("t", "s", 1000)],
            [("s", "t", 1), ("s", "m", 2), ("a", "t", 1)],
        ),
    ]
    checked = 0
    for inst in cases:
        for routing in all_routings(inst):
            forest = demand_to_origin(inst, routing)
            assert spf.forest_violations(inst, forest) == []
            assert spf.check_capacity(inst, forest) == []
            back = origin_to_demand(inst, forest)
            assert back == routing
            assert demand_routing_violations(inst, back) == []
            assert_endpoint_conditions(inst, routing, forest)
            checked += 1
    assert checked > 50


def test_objective_preserved_by_mappings():
    rng = random.Random(17)
    for seed in range(40):
        inst = small_random(seed)
        routing = random_tree_routing(inst, rng)
        forest = demand_to_origin(inst, routing)
        assert spf.evaluate_objective(inst, forest) == routing_objective(inst, routing)
        back = origin_to_demand(inst, forest)
        assert routing_objective(inst, back) == routing_objective(inst, routing)


# ---------------------------------------------------------------------------
# master_search


def test_master_diamond_two_tied_candidates():
    inst = diamond()
    candidates = list(master_search(inst))
    assert len(candidates) == 2
    objectives = [spf.evaluate_objective(inst, c) for c in candidates]
    assert objectives == [F(2), F(2)]
    paths = {c.paths[("s", "t")] for c in candidates}
    assert paths == {("s", "a", "t"), ("s", "b", "t")}


def test_master_zero_capacity_prunes_one_arm():
    inst = mk_instance(
        ["s", "a", "b", "t"],
        [("s", "a", 10), ("a", "t", 10), ("s", "b", 0), ("b", "t", 10)],
        [("s", "t", 1)],
    )
    candidates = list(master_search(inst))
    assert len(candidates) == 1
    assert candidates[0].paths[("s", "t")] == ("s", "a", "t")


def test_master_cut_excludes_candidate():
    inst = diamond()
    first = next(master_search(inst))
    cut = solver.NoGoodCut(frozenset(
        (s, pair, int(pair in first.used_links(s)))
        for s in inst.origins() for pair in inst.link_pairs()
    ))
    remaining = list(master_search(inst, cuts=[cut]))
    assert len(remaining) == 1
    assert remaining[0].paths != first.paths


def test_master_cut_prunes_once_its_origins_are_complete():
    # A cut binding only origin s removes every complete assignment with s's
    # first arm, whichever path origin c takes.
    inst = mk_instance(
        ["s", "a", "b", "t", "c", "d", "e"],
        [("s", "a", 10), ("a", "t", 10), ("s", "b", 10), ("b", "t", 10),
         ("c", "d", 10), ("c", "e", 10), ("e", "d", 10)],
        [("s", "t", 1), ("c", "d", 1)],
    )
    stats = {}
    cut = solver.NoGoodCut(frozenset({("s", ("s", "a"), 1)}))
    remaining = list(master_search(inst, cuts=[cut], stats=stats))
    assert [c.paths[("s", "t")] for c in remaining] == [("s", "b", "t")] * 2


def test_master_demand_free_instance_yields_one_empty_forest():
    inst = mk_instance("ab", [("a", "b", 1)], [])
    stats = {}
    assert list(master_search(inst, stats=stats)) == [RoutingForest({})]
    assert stats["combinations"] == 1
    assert list(master_search(inst, cuts=[solver.NoGoodCut(frozenset())])) == []
    for result in (benders_solve(inst), brute_force_solve(inst)):
        assert result.status == "Optimal" and result.objective == 0


def test_master_emits_nondecreasing_objectives():
    for seed in range(12):
        inst = small_random(seed)
        objectives = [
            spf.evaluate_objective(inst, c) for c in master_search(inst)
        ]
        assert objectives == sorted(objectives)


def test_master_candidates_satisfy_model_constraints():
    for seed in range(10):
        inst = small_random(seed)
        for candidate in master_search(inst):
            assert spf.forest_violations(inst, candidate) == []
            assert spf.check_capacity(inst, candidate) == []


def test_master_empty_when_destination_unreachable():
    inst = mk_instance("abc", [("a", "b", 5), ("c", "a", 5)], [("a", "c", 1)])
    assert list(master_search(inst)) == []


def test_master_incumbent_bound_stops_stream():
    inst = diamond()
    assert len(list(master_search(inst, incumbent_bound=F(2)))) == 2
    assert list(master_search(inst, incumbent_bound=F(1))) == []


def _breaks_segment_rule(inst, routing):
    """The master's segment check, applied path by path to a whole routing."""
    table = {}
    for nodes in solver.routing_paths(inst, routing).values():
        if solver.segment_conflict(table, nodes):
            return True
        table = solver.add_segments(table, nodes)
    return False


def test_segment_rule_rejects_only_lp_infeasible_forests():
    # Every routed path through u and then v shares the unique shortest u->v
    # segment, so a forest that breaks the rule has no feasible
    # path-length system, on any grid and with any capacities.
    rejected = feasible = 0
    for options in ({}, {"capacity_range": (5, 20)},
                    {"w_min": 2, "w_max": 5, "weight_resolution": 3}):
        for seed in range(10):
            inst = generate_random_instance(5, 2, 3, seed=seed, **options)
            for routing in all_routings(inst):
                forest = demand_to_origin(inst, routing)
                system, _ = lp.path_length_system(inst, forest)
                breaks = _breaks_segment_rule(inst, routing)
                if lp.solve_feasibility(system).feasible:
                    assert not breaks
                    feasible += 1
                else:
                    rejected += breaks
    assert rejected and feasible


def test_master_emits_every_consistent_routing_once():
    # The search drops only capacity violations and segment conflicts: its
    # candidates are exactly the other routings, each once, cheapest first.
    for options, seed in itertools.product(({}, {"capacity_range": (5, 20)}), range(10)):
        inst = generate_random_instance(5, 2, 3, seed=seed, **options)
        expected = sorted(
            (routing_objective(inst, r), sorted(solver.routing_paths(inst, r).items()))
            for r in all_routings(inst)
            if not _breaks_segment_rule(inst, r)
            and not spf.check_capacity(inst, demand_to_origin(inst, r))
        )
        got = [(spf.evaluate_objective(inst, c), sorted(c.paths.items())) for c in master_search(inst)]
        assert [objective for objective, _ in got] == [objective for objective, _ in expected]
        assert sorted(got) == expected


def test_master_and_grid_forests_derive_their_objective_and_flows():
    # A forest stores only its paths.  The objective summed over its flows
    # is its routing's, and each origin's flows meet OBM's `fc` rows: at
    # every node, inflow minus outflow is the node's net demand.
    checked = 0
    for seed in range(40):
        inst = small_random(seed)
        forests = list(master_search(inst))
        forests += [f for _combo, f in spf.unique_grid_routings(inst, spf.GRID_LIMIT)]
        for forest in forests:
            routing = origin_to_demand(inst, forest)
            assert spf.evaluate_objective(inst, forest) == routing_objective(inst, routing)
            for origin, tree in spf.origin_flows(inst, forest).items():
                net = {d.destination: d.bandwidth for d in inst.demands_from(origin)}
                net[origin] = -inst.origin_bandwidth(origin)
                balance = dict.fromkeys(inst.nodes, F(0))
                for (i, j), flow in tree.items():
                    balance[j] += flow
                    balance[i] -= flow
                assert balance == {node: net.get(node, F(0)) for node in inst.nodes}
            checked += 1
    assert checked > 100, checked


def test_path_stream_lists_simple_paths_by_hops_then_dfs_order():
    for seed in range(10):
        inst = generate_random_instance(7, 2.5, 6, seed=seed)
        cg = spf.CompiledGraph(inst)
        for d in inst.demands:
            origin, destination = cg.index[d.origin], cg.index[d.destination]
            dist = spf.hop_distances(cg, destination)
            stream = spf.PathStream(cg, dist, origin, destination)
            listed = []
            while (path := stream.get(len(listed))) is not None:
                listed.append(tuple(inst.nodes[v] for v in path[0]))
            assert listed == sorted(simple_paths(inst, d.origin, d.destination), key=len)


def test_benders_solves_a_path_longer_than_the_recursion_limit():
    result = benders_solve(path_graph(1005, w_max=2))
    assert result.status == "Optimal"
    assert result.objective == 1004


def test_master_first_candidate_lists_few_paths(monkeypatch):
    # (24,3,20)s0 has 250 927 simple paths over its demands; the first
    # candidate (the optimum) needs only the short ones.
    listed = []
    list_hops = spf.PathStream._list

    def counted(stream, hops):
        before = len(stream.paths)
        list_hops(stream, hops)
        listed.append(len(stream.paths) - before)

    monkeypatch.setattr(spf.PathStream, "_list", counted)
    inst = generate_random_instance(24, 3, 20, seed=0)
    first = next(master_search(inst))
    assert spf.evaluate_objective(inst, first) == F(7822, 25)
    assert sum(listed) < 1_000


@pytest.mark.parametrize("shape, options, status, objective", [
    ((9, 2, 8, 12), {}, "Optimal", F(3043, 25)),
    ((8, 2, 8, 1), {}, "Optimal", F(3004, 25)),
    ((7, 2.5, 6, 19), {}, "Infeasible", None),
    ((7, 2, 6, 1), {"capacity_range": (5, 20)}, "Infeasible", None),
])
def test_segment_rule_leaves_no_lp_to_cut(shape, options, status, objective):
    # These answers took 3 to 5 cuts when only one origin's paths were
    # checked against each other; now the first candidate is optimal, or the
    # master is empty.
    nodes, degree, demands, seed = shape
    result = benders_solve(generate_random_instance(nodes, degree, demands, seed=seed, **options))
    assert (result.status, result.objective) == (status, objective)
    assert result.diagnostics.details["lp_solves"] == (status == "Optimal")
    assert result.diagnostics.cuts_added == 0


# ---------------------------------------------------------------------------
# benders_solve / brute_force_solve


def test_benders_diamond_optimal():
    result = benders_solve(diamond())
    assert result.status == "Optimal"
    assert result.objective == 2
    assert spf.routing_from_weights(diamond(), result.weights) == result.forest


def test_benders_fixed_weights_symmetric_infeasible():
    result = benders_solve(diamond(w_min=2, w_max=2))
    assert result.status == "Infeasible"
    assert result.diagnostics.cuts_added == 2  # both arms tried and cut


def test_benders_core_cuts_shorten_the_cut_loop():
    # Every weight is 2, so either arm of the s->t diamond ties with the
    # other.  A cut on an irreducible core binds only origin s's arm, so it
    # also removes the later candidate that pairs that arm with c->e->d:
    # two iterations for four candidates, where cutting only the candidate
    # itself would take four.
    inst = mk_instance(
        ["s", "a", "b", "t", "c", "d", "e"],
        [("s", "a", 10), ("a", "t", 10), ("s", "b", 10), ("b", "t", 10),
         ("c", "d", 10), ("c", "e", 10), ("e", "d", 10)],
        [("s", "t", 1), ("c", "d", 1)],
        w_min=2, w_max=2,
    )
    assert len(list(master_search(inst))) == 4
    result = benders_solve(inst)
    assert result.status == brute_force_solve(inst).status == "Infeasible"
    assert result.diagnostics.iterations == result.diagnostics.cuts_added == 2


def test_benders_sparse_simplex_keeps_objectives_and_pivot_counts():
    # One feasible LP per answer; the pivot counts pin Bland's rule, so any
    # change to the entering or leaving choice shows here.  They also pin
    # the presolve: a weight no tree uses is fixed at w_max and has no column.
    for (nodes, degree, demands, seed), objective, pivots in (
        ((10, 2, 10, 0), F(11229, 100), 45),
        ((10, 2, 10, 1), F(13957, 100), 45),
        ((8, 2, 8, 2), F(11733, 100), 39),
        ((16, 3, 12, 0), F(8383, 50), 91),
    ):
        result = benders_solve(generate_random_instance(nodes, degree, demands, seed=seed))
        assert (result.status, result.objective) == ("Optimal", objective)
        assert result.diagnostics.details["lp_solves"] == 1
        assert result.diagnostics.details["lp_pivots"] == pivots
    # A fractional eps (resolution 1/2) gives rows with a denominator of 2;
    # a coarse grid makes recovery branch over 16 LPs (two candidates, one
    # cut).  A fixed weight is on the grid, so it is never branched on.
    for shape, options, objective, lp_solves, pivots in (
        ((6, 2, 5, 3), {"weight_resolution": F(1, 2)}, F(6139, 100), 1, 14),
        ((7, 2.6, 5, 24), {"w_min": 2, "w_max": 5, "weight_resolution": 3}, F(7241, 100), 16, 1292),
    ):
        nodes, degree, demands, seed = shape
        result = benders_solve(generate_random_instance(nodes, degree, demands, seed=seed, **options))
        assert (result.status, result.objective) == ("Optimal", objective)
        assert result.diagnostics.details["lp_solves"] == lp_solves
        assert result.diagnostics.details["lp_pivots"] == pivots


def test_benders_matches_brute_force_on_coarse_grids(monkeypatch):
    # w_min is not a multiple of the resolution, so eps = gcd(w_min,
    # resolution) is below the resolution and snapped LP weights can miss the
    # forest: recovery's branch-and-bound must then agree with brute force too.
    stages = []
    recover = lp.recover_weights

    def recording(*args, **kwargs):
        result = recover(*args, **kwargs)
        stages.append(result.stage)
        return result

    monkeypatch.setattr(lp, "recover_weights", recording)
    for w_min, w_max, resolution in ((2, 5, 3), (5, 9, 4)):
        for shape in ((4, 1.5, 3), (5, 2, 4)):
            for seed in range(15):
                inst = generate_random_instance(
                    *shape, w_min=w_min, w_max=w_max, weight_resolution=resolution, seed=seed
                )
                fast, reference = benders_solve(inst), brute_force_solve(inst)
                assert (fast.status, fast.objective) == (reference.status, reference.objective)
    assert "branch" in stages


def test_benders_matches_brute_force_beyond_the_old_grid_limit():
    # 18 links on the grid {2, 5}: 2**18 weight vectors.  The first
    # candidate is LP-feasible but grid-infeasible, so it is cut on the union
    # of its branch-and-bound leaves' cores before the optimum is recovered.
    inst = generate_random_instance(7, 2.6, 5, w_min=2, w_max=5, weight_resolution=3, seed=24)
    first = lp.recover_weights(inst, next(master_search(inst)))
    assert first.status == "grid_infeasible"
    fast = benders_solve(inst)
    reference = brute_force_solve(inst, grid_limit=2**18)
    assert (fast.status, fast.objective) == ("Optimal", F(7241, 100))
    assert (reference.status, reference.objective) == (fast.status, fast.objective)


def test_benders_single_path_one_iteration():
    result = benders_solve(path_graph(4))
    assert result.status == "Optimal"
    assert result.diagnostics.iterations == 1
    assert result.diagnostics.cuts_added == 0
    assert result.objective == 3


def test_benders_deterministic():
    a = benders_solve(small_random(5))
    b = benders_solve(small_random(5))
    assert a.status == b.status
    assert a.objective == b.objective
    assert a.weights == b.weights
    assert a.forest == b.forest


def test_benders_node_limit_exhausts():
    result = benders_solve(diamond(), SolverConfig(node_limit=0))
    assert result.status == "BoundsExhausted"
    assert result.weights is None


def test_benders_time_limit_exhausts():
    result = benders_solve(diamond(), SolverConfig(time_limit=0.0))
    assert result.status == "BoundsExhausted"


@pytest.mark.parametrize("limits, field", [
    ({"time_limit": float("nan")}, "time_limit"),
    ({"time_limit": -1.0}, "time_limit"),
    ({"node_limit": -3}, "node_limit"),
])
def test_solver_config_refuses_malformed_limits(limits, field):
    with pytest.raises(ValueError, match=field):
        SolverConfig(**limits)


def test_solver_config_accepts_unbounded_and_zero_limits():
    assert SolverConfig(time_limit=float("inf"), node_limit=0).time_limit == float("inf")
    assert benders_solve(diamond(), SolverConfig(time_limit=float("inf"))).status == "Optimal"


def test_brute_force_diamond_sixteen_combos():
    result = brute_force_solve(diamond(w_min=1, w_max=2))
    assert result.status == "Optimal"
    assert result.objective == 2
    assert result.diagnostics.iterations == 16
    # lexicographically smallest optimal vector under the link order
    assert result.weights.values == {
        ("s", "a"): F(1), ("a", "t"): F(1), ("s", "b"): F(1), ("b", "t"): F(2)
    }


def test_brute_force_all_non_unique_infeasible():
    result = brute_force_solve(diamond(w_min=2, w_max=2))
    assert result.status == "Infeasible"
    assert result.diagnostics.iterations == 1


def test_brute_force_single_link():
    result = brute_force_solve(two_node())
    assert result.status == "Optimal"
    assert result.objective == 1  # d_k times one hop


def test_brute_force_grid_limit_refusal():
    with pytest.raises(spf.GridSearchLimitError):
        brute_force_solve(diamond(), grid_limit=10)


def test_solves_leave_no_cyclic_garbage():
    # The grid sweeps are closures that refer to themselves; each is
    # deleted after its run, so with the collector off both solvers leave
    # nothing for it to free.  The main grid benchmark instances, and a
    # one-point grid, whose origins are decided by one Dijkstra run each.
    instances = [
        generate_random_instance(5, 1.6, 4, w_max=4, seed=0),
        generate_random_instance(5, 2, 4, w_max=3, seed=0),
        generate_random_instance(6, 1.5, 5, w_max=3, seed=1),
        triangle(w_min=2, w_max=2),
    ]
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for inst in instances:
            brute = brute_force_solve(inst)
            assert benders_solve(inst).objective == brute.objective
        del brute
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def naive_brute_force(inst):
    """Reference: route every grid vector through the public oracle, in
    lexicographic order, keeping the first capacity-feasible minimum."""
    points = grid_points(inst.w_min, inst.w_max, inst.weight_resolution)
    pairs = inst.link_pairs()
    best = None
    for combo in itertools.product(points, repeat=len(pairs)):
        weights = WeightVector(dict(zip(pairs, combo)))
        try:
            forest = spf.routing_from_weights(inst, weights)
        except (spf.NonUniqueRoutingError, spf.UnreachableDemandError):
            continue
        if spf.check_capacity(inst, forest):
            continue
        objective = spf.evaluate_objective(inst, forest)
        if best is None or objective < best[0]:
            best = (objective, weights, forest)
    iterations = len(points) ** len(pairs)
    if best is None:
        return ("Infeasible", None, None, None, iterations)
    return ("Optimal", *best, iterations)


def test_brute_force_matches_naive_reference_loop():
    fractional_grid = mk_instance(
        ["s", "a", "b", "t"],
        [("s", "a", 10), ("a", "t", 10), ("s", "b", 10), ("b", "t", 10), ("a", "b", 10)],
        [("s", "t", 1), ("a", "t", 2)],
        w_min=F(1, 2), w_max=F(3, 2), step=F(1, 2),
    )

    def fractional_bandwidths(cap_sa):
        return mk_instance(
            ["s", "a", "b", "t"],
            [("s", "a", cap_sa), ("a", "t", 2), ("s", "b", F(7, 5)), ("b", "t", F(8, 5)),
             ("s", "t", F(7, 5))],
            [("s", "t", F(3, 2)), ("a", "t", F(1, 2))],
            w_max=3,
        )

    # Bandwidths in halves: s->a and a->t carry exactly their capacity at the
    # optimum, and the direct s->t link (7/5 < 3/2) must stay unused; with
    # s->a at 7/5 too, no route for s->t fits.
    load_at_capacity = fractional_bandwidths(F(3, 2))
    over_capacity = fractional_bandwidths(F(7, 5))
    # a->s enters origin s, x->y leaves a node that reaches no destination.
    off_candidate_links = mk_instance(
        ["s", "a", "t", "x", "y"],
        [("s", "a", 10), ("a", "t", 10), ("s", "t", 10), ("a", "s", 10), ("t", "x", 10),
         ("x", "s", 10), ("x", "y", 10)],
        [("s", "t", 2), ("a", "s", 1)],
        w_max=3,
    )
    zero_demand = mk_instance("abc", [("a", "b", 10), ("b", "c", 10), ("c", "a", 10)], [], w_max=3)
    coarse = [
        generate_random_instance(5, 2, 4, w_min=2, w_max=5, weight_resolution=3, seed=seed)
        for seed in range(3)
    ]
    instances = [fractional_grid, load_at_capacity, over_capacity, off_candidate_links,
                 zero_demand, coarse_grid_triangle(), *coarse]
    for inst in instances:
        got = brute_force_solve(inst)
        assert (got.status, got.objective, got.weights, got.forest,
                got.diagnostics.iterations) == naive_brute_force(inst)
    assert brute_force_solve(over_capacity).status == "Infeasible"
    loads = spf.link_loads(load_at_capacity, brute_force_solve(load_at_capacity).forest)
    assert loads[("s", "a")] == F(3, 2) and loads[("a", "t")] == 2
    zero = brute_force_solve(zero_demand)
    assert zero.objective == 0
    assert set(zero.weights.values.values()) == {zero_demand.w_min}


def test_brute_force_routes_each_origin_once_per_relevant_setting(monkeypatch):
    # (5, 1.6, 4) s0 on the grid 1..4: the links of the three origins'
    # candidate paths number 1, 1 and 3, so the tables hold 4 + 4 + 4^3
    # settings, each decided from candidate paths without Dijkstra; the one
    # Dijkstra call per origin re-routes the optimum; 4^8 = 65 536 vectors.
    calls = []
    dijkstra = spf.dijkstra_units

    def counting(*args):
        calls.append(1)
        return dijkstra(*args)

    monkeypatch.setattr(spf, "dijkstra_units", counting)
    result = brute_force_solve(generate_random_instance(5, 1.6, 4, w_max=4, seed=0))
    assert (result.status, result.objective) == ("Optimal", F(2677, 100))
    assert result.diagnostics.iterations == 4**8
    assert result.diagnostics.details["settings"] == 2 * 4 + 4**3
    assert len(calls) == 3


def test_brute_force_answers_a_one_point_grid_of_2_to_the_30_ties_at_once():
    # With one grid point each origin's table is one Dijkstra run, never a
    # listing of the 2^30 candidate paths.
    started = time.perf_counter()
    result = brute_force_solve(diamond_chain(30))
    assert time.perf_counter() - started < 1
    assert (result.status, result.diagnostics.details) == (
        "Infeasible", {"grid_points": 1, "settings": 1, "visited": 1})


def test_brute_force_sweep_skips_the_vectors_with_no_new_forest():
    # Same instance: the tables take 2 * 4 + 4^3 settings, and the sweep
    # decides all 4^8 vectors from a few dozen prefixes.
    result = brute_force_solve(generate_random_instance(5, 1.6, 4, w_max=4, seed=0))
    details = result.diagnostics.details
    assert result.diagnostics.nodes_explored == 4**8
    assert details["settings"] == 2 * 4 + 4**3
    assert details["visited"] < 4**8 // 100


def test_oracle_equivalence_sample():
    for seed in range(30):
        inst = small_random(seed, tight=seed % 5 == 0)
        b = brute_force_solve(inst, grid_limit=100_000)
        s = benders_solve(inst)
        assert (b.status, b.objective) == (s.status, s.objective)


def test_optimal_solutions_fully_verified():
    for seed in range(15):
        inst = small_random(seed)
        result = benders_solve(inst)
        if result.status != "Optimal":
            continue
        forest = spf.routing_from_weights(inst, result.weights)
        assert forest == result.forest
        assert spf.check_capacity(inst, forest) == []
        assert spf.evaluate_objective(inst, forest) == result.objective
        routing = origin_to_demand(inst, forest)
        assert subpath_optimality_check(inst, routing) == []
        assert demand_routing_violations(inst, routing) == []
        assert_endpoint_conditions(inst, routing, forest)


def test_solution_json_round_trip_fields():
    import json

    inst = diamond()
    result = benders_solve(inst)
    raw = json.loads(solver.solution_to_json(inst, result))
    assert raw["status"] == "Optimal"
    assert raw["objective"] == 2
    assert len(raw["weights"]) == 4
    assert raw["paths"][0]["path"][0] == "s"
    assert raw["diagnostics"]["iterations"] == 1
    # The unused link b->t is fixed at w_max, so the LP has one column less.
    assert raw["diagnostics"]["details"] == {"lp_solves": 1, "lp_pivots": 2}
    oracle = brute_force_solve(inst)
    raw = json.loads(solver.solution_to_json(inst, oracle))
    assert raw["diagnostics"]["details"] == {"grid_points": 10, "settings": 10**4, "visited": 61}


def test_branch_limit_in_recovery_ends_bounds_exhausted(monkeypatch):
    # The first candidate needs three branch nodes; a budget of one must end
    # the solve with an answer instead of an overrun.
    monkeypatch.setattr(lp, "MAX_BRANCH_NODES", 1)
    inst = generate_random_instance(5, 2, 4, w_min=2, w_max=5, weight_resolution=3, seed=9)
    result = benders_solve(inst)
    assert result.status == "BoundsExhausted"
    assert result.diagnostics.details["reason"] == "branch_limit"
    assert result.diagnostics.details["lp_solves"] == 2
    assert result.weights is None and result.objective is None


def _other_diamond_path(path):
    return ("s", "b", "t") if path == ("s", "a", "t") else ("s", "a", "t")


def test_brute_force_rejects_weights_that_route_another_forest(monkeypatch):
    inst = diamond()
    route = spf.routing_from_weights

    def wrong(instance, weights):
        forest = route(instance, weights)
        other = _other_diamond_path(forest.paths[("s", "t")])
        return RoutingForest({("s", "t"): other})

    monkeypatch.setattr(spf, "routing_from_weights", wrong)
    with pytest.raises(RuntimeError):
        brute_force_solve(inst)


def test_benders_rejects_weights_that_route_another_forest(monkeypatch):
    # The weights make the path the candidate does not take the unique shortest.
    inst = diamond()
    recover = lp.recover_weights

    def wrong(instance, forest):
        recovery = recover(instance, forest)
        other = _other_diamond_path(forest.paths[("s", "t")])
        weights = {pair: instance.w_max for pair in instance.link_pairs()}
        weights.update(dict.fromkeys(zip(other, other[1:]), instance.w_min))
        return dataclasses.replace(recovery, weights=WeightVector(weights))

    monkeypatch.setattr(lp, "recover_weights", wrong)
    with pytest.raises(RuntimeError):
        benders_solve(inst)
