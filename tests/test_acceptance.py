"""Acceptance suite: one test per criterion, each printing a PASS line.

Scales and tolerances are fixed here, not calibrated: exact equality
everywhere (all arithmetic is rational), 100 builder instances, 1,000
linearization samples, at least 200 oracle-equivalence instances, and at
least 10,000 randomized trials (or exhaustive enumeration on the small
instances) for the property suites.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    all_routings,
    assert_endpoint_conditions,
    diamond,
    mk_instance,
    model_counts,
    random_cycle,
    random_tree_routing,
    small_random,
    two_node,
)
import oracles
from oracles import (
    DemandRouting,
    demand_routing_violations,
    demand_to_origin,
    linearization_check,
    origin_to_demand,
    routing_objective,
    strip_loops,
    subpath_optimality_check,
)
from uspr import lp, models, spf
from uspr.instance import InstanceDims, generate_random_instance
from uspr.models import build_dbm, build_obm, size_report
from uspr.rational import grid_points
from uspr.solver import benders_solve, brute_force_solve

GOLDEN = Path(__file__).parent / "golden"


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE PASS criterion {criterion}: {text}")


# ---------------------------------------------------------------------------
# Criterion 1: model-size regression at the reference cardinalities.


def test_criterion_1_model_size_regression():
    started = time.perf_counter()
    rep = size_report(InstanceDims(50, 642, 1000, 50))
    expected = {
        "DBM original": (645_142, 1_334_642),
        "DBM master": (642_000, 50_642),
        "OBM master": (32_100, 2_500),
    }
    assert (rep.dbm.total_variables, rep.dbm.total_constraints) == expected["DBM original"]
    assert (rep.dbm_master.total_variables, rep.dbm_master.total_constraints) == expected["DBM master"]
    assert (rep.obm_master.total_variables, rep.obm_master.total_constraints) == expected["OBM master"]
    # both OBM accountings, with the discrepancy flagged
    assert (rep.obm.total_variables, rep.obm.total_constraints) == (67_342, 101_942)
    assert (rep.obm_reduced.total_variables, rep.obm_reduced.total_constraints) == (64_200, 37_742)
    rendered = models.render_size_report(rep)
    assert "disagree" in rendered
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"reference model sizes reproduced exactly in {elapsed * 1000:.1f} ms, "
              "OBM discrepancy flagged")


# ---------------------------------------------------------------------------
# Criterion 2: built models match the closed-form family counts.


def test_criterion_2_builder_formula_agreement():
    checked = 0
    for i in range(100):
        n = 2 + i % 11  # |N| in [2, 12]
        degree = min(1.0 + (i % 5) * 0.4, float(n - 1))
        demands = min(1 + i % 8, n * (n - 1))
        inst = generate_random_instance(
            n, degree, demands, capacity_range=(5, 50), demand_range=(1, 9),
            w_min=1, w_max=8, weight_resolution=1, seed=9000 + i,
        )
        rep = size_report(inst.dims())
        for build, table in ((build_dbm, rep.dbm), (build_obm, rep.obm)):
            actual = model_counts(build(inst))
            assert actual.variables == {k: v for k, v in table.variables.items() if v}
            assert actual.constraints == {k: v for k, v in table.constraints.items() if v}
        checked += 1
    assert checked == 100
    report(2, "100 random instances (|N| in [2,12]): DBM/OBM counts match the "
              "formulas family by family, exactly")


# ---------------------------------------------------------------------------
# Criterion 3: the linearized path-length pair reproduces the logic cases.


def _logic_case_bounds(pattern, eps, big_M):
    used, insum = pattern
    if used == 1:
        return (Fraction(0), Fraction(0), "equal")
    if insum == 1:
        return (-big_M, -eps, "strict")
    return (-big_M, Fraction(0), "slack")


def test_criterion_3_linearization_exactness():
    rng = random.Random(31)
    failures = 0
    samples = 0
    for _ in range(1000):
        n = rng.randint(2, 12)
        resolution = Fraction(rng.randint(1, 4), rng.choice((1, 2, 4)))
        w_max = resolution * rng.randint(1, 12)
        eps = resolution * Fraction(rng.randint(1, 16), 16)
        big_M = (n - 1) * w_max + eps + resolution * rng.randint(0, 5)
        w = resolution * rng.randint(1, 12)
        l_i = resolution * rng.randint(0, 20)
        for pattern in ((0, 0), (0, 1), (1, 1)):
            samples += 1
            case = linearization_check(pattern[0], pattern[1], eps, big_M)
            lo, hi, kind = _logic_case_bounds(pattern, eps, big_M)
            if (case.lower, case.upper, case.relation) != (lo, hi, kind):
                failures += 1
                continue
            # numeric cross-check on q = l_j - (l_i + w): membership in the
            # linearized pair must coincide with the logic case
            probes = [lo - eps, lo, lo + eps / 2, hi - eps / 2, hi,
                      hi + eps / 2, Fraction(0), -eps, -big_M]
            for q in probes:
                l_j = l_i + w + q
                if l_j < 0:
                    continue
                ub_ok = q <= -eps * (pattern[1] - pattern[0])
                lb_ok = q >= -big_M * (1 - pattern[0])
                assert (ub_ok and lb_ok) == (lo <= q <= hi)
        with pytest.raises(ValueError):
            linearization_check(1, 0, eps, big_M)
    assert failures == 0
    assert samples == 3000
    report(3, "1,000 randomized (eps, big_M, w) samples x all binary patterns: "
              "linearization matches the three logic cases, zero failures")


# ---------------------------------------------------------------------------
# Criterion 4: decomposition equals brute force on every small instance.


def _criterion4_params():
    params = []
    for i in range(200):
        tight = i % 5 == 0
        params.append((i, tight))
    return params


@pytest.fixture(scope="session")
def oracle_run():
    results = []
    started = time.perf_counter()
    for seed, tight in _criterion4_params():
        inst = small_random(seed, tight=tight)
        brute = brute_force_solve(inst, grid_limit=100_000)
        benders = benders_solve(inst)
        results.append((inst, benders, brute))
    elapsed = time.perf_counter() - started
    return results, elapsed


def test_criterion_4_oracle_equivalence(oracle_run):
    results, elapsed = oracle_run
    assert len(results) >= 200
    statuses = {"Optimal": 0, "Infeasible": 0}
    for inst, benders, brute in results:
        assert benders.status == brute.status, inst
        assert benders.objective == brute.objective, inst
        statuses[benders.status] = statuses.get(benders.status, 0) + 1
    assert elapsed < 300.0  # the stated five-minute budget
    report(4, f"{len(results)} instances (|N| <= 5, <= 3 grid points/link): "
              f"status and objective equal brute force exactly "
              f"({statuses['Optimal']} optimal, {statuses['Infeasible']} infeasible) "
              f"in {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# Criterion 5: routing-structure property suites.


def test_criterion_5_unique_and_subpath_on_optimal(oracle_run):
    # Exhaustive at |N| <= 5: every admissible weight vector of each instance
    # is enumerated; every unique-routing outcome must be sub-path optimal
    # with per-origin in-degree <= 1 and tight used links.  Optimal solver
    # outputs are then verified through the same oracle.
    results, _ = oracle_run
    vectors_checked = 0
    routings_verified = 0
    for inst, benders, _brute in results[:60]:
        points = grid_points(inst.w_min, inst.w_max, inst.weight_resolution)
        pairs = inst.link_pairs()
        for combo in itertools.product(points, repeat=len(pairs)):
            vectors_checked += 1
            weights = spf.WeightVector(dict(zip(pairs, combo)))
            try:
                forest = spf.routing_from_weights(inst, weights)
            except (spf.NonUniqueRoutingError, spf.UnreachableDemandError):
                continue
            routings_verified += 1
            assert oracles.forest_violations(inst, forest) == []
            routing = origin_to_demand(inst, forest)
            assert subpath_optimality_check(inst, routing) == []
            for origin in inst.origins():
                lengths = oracles.shortest_path_lengths(inst, weights, origin).dist
                for (i, j) in forest.used_links(origin):
                    assert lengths[j] == lengths[i] + weights.values[(i, j)]
    optimal_checked = 0
    for inst, benders, _brute in results:
        if benders.status != "Optimal":
            continue
        optimal_checked += 1
        forest = spf.routing_from_weights(inst, benders.weights)  # unique by oracle
        assert forest == benders.forest
        routing = origin_to_demand(inst, forest)
        assert subpath_optimality_check(inst, routing) == []
    report(5, f"unique-shortest-path + sub-path optimality: exhaustive over "
              f"{vectors_checked} weight vectors ({routings_verified} unique routings) "
              f"and {optimal_checked} optimal solutions; zero violations")


def test_criterion_5_loop_stripping_randomized():
    rng = random.Random(2024)
    instances = [small_random(seed) for seed in range(120)]
    trials = 0
    removed = 0
    while trials < 10_000:
        inst = instances[trials % len(instances)]
        routing = random_tree_routing(inst, rng)
        k = rng.randrange(len(inst.demands))
        cycle = random_cycle(inst, rng, avoid=routing.links[k])
        if cycle is not None and rng.random() < 0.8:
            looped = DemandRouting(
                routing.links[:k]
                + (routing.links[k] | frozenset(cycle),)
                + routing.links[k + 1:]
            )
            injected = True
        else:
            looped = routing
            injected = False
        trials += 1
        stripped = strip_loops(inst, looped)
        oracles.routing_paths(inst, stripped)  # raises on any cycle left
        assert oracles._balance_violations(inst, stripped) == []
        changed = stripped != looped
        decreased = routing_objective(inst, stripped) < routing_objective(inst, looped)
        assert changed == decreased  # strict decrease iff a loop was removed
        if injected:
            assert changed
            removed += 1
    assert trials >= 10_000
    assert removed >= 4_000
    report(5, f"loop stripping: {trials} randomized trials ({removed} with injected "
              "loops): outputs loop-free, objective strictly decreases iff a loop "
              "was removed")


def test_criterion_5_mapping_round_trip_randomized():
    rng = random.Random(77)
    instances = [small_random(seed) for seed in range(200)]
    trials = 0
    while trials < 10_000:
        inst = instances[trials % len(instances)]
        routing = random_tree_routing(inst, rng)
        trials += 1
        forest = demand_to_origin(inst, routing)
        # image satisfies the origin model's structural constraints
        assert oracles.forest_violations(inst, forest) == []
        back = origin_to_demand(inst, forest)
        assert back == routing
        # image satisfies the demand model's constraints (conservation,
        # sub-path optimality; capacity not implied for arbitrary routings)
        assert oracles._balance_violations(inst, back) == []
        assert subpath_optimality_check(inst, back) == []
        assert_endpoint_conditions(inst, routing, forest)
        assert spf.evaluate_objective(inst, forest) == routing_objective(inst, routing)
    report(5, f"origin/demand mapping round trip: {trials} randomized trials, "
              "identity holds, images satisfy both models' constraint sets, "
              "endpoint flow conditions verified")


def test_criterion_5_mapping_round_trip_exhaustive():
    def complete(names, demands):
        links = [(u, v, 1000) for u in names for v in names if u != v]
        return mk_instance(names, links, demands)

    cases = [
        complete("abcd", [("a", "c", 1), ("a", "d", 2), ("b", "d", 1)]),
        complete("abcd", [("a", "b", 1), ("a", "c", 1), ("a", "d", 1)]),
        complete("abcde"[:5], [("a", "c", 1), ("b", "d", 1)]),
        mk_instance(
            ["s", "a", "b", "m", "t"],
            [("s", "a", 99), ("s", "b", 99), ("a", "m", 99), ("b", "m", 99),
             ("m", "t", 99), ("a", "t", 99), ("t", "s", 99)],
            [("s", "t", 1), ("s", "m", 2), ("a", "t", 1)],
        ),
    ]
    checked = 0
    for inst in cases:
        for routing in all_routings(inst, cap=100_000):
            forest = demand_to_origin(inst, routing)
            assert oracles.forest_violations(inst, forest) == []
            assert spf.check_capacity(inst, forest) == []
            back = origin_to_demand(inst, forest)
            assert back == routing
            assert demand_routing_violations(inst, back) == []
            assert_endpoint_conditions(inst, routing, forest)
            checked += 1
    assert checked >= 200
    report(5, f"mapping round trip, exhaustive at |N| <= 5: {checked} feasible "
              "routings enumerated, identity and both constraint sets verified")


# ---------------------------------------------------------------------------
# Criterion 6: weight recovery reproduces accepted candidates exactly.


def test_criterion_6_weight_recovery_round_trip(oracle_run):
    results, _ = oracle_run
    verified = 0
    for inst, benders, _brute in results:
        if benders.status != "Optimal":
            continue
        routed = spf.routing_from_weights(inst, benders.weights)
        assert routed == benders.forest  # exact: paths and flows
        assert spf.evaluate_objective(inst, routed) == benders.objective
        verified += 1
    # direct recover_weights round trips on independently built forests
    for seed in range(40):
        inst = small_random(seed)
        try:
            forest = spf.routing_from_weights(inst, spf.hop_count_weights(inst))
        except (spf.NonUniqueRoutingError, spf.UnreachableDemandError):
            continue
        recovery = lp.recover_weights(inst, forest)
        assert recovery.ok
        assert spf.routing_from_weights(inst, recovery.weights) == forest
        verified += 1
    assert verified >= 100
    report(6, f"{verified} accepted candidates: recovered weights reproduce the "
              "candidate forest exactly (zero tolerance)")


# ---------------------------------------------------------------------------
# Criterion 7: the optimal objective dominates every feasible baseline.


def test_criterion_7_baseline_dominance(oracle_run, tmp_path, capsys):
    results, _ = oracle_run
    dominated = 0
    for inst, benders, _brute in results:
        for maker in (spf.hop_count_weights, spf.inv_cap_weights):
            try:
                weights = maker(inst)
                forest = spf.routing_from_weights(inst, weights)
            except (spf.NonUniqueRoutingError, spf.UnreachableDemandError,
                    spf.ZeroCapacityError):
                continue
            if spf.check_capacity(inst, forest):
                continue
            baseline_objective = spf.evaluate_objective(inst, forest)
            assert benders.status == "Optimal"  # a feasible point exists
            assert benders.objective <= baseline_objective
            dominated += 1
    assert dominated >= 50
    # the report prints the utilization ratio and the non-reproducibility note
    from uspr.cli import main
    from uspr.instance import save_instance

    probe = mk_instance(
        ["s", "a", "b", "t"],
        [("s", "a", 10), ("a", "t", 10), ("s", "b", 10), ("b", "t", 5)],
        [("s", "t", 2)],
    )
    inst_path = tmp_path / "probe.json"
    inst_path.write_text(save_instance(probe))
    code = main(["report", str(inst_path)])
    printed = capsys.readouterr().out
    assert code == 0
    assert "utilization ratio" in printed
    assert "not" in printed and "reproducible" in printed
    report(7, f"{dominated} feasible baselines dominated by the optimal objective; "
              "report prints utilization ratios with the non-reproducibility note")


# ---------------------------------------------------------------------------
# Criterion 8: golden LP exports are byte-identical across runs.


def test_criterion_8_golden_lp_exports():
    fractional = mk_instance(
        "abc",
        [("a", "b", Fraction(5, 2)), ("b", "c", Fraction(7, 2)), ("a", "c", Fraction(6, 5))],
        [("a", "c", Fraction(1, 4))],
        w_min=Fraction(1, 2), w_max=Fraction(5, 2), step=Fraction(1, 2),
    )
    fixtures = {
        "dbm_two_node.lp": lambda: models.export_lp(build_dbm(two_node())),
        "obm_two_node.lp": lambda: models.export_lp(build_obm(two_node())),
        "obm_diamond_master.lp": lambda: models.export_lp(
            models.master_submodel(build_obm(diamond()))
        ),
        "dbm_fractional.lp": lambda: models.export_lp(build_dbm(fractional)),
    }
    for name, producer in fixtures.items():
        stored = (GOLDEN / name).read_bytes()
        assert producer().encode() == stored
        assert producer().encode() == stored  # re-export: identical bytes
    report(8, f"{len(fixtures)} golden LP fixtures re-exported byte-identically")
