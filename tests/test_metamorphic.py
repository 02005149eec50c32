"""Metamorphic tests: a transformed instance must give a predictably related
answer.

Each relation holds by the problem's definition:
- renaming the nodes and shuffling the node, link and demand order keeps
  the status and the objective;
- scaling every bandwidth and capacity by 3/2 keeps the status and scales
  the objective by 3/2 (a forest's loads and capacities scale together);
- scaling w_min, w_max and the resolution by 3 keeps the status and the
  objective (the grid, and with it every shortest path, scales by 3).

`benders_solve` is checked on every shape, `brute_force_solve` on the
shapes of at most 6 nodes.  A renaming changes the link order, and with it
the weights brute force picks, so only status and objective are compared.

Two monotone relations never raise the objective and never turn an
`Optimal` instance `Infeasible`:
- raising every capacity by 5/4 (every forest that fits the old
  capacities fits the new ones, at the same total load);
- halving the resolution (the new grid contains the old one, so every
  weight vector, and with it every routing, stays available).
They are checked with `benders_solve` on every shape, and with
`brute_force_solve` on the shapes of at most 6 nodes and on two 6-link
shapes.  Brute force checks the halved grid only where it fits under
`spf.GRID_LIMIT`: on the 6-link shapes, 7^6 and 5^6 vectors, and on none
of the others, whose halved grids hold 7^8, 5^9 and 3^12.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from uspr import spf
from uspr.instance import Demand, Instance, Link, generate_random_instance, validate_instance
from uspr.rational import grid_size
from uspr.solver import benders_solve, brute_force_solve

SEEDS = range(10)
COARSE = dict(w_min=2, w_max=5, weight_resolution=3)
SHAPES = {
    "(5,1.6,4,w_max=4)": ((5, 1.6, 4), dict(w_max=4)),
    "(6,1.5,5,w_max=3)": ((6, 1.5, 5), dict(w_max=3)),
    "(6,2,6) coarse": ((6, 2, 6), COARSE),
    "(7,2.5,6) coarse": ((7, 2.5, 6), COARSE),
}
# Shapes small enough for brute force on the halved grid.
SMALL_SHAPES = {
    "(4,1.5,3,w_max=4)": ((4, 1.5, 3), dict(w_max=4)),
    "(5,1.2,4,w_max=3)": ((5, 1.2, 4), dict(w_max=3)),
}
BANDWIDTH_SCALE = Fraction(3, 2)
GRID_SCALE = 3
CAPACITY_SCALE = Fraction(5, 4)


def renamed(instance: Instance, seed: int) -> Instance:
    """The instance with new node ids, and its nodes, links and demands
    shuffled."""
    rng = random.Random(seed)
    nodes = [f"v{k}" for k in range(len(instance.nodes))]
    rng.shuffle(nodes)
    name = dict(zip(instance.nodes, nodes))
    links = [Link(name[l.tail], name[l.head], l.capacity) for l in instance.links]
    demands = [Demand(name[d.origin], name[d.destination], d.bandwidth)
               for d in instance.demands]
    for items in (nodes, links, demands):
        rng.shuffle(items)
    return instance._replace(nodes=tuple(nodes), links=tuple(links), demands=tuple(demands))


def rescaled_traffic(instance: Instance) -> Instance:
    """Every bandwidth and capacity times `BANDWIDTH_SCALE`."""
    return instance._replace(
        links=tuple(l._replace(capacity=l.capacity * BANDWIDTH_SCALE) for l in instance.links),
        demands=tuple(d._replace(bandwidth=d.bandwidth * BANDWIDTH_SCALE)
                      for d in instance.demands),
    )


def rescaled_grid(instance: Instance) -> Instance:
    """w_min, w_max and the resolution times `GRID_SCALE`."""
    return instance._replace(
        w_min=instance.w_min * GRID_SCALE,
        w_max=instance.w_max * GRID_SCALE,
        weight_resolution=instance.weight_resolution * GRID_SCALE,
    )


def raised_capacity(instance: Instance) -> Instance:
    """Every capacity times `CAPACITY_SCALE`."""
    return instance._replace(links=tuple(
        l._replace(capacity=l.capacity * CAPACITY_SCALE) for l in instance.links))


def finer_grid(instance: Instance) -> Instance:
    """The resolution halved: a grid with every old grid point and one more
    between each two neighbours."""
    return instance._replace(weight_resolution=instance.weight_resolution / 2)


def scaled(answer: tuple, factor) -> tuple:
    status, objective = answer
    return status, None if objective is None else objective * factor


def mismatches(solve, args, kwargs) -> list[str]:
    """Every relation that fails on a seed of the shape, as one line naming
    the instance, the relation, and the expected and the actual answer."""
    out = []
    for seed in SEEDS:
        instance = generate_random_instance(*args, **kwargs, seed=seed)
        base = solve(instance)
        answer = (base.status, base.objective)
        for relation, transformed, expected in (
            ("renamed", renamed(instance, seed), answer),
            ("traffic x3/2", rescaled_traffic(instance), scaled(answer, BANDWIDTH_SCALE)),
            ("grid x3", rescaled_grid(instance), answer),
        ):
            case = f"{args}{kwargs}s{seed} {relation}"
            problems = validate_instance(transformed)
            if problems:
                out.append(f"{case}: invalid, {problems}")
                continue
            result = solve(transformed)
            got = (result.status, result.objective)
            if got != expected:
                out.append(f"{case}: expected {expected}, got {got}")
    return out


def fits_grid_limit(instance: Instance) -> bool:
    points = grid_size(instance.w_min, instance.w_max, instance.weight_resolution)
    return points ** len(instance.links) <= spf.GRID_LIMIT


def monotonicity_violations(solve, args, kwargs) -> list[str]:
    """Every seed of the shape where a relaxed instance's answer is worse than
    its base's: `Optimal` at a higher objective, or no longer `Optimal`.
    Brute force is given only the relaxed instances whose grid it can
    enumerate."""
    out = []
    for seed in SEEDS:
        instance = generate_random_instance(*args, **kwargs, seed=seed)
        base = solve(instance)
        if base.status != "Optimal":
            continue
        for relation, relaxed in (("capacity x5/4", raised_capacity(instance)),
                                  ("resolution /2", finer_grid(instance))):
            if solve is brute_force_solve and not fits_grid_limit(relaxed):
                continue
            result = solve(relaxed)
            if result.status != "Optimal" or result.objective > base.objective:
                out.append(f"{args}{kwargs}s{seed} {relation}: base {base.objective}, "
                           f"got {(result.status, result.objective)}")
    return out


@pytest.mark.parametrize("shape", SHAPES)
def test_decomposition_answers_follow_every_relation(shape):
    args, kwargs = SHAPES[shape]
    assert mismatches(benders_solve, args, kwargs) == []


@pytest.mark.parametrize("shape", [s for s, (args, _) in SHAPES.items() if args[0] <= 6])
def test_brute_force_answers_follow_every_relation(shape):
    args, kwargs = SHAPES[shape]
    assert mismatches(brute_force_solve, args, kwargs) == []


@pytest.mark.parametrize("shape", SHAPES)
def test_relaxing_capacities_or_the_grid_never_worsens_the_answer(shape):
    args, kwargs = SHAPES[shape]
    assert monotonicity_violations(benders_solve, args, kwargs) == []


@pytest.mark.parametrize(
    "shape", [s for s, (args, _) in SHAPES.items() if args[0] <= 6] + list(SMALL_SHAPES)
)
def test_relaxing_capacities_or_the_grid_never_worsens_the_brute_force_answer(shape):
    args, kwargs = {**SHAPES, **SMALL_SHAPES}[shape]
    assert monotonicity_violations(brute_force_solve, args, kwargs) == []


def test_brute_force_checks_the_halved_grid_on_the_small_shapes_only():
    for shapes, fits in ((SHAPES, False), (SMALL_SHAPES, True)):
        for args, kwargs in shapes.values():
            instance = finer_grid(generate_random_instance(*args, **kwargs, seed=0))
            assert fits_grid_limit(instance) is fits


def test_the_relations_change_what_they_claim():
    # Guards against a transform that silently returns its input.
    instance = generate_random_instance(5, 1.6, 4, w_max=4, seed=0)
    moved = renamed(instance, 0)
    assert set(moved.nodes).isdisjoint(instance.nodes)
    assert sorted(l.capacity for l in moved.links) == sorted(l.capacity for l in instance.links)
    assert sorted(d.bandwidth for d in moved.demands) == sorted(
        d.bandwidth for d in instance.demands)
    traffic = rescaled_traffic(instance)
    assert [l.capacity for l in traffic.links] == [
        l.capacity * Fraction(3, 2) for l in instance.links]
    grid = rescaled_grid(instance)
    assert (grid.w_min, grid.w_max, grid.weight_resolution) == (3, 12, 3)
    capacity = raised_capacity(instance)
    assert [l.capacity for l in capacity.links] == [
        l.capacity * Fraction(5, 4) for l in instance.links]
    finer = finer_grid(instance)
    assert (finer.w_min, finer.w_max, finer.weight_resolution) == (1, 4, Fraction(1, 2))
