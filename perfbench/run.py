#!/usr/bin/env python3
"""Benchmark for the uspr toolkit.

    python3 perfbench/run.py --workload {single-lp,cuts,grid,export}
        --seed N --seconds S --trace {0,1} [--set {main,heldout}] [--smoke]

Run from the root of a source checkout: the toolkit is imported from ./src,
and nothing outside the checkout is read or written.  One client calls the
toolkit in a closed loop, one call at a time, in this process.  `--seed`
fixes the order of the calls: each pass over the workload's answers is a fresh
seeded shuffle.  Passes repeat until `--seconds` have gone by (at least one
whole pass), and every answer is checked against its pin outside the timed
call.

With `--trace 0` the last line of output reports the end-to-end metrics:
`wall_s`, the time to answer the whole batch one call after another (the sum
over answers of each answer's median time), `setup_s` (import, instance
generation and instance-file writes; the median of eleven set-ups) and
`peak_rss_mb`.  `wall_s` and `setup_s` are scaled to a reference machine
speed by a calibration kernel timed around and during every call
(calibrate.py); the line before the last gives the raw times, the kernel's
median time and the LP solves per whole pass.

With `--trace 1` the same loop runs untraced for half the time, then whole
passes run under the tracer for the other half (at least one each), and the
last line reports the per-layer metrics of one traced pass, in raw seconds;
`solver.grid_points_per_s` alone comes from the untraced calls, at the
reference speed, so that it does not measure the tracer's wrappers.
`--smoke` runs one pass on the first instance of the workload only.
`--set heldout` runs the held-out instance sets.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import shutil
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import workloads
from calibrate import REFERENCE_S, Sampler, calibrate
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 11


class SetupError(RuntimeError):
    pass


def import_uspr():
    """Import the toolkit from the checkout's own sources, afresh."""
    package = SRC / "uspr"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no uspr sources at {package}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "uspr" or m.startswith("uspr.")]:
        del sys.modules[name]
    uspr = importlib.import_module("uspr")
    if Path(uspr.__file__).resolve().parent != package.resolve():
        raise SetupError(f"imported uspr from {uspr.__file__}, not from {package}")
    # Calls go through module attributes looked up at call time, so that a
    # rebinding by the tracer reaches every caller.
    return SimpleNamespace(**{
        name: importlib.import_module(f"uspr.{name}")
        for name in ("instance", "spf", "models", "lp", "solver", "cli")
    })


def _scaled(seconds: float, kernel_times: list[float]) -> float:
    """`seconds` at the reference speed, from the kernel times around it."""
    return seconds * REFERENCE_S / statistics.median(kernel_times)


def setup(cases, workdir: Path):
    """Import, generate and write the instance files, SETUP_REPEATS times.

    Returns the median scaled and raw seconds, the modules and the paths."""
    raw, scaled = [], []
    kernel = calibrate()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        mods = import_uspr()
        paths = []
        for i, case in enumerate(cases):
            path = workdir / f"instance-{i}.json"
            path.write_text(mods.instance.save_instance(case.generate(mods)), encoding="utf-8")
            paths.append(path)
        seconds = perf_counter() - t0
        kernel, before = calibrate(), kernel
        raw.append(seconds)
        scaled.append(_scaled(seconds, [before, kernel]))
    return statistics.median(scaled), statistics.median(raw), mods, paths


@dataclass
class Loop:
    """Closed-loop run of the operations, with the answers checked."""

    ops: list
    samples: list = field(default_factory=list)  # raw seconds, per op
    scaled: list = field(default_factory=list)  # at the reference speed, per op
    kernel: list = field(default_factory=list)  # calibration before/after each call
    attempted: int = 0
    failed: int = 0
    passes: int = 0
    counts: Counter = field(default_factory=Counter)  # over whole passes only
    problems: list = field(default_factory=list)

    def __post_init__(self):
        self.samples = [[] for _ in self.ops]
        self.scaled = [[] for _ in self.ops]

    def call(self, i: int, tracer: Tracer | None) -> dict:
        """Time and check one call; return its counts."""
        op = self.ops[i]
        problems = []
        counts = {}
        if not self.kernel:
            self.kernel.append(calibrate())
        # Traced calls are not sampled: their layer times stay unscaled.
        sampler = Sampler()
        t0 = perf_counter()
        try:
            if tracer is None:
                with sampler:
                    out = op.call()
            else:
                with tracer.root():
                    out = op.call()
        except Exception as exc:  # a raising call is a failed operation
            problems.append(f"{op.label}: raised {exc!r}")
        seconds = perf_counter() - t0 - sampler.stolen
        self.attempted += 1
        if not problems:
            if tracer is not None:
                tracer.remove()
            try:
                problems = op.check(out)
                counts = op.counts(out)
            except Exception as exc:  # a check the output cannot pass
                problems = [f"{op.label}: check raised {exc!r}"]
            if tracer is not None:
                tracer.install()
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        self.kernel.append(calibrate())
        self.samples[i].append(seconds)
        self.scaled[i].append(_scaled(seconds, [*self.kernel[-2:], *sampler.readings]))
        return counts

    def run(self, rng: random.Random, seconds: float, whole_passes: bool,
            tracer: Tracer | None = None) -> None:
        deadline = perf_counter() + seconds
        while True:
            counts = Counter()
            for i in rng.sample(range(len(self.ops)), len(self.ops)):
                if self.passes and not whole_passes and perf_counter() >= deadline:
                    return
                counts.update(self.call(i, tracer))
            self.passes += 1
            self.counts.update(counts)
            if perf_counter() >= deadline:
                return

    def batch_seconds(self, scaled: bool) -> float:
        """Time for one call of every answer, from each answer's median."""
        return sum(statistics.median(s) for s in (self.scaled if scaled else self.samples))

    def total_seconds(self) -> float:
        return sum(sum(s) for s in self.samples)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _per_pass(total, passes: int):
    value = total / passes
    return int(value) if isinstance(total, int) and value.is_integer() else value


def layer_metrics(tracer: Tracer, traced: Loop, untraced: Loop) -> dict:
    n = traced.passes

    def incl(*names):
        return sum(tracer.incl_s[name] for name in names) / n

    def count(key):
        return _per_pass(tracer.counts[key], n)

    def calls(name):
        return _per_pass(tracer.calls[name], n)

    layer = {k: v / n for k, v in tracer.layer_self_s().items()}
    wall = traced.total_seconds() / n
    solves = tracer.calls["lp.solve_feasibility"]
    combos = tracer.counts["solver.master_combinations"]
    seconds = {
        "trace.wall_s": wall,
        "trace.overhead_s": wall - untraced.batch_seconds(scaled=False),
        "instance.load_s": layer["instance"],
        "spf.self_s": layer["spf"],
        "models.self_s": layer["models"],
        "lp.self_s": layer["lp"],
        "solver.self_s": layer["solver"],
        "cli.self_s": layer["cli"],
        "bench.self_s": layer["bench"],
        "lp.solve_s": incl("lp.solve_feasibility"),
        "lp.recover_s": incl("lp.recover_weights"),
        "lp.system_s": incl("lp.path_length_system"),
        "solver.master_s": incl("solver.master_search"),
        "solver.brute_force_self_s": tracer.self_s["solver.brute_force_solve"] / n,
        "spf.dijkstra_s": incl("spf.dijkstra_units"),
        "spf.count_s": incl("spf.count_paths_capped"),
        "spf.walkback_s": incl("spf.walk_back_unique"),
        "spf.routing_s": incl("spf.routing_from_weights"),
        "models.build_s": incl("models.build_dbm", "models.build_obm", "models.master_submodel"),
        "models.export_s": incl("models.export_lp"),
        "models.report_s": incl("models.size_report", "models.structure_report",
                                "models.render_size_report", "models.render_structure_report"),
    }
    counts = {
        "lp.solves": calls("lp.solve_feasibility"),
        "lp.rows": count("lp.rows"),
        "lp.cols": count("lp.cols"),
        "lp.stage_direct": count("lp.stage_direct"),
        "lp.stage_margin": count("lp.stage_margin"),
        "lp.stage_exhaustive": count("lp.stage_exhaustive"),
        "lp.grid_infeasible": count("lp.grid_infeasible"),
        "solver.cuts": count("solver.cuts"),
        "solver.master_candidates": count("solver.master_candidates"),
        "solver.master_combinations": count("solver.master_combinations"),
        "spf.dijkstra_calls": calls("spf.dijkstra_units"),
        "spf.count_calls": calls("spf.count_paths_capped"),
        "spf.walkback_calls": calls("spf.walk_back_unique"),
        "spf.grid_points": count("spf.grid_points"),
        "models.rows": count("models.rows"),
        "models.lp_bytes": count("models.lp_bytes"),
    }
    out = {name: _metric(value, "s") for name, value in seconds.items()}
    out.update({name: _metric(value, "count") for name, value in counts.items()})
    out["lp.feasible_frac"] = _metric(tracer.counts["lp.feasible"] / solves if solves else 0.0, "ratio")
    out["solver.master_yield"] = _metric(
        tracer.counts["solver.master_candidates"] / combos if combos else 0.0, "ratio")
    points = untraced.counts["grid_points"] / untraced.passes
    out["solver.grid_points_per_s"] = _metric(points / untraced.batch_seconds(scaled=True), "1/s")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        instance_set: str = "main", smoke: bool = False, cases=None) -> dict:
    """Run one workload and return the result object the benchmark prints."""
    cases = workloads.CASES[instance_set][workload] if cases is None else cases
    if smoke:
        cases, seconds = cases[:1], 0
    workdir = HERE / "work" / f"{workload}-{instance_set}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    setup_s, setup_raw_s, mods, paths = setup(cases, workdir)
    ops = workloads.build_ops(mods, workload, cases, paths, workdir)
    rng = random.Random(seed)

    if trace:
        seconds /= 2
    untraced = Loop(ops)
    untraced.run(rng, seconds, whole_passes=False)
    loops = [untraced]
    if trace:
        tracer = Tracer(mods)
        traced = Loop(ops)
        tracer.install()
        try:
            traced.run(rng, seconds, whole_passes=True, tracer=tracer)
        finally:
            tracer.remove()
        tracer.write_spans(workdir / "trace.json")
        loops.append(traced)
        metrics = layer_metrics(tracer, traced, untraced)
    else:
        metrics = {
            "wall_s": _metric(untraced.batch_seconds(scaled=True), "s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": [p for loop in loops for p in loop.problems],
        "detail": {
            "wall_raw_s": untraced.batch_seconds(scaled=False),
            "setup_raw_s": setup_raw_s,
            "kernel_median_s": statistics.median(untraced.kernel),
            "passes": untraced.passes,
            "lp_solves_per_pass": untraced.counts["lp_solves"] / untraced.passes,
            "samples_s": {op.label: [round(t, 4) for t in s] for op, s in zip(ops, untraced.samples)},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--set", dest="instance_set", choices=workloads.SETS, default="main")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.instance_set, args.smoke)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for problem in result.pop("problems"):
        print(f"FAILED {problem}")
    print(json.dumps(result.pop("detail")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
