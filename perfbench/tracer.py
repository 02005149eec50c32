"""Per-layer tracing from outside the program.

`Tracer.install` rebinds public attributes of the uspr modules to timing
wrappers; every caller looks these names up in the module at call time, so
the wrappers see every call without any change to the program.  Each wrapper
opens a frame on a stack, so a layer's self time is its calls' duration minus
the time of the traced calls they made.  Coarse calls are also kept as spans
(id, parent id, name, start, end) in memory and written out at the end; the
hot oracle kernels, called up to a million times per pass, are only counted
and timed, which keeps the trace small and its overhead low.
"""

from __future__ import annotations

import contextlib
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# (module, attribute, layer, kernel).  Layers are the uspr modules; `bench` is
# the harness itself (reading the instance file, the glue around each call).
TRACED = (
    ("instance", "load_instance", "instance", False),
    ("spf", "dijkstra_units", "spf", True),
    ("spf", "count_paths_capped", "spf", True),
    ("spf", "walk_back_unique", "spf", True),
    ("spf", "routing_from_weights", "spf", False),
    ("spf", "check_capacity", "spf", False),
    ("spf", "evaluate_objective", "spf", False),
    ("spf", "max_utilization", "spf", False),
    ("spf", "hop_count_weights", "spf", False),
    ("spf", "inv_cap_weights", "spf", False),
    ("models", "build_dbm", "models", False),
    ("models", "build_obm", "models", False),
    ("models", "master_submodel", "models", False),
    ("models", "export_lp", "models", False),
    ("models", "size_report", "models", False),
    ("models", "structure_report", "models", False),
    ("models", "render_size_report", "models", False),
    ("models", "render_structure_report", "models", False),
    ("lp", "path_length_system", "lp", False),
    ("lp", "solve_feasibility", "lp", False),
    ("lp", "recover_weights", "lp", False),
    ("solver", "benders_solve", "solver", False),
    ("solver", "brute_force_solve", "solver", False),
    ("cli", "main", "cli", False),
)
# The cli module binds load_instance by name at import; rebind that copy too.
ALIASES = (("cli", "load_instance", "instance.load_instance"),)
LAYERS = ("instance", "spf", "models", "lp", "solver", "cli", "bench")


class Tracer:
    def __init__(self, mods):
        self._mods = mods
        self._wrappers: dict[str, object] = {}
        self._originals: list[tuple[object, str, object]] = []
        self.self_s: dict[str, float] = defaultdict(float)  # by call name
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list] = [[0.0, 0]]  # [child seconds, span id]
        self._next_id = 1
        self._layer_of = {"solver.master_search": "solver", "bench.call": "bench"}
        for module_name, attr, layer, kernel in TRACED:
            name = f"{module_name}.{attr}"
            original = getattr(getattr(mods, module_name), attr)
            make = self._kernel if kernel else self._call
            self._wrappers[name] = make(name, original)
            self._layer_of[name] = layer
        self._wrappers["solver.master_search"] = self._master(mods.solver.master_search)

    # -- wrappers ----------------------------------------------------------

    def _enter(self) -> list:
        frame = [0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _leave(self, name: str, frame: list, t0: float, t1: float) -> None:
        self._stack.pop()
        parent = self._stack[-1]
        dur = t1 - t0
        parent[0] += dur
        self.self_s[name] += dur - frame[0]
        self.incl_s[name] += dur
        self.calls[name] += 1
        self.spans.append((frame[1], parent[1], name, t0, t1))

    def _call(self, name: str, original):
        observe = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            frame = self._enter()
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self._leave(name, frame, t0, perf_counter())
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _kernel(self, name: str, original):
        stack, self_s, incl_s, calls = self._stack, self.self_s, self.incl_s, self.calls

        def wrapper(*args):
            t0 = perf_counter()
            result = original(*args)
            dur = perf_counter() - t0
            stack[-1][0] += dur
            self_s[name] += dur
            incl_s[name] += dur
            calls[name] += 1
            return result

        return wrapper

    def _master(self, original):
        tracer = self

        class Stream:
            """Times each next() on the master's candidate stream."""

            def __init__(self, gen, stats):
                self._gen, self._stats, self._seen = gen, stats, 0

            def __iter__(self):
                return self

            def __next__(self):
                frame = tracer._enter()
                t0 = perf_counter()
                try:
                    item = next(self._gen)
                    tracer.counts["solver.master_candidates"] += 1
                    return item
                finally:
                    tracer._leave("solver.master_search", frame, t0, perf_counter())
                    combos = self._stats.get("combinations", 0)
                    tracer.counts["solver.master_combinations"] += combos - self._seen
                    self._seen = combos

        def master_search(instance, cuts=(), incumbent_bound=None, stats=None):
            stats = {} if stats is None else stats
            return Stream(original(instance, cuts, incumbent_bound, stats), stats)

        return master_search

    # -- counters read at the layer boundary --------------------------------

    def _after_lp_solve_feasibility(self, args, kwargs, result) -> None:
        system = args[0]
        self.counts["lp.rows"] += len(system.rows)
        self.counts["lp.cols"] += len(system.variables)
        self.counts["lp.feasible"] += bool(result.feasible)

    def _after_lp_recover_weights(self, args, kwargs, result) -> None:
        key = f"lp.stage_{result.stage}" if result.ok else f"lp.{result.status}"
        self.counts[key] += 1

    def _after_solver_benders_solve(self, args, kwargs, result) -> None:
        self.counts["solver.cuts"] += result.diagnostics.cuts_added

    def _after_solver_brute_force_solve(self, args, kwargs, result) -> None:
        self.counts["spf.grid_points"] += result.diagnostics.iterations

    def _after_models_model(self, args, kwargs, result) -> None:
        self.counts["models.rows"] += len(result.constraints)

    _after_models_build_dbm = _after_models_build_obm = _after_models_master_submodel = (
        _after_models_model
    )

    def _after_models_export_lp(self, args, kwargs, result) -> None:
        self.counts["models.lp_bytes"] += len(result.encode("utf-8"))

    # -- install / remove ----------------------------------------------------

    def install(self) -> None:
        for name, wrapper in self._wrappers.items():
            module_name, attr = name.split(".")
            self._rebind(getattr(self._mods, module_name), attr, wrapper)
        for module_name, attr, target in ALIASES:
            self._rebind(getattr(self._mods, module_name), attr, self._wrappers[target])

    def _rebind(self, module, attr, wrapper) -> None:
        self._originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def remove(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def root(self):
        """A `bench` frame around one timed call, so that glue time counts."""
        frame = self._enter()
        t0 = perf_counter()
        try:
            yield
        finally:
            self._leave("bench.call", frame, t0, perf_counter())

    # -- results -------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            out[self._layer_of[name]] += seconds
        return out

    def write_spans(self, path: Path) -> None:
        path.write_text(json.dumps({
            "spans": [
                {"id": i, "parent": p, "name": n, "start": t0, "end": t1}
                for i, p, n, t0, t1 in self.spans
            ],
            "kernels": {
                f"{module}.{attr}": {
                    "calls": self.calls[f"{module}.{attr}"],
                    "seconds": self.incl_s[f"{module}.{attr}"],
                }
                for module, attr, _layer, kernel in TRACED if kernel
            },
        }), encoding="utf-8")
