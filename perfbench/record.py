#!/usr/bin/env python3
"""Re-derive the pins and record the exact per-pass counters.

    python3 perfbench/record.py

Run from the root of a source checkout.  First every pinned answer, of both
instance sets, is checked against evidence that does not come from the call
the benchmark times (`workloads.pin_problems`).  Then each workload runs
twice per set with `--trace 1`, each time in a fresh process; the exact
counters of the two runs must be identical.  They are written, with the layer
shares of the traced pass, to a fresh perfbench/record.json, which is the
exact regression signal: wall times on a small shared machine are noisy,
these counts are not.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads
from run import import_uspr
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
RECORD = HERE / "record.json"
WHY = {w["name"]: w["why"] for w in json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]}

# Layer metrics that are exact functions of the inputs (not of time).
EXACT_UNITS = ("count", "ratio")

LADDER_CUT = {
    "(6,2,4)s0-s2": "0.12-0.15 s and one LP per answer: too small to time apart from noise",
    "(16,3,12)s0": "a single LP of about 31 s or more: one answer would fill a whole run",
    "(24,3,20)": "master-dominated (about 4-5 s to the first master candidate in "
                 "simple-path enumeration), but the LP layer cannot yet finish the "
                 "instance; it joins once it can",
}


def traced_run(workload: str, instance_set: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--set", instance_set,
           "--seed", "0", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}/{instance_set}: wrong answers\n{proc.stdout}")
    return result["metrics"]


def record(workload: str, instance_set: str) -> dict:
    runs = [traced_run(workload, instance_set) for _ in range(2)]
    counts = [
        {k: m["value"] for k, m in sorted(metrics.items())
         if m["unit"] in EXACT_UNITS}
        for metrics in runs
    ]
    if counts[0] != counts[1]:
        diff = {k: (counts[0][k], counts[1][k]) for k in counts[0] if counts[0][k] != counts[1][k]}
        raise SystemExit(f"{workload}/{instance_set}: counts differ between runs: {diff}")
    metrics = runs[0]
    wall = metrics["trace.wall_s"]["value"]
    self_names = {layer: f"{layer}.self_s" for layer in LAYERS}
    self_names["instance"] = "instance.load_s"
    return {
        "counts": counts[0],
        "traced_wall_s": round(wall, 3),
        "layer_shares": {
            layer: round(metrics[name]["value"] / wall, 4) for layer, name in self_names.items()
        },
        "lp_solve_share": round(metrics["lp.solve_s"]["value"] / wall, 4),
    }


def main() -> int:
    mods = import_uspr()
    for instance_set in workloads.SETS:
        for workload in workloads.WORKLOADS:
            for case in workloads.CASES[instance_set][workload]:
                problems = workloads.pin_problems(mods, workload, case)
                if problems:
                    raise SystemExit(f"{workload}/{instance_set}: " + "; ".join(problems))
                print(f"pin ok: {workload}/{instance_set} {case.label}", flush=True)

    entries = {}
    for workload in workloads.WORKLOADS:
        entry = entries[workload] = {
            "why": WHY[workload],
            "instances": {
                s: [case.label for case in workloads.CASES[s][workload]] for s in workloads.SETS
            },
        }
        for instance_set in workloads.SETS:
            entry[instance_set] = record(workload, instance_set)
            print(f"recorded: {workload}/{instance_set}", flush=True)
    out = {"ladder_cut": LADDER_CUT, "workloads": entries}
    RECORD.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
