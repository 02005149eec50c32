import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import coarse_grid_triangle, diamond, diamond_chain, mk_instance, path_graph, two_node
import oracles
from uspr import models, solver, spf
from uspr.cli import main
from uspr.instance import generate_random_instance, save_instance

GOLDEN = Path(__file__).parent / "golden"


def write_instance(tmp_path, instance, name="inst.json"):
    path = tmp_path / name
    path.write_text(save_instance(instance), encoding="utf-8")
    return str(path)


def test_generate_writes_file_and_dims(tmp_path, capsys):
    out = tmp_path / "inst.json"
    code = main(["generate", "--nodes", "6", "--degree", "2", "--demands", "4",
                 "--seed", "1", "-o", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "nodes=6" in printed and "demands=4" in printed
    assert out.exists()


def test_generate_deterministic_bytes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["generate", "--nodes", "5", "--degree", "1.6", "--demands", "3",
                 "--seed", "9", "-o", str(a)]) == 0
    assert main(["generate", "--nodes", "5", "--degree", "1.6", "--demands", "3",
                 "--seed", "9", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_too_many_demands_errors(tmp_path, capsys):
    code = main(["generate", "--nodes", "3", "--degree", "1", "--demands", "99",
                 "-o", str(tmp_path / "x.json")])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("degree", ["inf", "nan"])
def test_generate_refuses_non_finite_degree(tmp_path, capsys, degree):
    code = main(["generate", "--nodes", "5", "--degree", degree, "--demands", "3",
                 "-o", str(tmp_path / "g.json")])
    assert code == 1
    assert "avg_out_degree" in capsys.readouterr().err
    assert not (tmp_path / "g.json").exists()


@pytest.mark.parametrize("flags, field", [
    (["--w-min", "0"], "w_min"),
    (["--resolution", "0"], "weight_resolution"),
    (["--w-min", "5", "--w-max", "2"], "w_max"),
    (["--w-max", "5.5"], "w_max"),
])
def test_generate_names_the_bad_weight_field(tmp_path, capsys, flags, field):
    code = main(["generate", "--nodes", "3", "--degree", "2", "--demands", "1", *flags,
                 "-o", str(tmp_path / "g.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{field}: " in err and "Violation(" not in err
    assert not (tmp_path / "g.json").exists()


def test_generate_refuses_degree_below_the_backbone(tmp_path, capsys):
    code = main(["generate", "--nodes", "3", "--degree", "0.5", "--demands", "1",
                 "-o", str(tmp_path / "g.json")])
    assert code == 1
    assert "avg_out_degree" in capsys.readouterr().err
    assert not (tmp_path / "g.json").exists()


def test_validate_ok_and_violations(tmp_path, capsys):
    good = write_instance(tmp_path, two_node(), "good.json")
    assert main(["validate", good]) == 0
    assert "valid" in capsys.readouterr().out
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"nodes": ["a", "b"], "links": [{"tail": "a", "head": "b", "capacity": -3}], '
        '"demands": [], "w_min": 1, "w_max": 10, "weight_resolution": 1}'
    )
    assert main(["validate", str(bad)]) == 2
    assert "negative capacity" in capsys.readouterr().out


def test_solve_diamond_optimal(tmp_path, capsys):
    inst = write_instance(tmp_path, diamond())
    out = tmp_path / "sol.json"
    code = main(["solve", inst, "-o", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "status=Optimal" in printed
    assert "objective=2" in printed
    payload = json.loads(out.read_text())
    assert payload["status"] == "Optimal"
    assert payload["objective"] == 2


def test_solve_oracle_matches(tmp_path, capsys):
    inst = write_instance(tmp_path, diamond(w_min=1, w_max=2))
    assert main(["solve", inst]) == 0
    benders_line = capsys.readouterr().out
    assert main(["solve", inst, "--oracle"]) == 0
    oracle_line = capsys.readouterr().out
    assert "objective=2" in benders_line
    assert "objective=2" in oracle_line


def test_solve_oracle_refuses_time_limit(tmp_path, capsys):
    inst = write_instance(tmp_path, diamond())
    assert main(["solve", inst, "--oracle", "--time-limit", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_solve_oracle_refuses_node_limit(tmp_path, capsys):
    inst = write_instance(tmp_path, diamond())
    assert main(["solve", inst, "--oracle", "--node-limit", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_solve_grid_limit_requires_oracle(tmp_path, capsys):
    inst = write_instance(tmp_path, diamond())
    assert main(["solve", inst, "--grid-limit", "10"]) == 1
    assert capsys.readouterr().err.startswith("error: --grid-limit")
    assert main(["solve", inst, "--oracle", "--grid-limit", "10"]) == 3
    assert "exceed grid_limit 10" in capsys.readouterr().err


def test_oracle_refuses_a_wide_grid_before_building_it(tmp_path, capsys, monkeypatch):
    def unbuilt(*args):
        raise AssertionError("grid_points called before the grid_limit check")

    monkeypatch.setattr(spf, "grid_points", unbuilt)
    wide = mk_instance("ab", [("a", "b", 10)], [("a", "b", 1)], w_max=2_000_000)
    message = "2000000 weight combinations exceed grid_limit 10"
    with pytest.raises(spf.GridSearchLimitError) as refused:
        solver.brute_force_solve(wide, grid_limit=10)
    assert str(refused.value) == message
    inst = write_instance(tmp_path, wide)
    assert main(["solve", inst, "--oracle", "--grid-limit", "10"]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_oracle_refuses_1200_links_in_one_short_line(tmp_path, capsys):
    # 65535^1200 has 5,780 digits, more than Python writes out: the count is
    # written as P^|L| instead.
    inst = write_instance(tmp_path, generate_random_instance(300, 4, 3, w_max=65535))
    assert main(["solve", inst, "--oracle"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: 65535^1200 weight combinations exceed grid_limit 200000\n"
    assert captured.out == ""


def test_solve_path_longer_than_the_recursion_limit(tmp_path, capsys):
    inst = write_instance(tmp_path, path_graph(1005, w_max=2))
    assert main(["solve", inst]) == 0
    captured = capsys.readouterr()
    assert "status=Optimal objective=1004 " in captured.out
    assert "Traceback" not in captured.err


def test_solve_infeasible_exit_two(tmp_path, capsys):
    inst = write_instance(tmp_path, diamond(w_min=2, w_max=2))
    assert main(["solve", inst]) == 2
    assert "status=Infeasible" in capsys.readouterr().out


def test_oracle_answers_a_one_point_grid_of_2_to_the_30_ties_at_once(tmp_path, capsys):
    inst = write_instance(tmp_path, diamond_chain(30))
    started = time.perf_counter()
    assert main(["solve", inst, "--oracle"]) == 2
    assert time.perf_counter() - started < 1
    assert "status=Infeasible" in capsys.readouterr().out


def test_solve_time_limit_zero_exit_three(tmp_path, capsys):
    inst = write_instance(tmp_path, diamond())
    assert main(["solve", inst, "--time-limit", "0"]) == 3
    assert "BoundsExhausted" in capsys.readouterr().out


def test_solve_refuses_malformed_limits(tmp_path, capsys):
    inst = write_instance(tmp_path, diamond())
    for argv, field in (
        (["--time-limit", "nan"], "time_limit"),
        (["--time-limit", "-1"], "time_limit"),
        (["--node-limit", "-3"], "node_limit"),
        (["--oracle", "--grid-limit", "-1"], "grid_limit"),
    ):
        assert main(["solve", inst, *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and field in captured.err
        assert captured.out == ""
    assert main(["solve", inst, "--time-limit", "inf"]) == 0


def test_verify_round_trip_from_solver(tmp_path, capsys):
    instance = diamond()
    inst = write_instance(tmp_path, instance)
    from uspr import solver

    result = solver.benders_solve(instance)
    weights_path = tmp_path / "weights.json"
    weights_path.write_text(oracles.save_weights(result.weights))
    assert main(["verify", inst, str(weights_path)]) == 0
    printed = capsys.readouterr().out
    assert "demand s->t" in printed
    assert "max_utilization=" in printed


def test_verify_reads_the_solution_file_solve_writes(tmp_path, capsys):
    # Both solvers' `-o` files verify as they are, and the bare array of
    # their weights verifies the same; an Infeasible answer's null weights
    # are refused by name.
    inst = str(tmp_path / "inst.json")
    assert main(["generate", "--nodes", "4", "--degree", "1.5", "--demands", "3",
                 "--w-max", "3", "--seed", "2", "-o", inst]) == 0
    for oracle in ([], ["--oracle"]):
        sol = tmp_path / "sol.json"
        assert main(["solve", inst, *oracle, "-o", str(sol)]) == 0
        assert "status=Optimal objective=34.61 " in capsys.readouterr().out
        assert main(["verify", inst, str(sol)]) == 0
        printed = capsys.readouterr().out
        bare = tmp_path / "bare.json"
        bare.write_text(oracles.save_weights(spf.load_weights(sol.read_text())))
        assert bare.read_text().startswith("[")
        assert main(["verify", inst, str(bare)]) == 0
        assert capsys.readouterr().out == printed
        assert "max_utilization=0.265052" in printed
    infeasible = write_instance(tmp_path, diamond(w_min=2, w_max=2), "infeasible.json")
    assert main(["solve", infeasible, "-o", str(sol)]) == 2
    assert json.loads(sol.read_text())["weights"] is None
    capsys.readouterr()
    assert main(["verify", infeasible, str(sol)]) == 1
    assert capsys.readouterr().err == "error: weights: must be an array\n"
    sol.write_text('{"status": "Optimal"}')
    assert main(["verify", infeasible, str(sol)]) == 1
    assert capsys.readouterr().err == "error: weights: must be an array\n"


def test_verify_non_unique_names_demand(tmp_path, capsys):
    inst = write_instance(tmp_path, diamond())
    uniform = spf.WeightVector({p: diamond().w_min for p in diamond().link_pairs()})
    weights_path = tmp_path / "w.json"
    weights_path.write_text(oracles.save_weights(uniform))
    assert main(["verify", inst, str(weights_path)]) == 2
    assert "non-unique: demand (s, t)" in capsys.readouterr().out


def test_verify_duplicate_weight_is_usage_error(tmp_path, capsys):
    # s->a given twice must be refused, not read as its last value.
    inst = write_instance(tmp_path, diamond())
    weights_path = tmp_path / "w.json"
    weights_path.write_text(
        '[{"tail": "s", "head": "a", "weight": 1}, {"tail": "a", "head": "t", "weight": 1}, '
        '{"tail": "s", "head": "b", "weight": 2}, {"tail": "b", "head": "t", "weight": 2}, '
        '{"tail": "s", "head": "a", "weight": 9}]'
    )
    assert main(["verify", inst, str(weights_path)]) == 1
    assert "error: weights[4]: duplicate link ('s', 'a')" in capsys.readouterr().err


def test_non_finite_numbers_name_their_field(tmp_path, capsys):
    # NaN and +-Infinity parse as JSON floats; each must be refused by name.
    text = save_instance(diamond())
    cases = (
        ("validate", text.replace('"capacity": 10', '"capacity": NaN', 1), "links[0].capacity"),
        ("validate", text.replace('"w_min": 1', '"w_min": Infinity'), "w_min"),
    )
    for command, body, field in cases:
        path = tmp_path / "bad.json"
        path.write_text(body)
        assert main([command, str(path)]) == 1
        assert f"error: {field}: not a finite number" in capsys.readouterr().err
    inst = write_instance(tmp_path, diamond())
    weights_path = tmp_path / "w.json"
    weights_path.write_text(
        '[{"tail": "s", "head": "a", "weight": -Infinity}, '
        '{"tail": "a", "head": "t", "weight": 1}, {"tail": "s", "head": "b", "weight": 2}, '
        '{"tail": "b", "head": "t", "weight": 2}]'
    )
    assert main(["verify", inst, str(weights_path)]) == 1
    assert "error: weights[0].weight: not a finite number" in capsys.readouterr().err


def test_validate_link_with_unknown_endpoint_and_routable_demand(tmp_path, capsys):
    # Reachability runs over the known links only, so an unknown endpoint is
    # reported as a violation instead of breaking the reachability check.
    path = tmp_path / "bad.json"
    path.write_text(save_instance(diamond()).replace('"head": "t"', '"head": "z"', 1))
    assert main(["validate", str(path)]) == 2
    assert "links[1]: unknown head node 'z'" in capsys.readouterr().out


_TWO_NODE_TEXT = (
    '{"nodes": ["a", "b"], "links": [{"tail": "a", "head": "b", "capacity": 10}], '
    '"demands": [{"origin": "a", "destination": "b", "bandwidth": 1}], '
    '"w_min": 1, "w_max": 10, "weight_resolution": 1}'
)


@pytest.mark.parametrize("old, new, line", [
    ('"links": [', '"links": [{"tail": "x", "head": "b", "capacity": 1}, ',
     "links[0]: unknown tail node 'x'"),
    ('"origin": "a"', '"origin": "x"', "demands[0]: unknown origin node 'x'"),
    ('"destination": "b"', '"destination": "x"', "demands[0]: unknown destination node 'x'"),
    ('["a", "b"]', '["a", "b", "a"]', "nodes[2]: duplicate node id 'a'"),
    ('"bandwidth": 1', '"bandwidth": 0', "demands[0]: bandwidth must be positive, got 0"),
])
def test_validate_prints_each_violation(tmp_path, capsys, old, new, line):
    path = tmp_path / "bad.json"
    path.write_text(_TWO_NODE_TEXT.replace(old, new, 1))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().out == line + "\n"


@pytest.mark.parametrize("old, new, message", [
    (_TWO_NODE_TEXT, f"[{_TWO_NODE_TEXT}]", "top level must be a JSON object"),
    ('["a", "b"]', '["a", 1]', "nodes: must be an array of string ids"),
    ('"links": [{"tail": "a", "head": "b", "capacity": 10}]', '"links": {}',
     "links: must be an array"),
    ('[{"tail": "a", "head": "b", "capacity": 10}]', '["ab"]', "links[0]: must be an object"),
    ('"tail": "a"', '"tail": 1', "links[0]: tail and head must be strings"),
    ('"head": "b"', '"head": null', "links[0]: tail and head must be strings"),
])
def test_validate_refuses_malformed_text(tmp_path, capsys, old, new, message):
    path = tmp_path / "bad.json"
    path.write_text(_TWO_NODE_TEXT.replace(old, new, 1))
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_capacity_violation_table(tmp_path, capsys):
    instance = mk_instance("ab", [("a", "b", 2)], [("a", "b", 3)])
    inst = write_instance(tmp_path, instance)
    weights_path = tmp_path / "w.json"
    weights_path.write_text(oracles.save_weights(spf.hop_count_weights(instance)))
    assert main(["verify", inst, str(weights_path)]) == 2
    printed = capsys.readouterr().out
    assert "capacity violations" in printed
    assert "excess 1" in printed


def test_export_matches_golden(tmp_path, capsys):
    inst = write_instance(tmp_path, two_node())
    out = tmp_path / "model.lp"
    assert main(["export", inst, "--formulation", "dbm", "-o", str(out)]) == 0
    assert out.read_text() == (GOLDEN / "dbm_two_node.lp").read_text()


def test_export_obm_master_row_count(tmp_path, capsys):
    instance = diamond()
    inst = write_instance(tmp_path, instance)
    assert main(["export", inst, "--formulation", "obm", "--master"]) == 0
    text = capsys.readouterr().out
    rows = [l for l in text.splitlines() if l.startswith(" uniq_")]
    dims = instance.dims()
    assert len(rows) == dims.n_origins * dims.n_nodes


@pytest.mark.parametrize("formulation", ["dbm", "obm"])
@pytest.mark.parametrize("flags, eps, big_M", [
    ([], None, None),
    (["--eps", "1/4", "--big-m", "200"], Fraction(1, 4), Fraction(200)),
])
def test_export_master_writes_the_master_submodel(tmp_path, capsys, formulation, flags, eps, big_M):
    instance = generate_random_instance(
        8, 2.5, 10, w_min=Fraction(1, 2), w_max=3, weight_resolution=Fraction(1, 2), seed=1,
    )
    inst = write_instance(tmp_path, instance)
    out = tmp_path / "master.lp"
    argv = ["export", inst, "--formulation", formulation, "--master", "-o", str(out), *flags]
    assert main(argv) == 0
    build = models.build_dbm if formulation == "dbm" else models.build_obm
    model = models.master_submodel(build(instance, eps, big_M))
    assert out.read_text(encoding="utf-8") == models.export_lp(model)
    assert capsys.readouterr().out == (
        f"wrote {out}: {len(model.variables)} variables {len(model.constraints)} constraints\n"
    )


def test_export_master_checks_eps(tmp_path, capsys):
    inst = write_instance(tmp_path, two_node())
    for formulation in ("dbm", "obm"):
        assert main(["export", inst, "--formulation", formulation, "--master", "--eps", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: eps must satisfy")


def test_export_unknown_formulation_usage_error(tmp_path, capsys):
    inst = write_instance(tmp_path, two_node())
    assert main(["export", inst, "--formulation", "mip"]) == 1


def test_report_reference_dims(capsys):
    assert main(["report", "--dims", "50", "642", "1000", "50"]) == 0
    printed = capsys.readouterr().out
    for number in ("645,142", "1,334,642", "642,000", "50,642",
                   "64,200", "37,742", "32,100", "2,500"):
        assert number in printed
    assert "disagree" in printed


def test_report_zero_dims(capsys):
    assert main(["report", "--dims", "0", "0", "0", "0"]) == 0
    assert "0 variables" in capsys.readouterr().out


def test_report_instance_baselines_and_note(tmp_path, capsys):
    inst = write_instance(tmp_path, diamond())
    assert main(["report", inst]) == 0
    printed = capsys.readouterr().out
    assert "baseline comparison" in printed
    assert "hop-count" in printed and "inv-cap" in printed
    assert "solver" in printed
    assert "not" in printed and "reproducible" in printed
    # the diamond's hop-count baseline is non-unique; solver solves it
    assert "non-unique" in printed
    assert "Optimal" in printed


def test_report_tsv_format(tmp_path, capsys):
    inst = write_instance(tmp_path, diamond())
    assert main(["report", inst, "--format", "tsv", "--no-solver"]) == 0
    printed = capsys.readouterr().out
    assert "model\tvariables\tconstraints" in printed
    assert "method\tstatus\tobjective\tmax_utilization" in printed


@pytest.mark.parametrize("name, instance", [
    ("diamond", diamond()),
    ("demand_free", mk_instance("ab", [("a", "b", 10)], [])),
])
@pytest.mark.parametrize("fmt", ["text", "tsv"])
def test_report_matches_golden(tmp_path, capsys, name, instance, fmt):
    inst = write_instance(tmp_path, instance)
    assert main(["report", inst, "--no-solver", "--format", fmt]) == 0
    golden = GOLDEN / f"report_{name}_{fmt}.txt"
    assert capsys.readouterr().out.encode("utf-8") == golden.read_bytes()


def test_report_text_columns_fit_their_longest_cell(tmp_path, capsys):
    # inv-cap's status is an error message longer than the status column's
    # fixed width; every objective still starts under the header's.
    instance = mk_instance("abc", [("a", "b", 0), ("b", "c", 10), ("a", "c", 10)], [("a", "c", 1)])
    inst = write_instance(tmp_path, instance)
    assert main(["report", inst]) == 0
    printed = capsys.readouterr().out.splitlines()
    header = printed.index("baseline comparison:") + 1
    offset = printed[header].index("objective")
    table = printed[header + 1:-1]
    assert [line.split()[0] for line in table] == [
        "hop-count", "inv-cap", "solver", "solver/hop-count",
    ]
    assert "error: link ('a', 'b') has zero capacity" in table[1]
    for line in table[:3]:
        assert line[offset - 1] == " " and line[offset] != " "
    assert table[1][offset:].split() == ["-", "-"]
    assert not any(line.endswith(" ") for line in printed)


def test_report_requires_input(capsys):
    assert main(["report"]) == 1


@pytest.mark.parametrize("instance, rows", [
    (mk_instance("ab", [("a", "b", 1)], [("a", "b", 5)]),
     ["hop-count\tover-capacity\t-\t-", "inv-cap\tover-capacity\t-\t-",
      "solver\tInfeasible\t-\t-"]),
    (mk_instance("abc", [("a", "b", 0), ("b", "c", 10), ("a", "c", 10)], [("a", "c", 1)]),
     ["hop-count\tfeasible\t1\t0.1",
      "inv-cap\terror: link ('a', 'b') has zero capacity\t-\t-",
      "solver\tOptimal\t1\t0.1", "solver/hop-count utilization ratio\t1\t\t"]),
    (mk_instance("ab", [], []),
     ["hop-count\tfeasible\t0\t0", "inv-cap\tfeasible\t0\t0", "solver\tOptimal\t0\t0"]),
], ids=["over-capacity", "zero-capacity", "no-links"])
def test_report_baseline_rows(tmp_path, capsys, instance, rows):
    inst = write_instance(tmp_path, instance)
    assert main(["report", inst, "--format", "tsv"]) == 0
    printed = capsys.readouterr().out.splitlines()
    header = printed.index("method\tstatus\tobjective\tmax_utilization")
    assert printed[header + 1:-1] == rows


@pytest.mark.parametrize("argv, message", [
    (["solve", "INST", "--oracle", "--time-limit", "1"],
     "--node-limit and --time-limit apply to decomposition, not to --oracle"),
    (["solve", "INST", "--grid-limit", "10"], "--grid-limit applies to --oracle only"),
    (["report"], "provide an instance file or --dims N L D S"),
], ids=["oracle-limits", "grid-limit", "report-input"])
def test_usage_errors_print_one_error_line(tmp_path, capsys, argv, message):
    inst = write_instance(tmp_path, diamond())
    assert main([inst if a == "INST" else a for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["generate", "--nodes", "1", "--degree", "2", "--demands", "1"], "need at least 2 nodes"),
    (["generate", "--nodes", "3", "--degree", "2", "--demands", "0"],
     "n_demands must be positive"),
    (["generate", "--nodes", "3", "--degree", "3", "--demands", "1"],
     "avg_out_degree 3.0 needs 9 links; only 6 ordered pairs exist"),
    (["generate", "--nodes", "3", "--degree", "2", "--demands", "1", "--cap-range", "5", "2"],
     "capacity and demand ranges must be positive and ordered"),
    (["report", "--dims", "-1", "2", "1", "1"], "n_nodes must be non-negative"),
], ids=["one-node", "no-demands", "too-many-links", "unordered-cap-range", "negative-dims"])
def test_malformed_arguments_print_one_error_line(tmp_path, capsys, argv, message):
    out = tmp_path / "g.json"
    if argv[0] == "generate":
        argv = argv + ["-o", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_missing_file_is_usage_error(capsys):
    assert main(["solve", "/nonexistent/path.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_solve_zero_demand_instance(tmp_path, capsys):
    inst = write_instance(tmp_path, mk_instance("ab", [("a", "b", 10)], []))
    assert main(["solve", inst]) == 0
    printed = capsys.readouterr().out
    assert "status=Optimal" in printed
    assert "objective=0" in printed


def test_solve_strengthen_cuts_flag(tmp_path, capsys):
    inst = write_instance(tmp_path, diamond(w_min=2, w_max=2))
    assert main(["solve", inst]) == 2
    assert "status=Infeasible" in capsys.readouterr().out
    assert main(["solve", inst, "--strengthen-cuts"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_node_ids_that_collide_in_model_names_rejected(tmp_path, capsys):
    # w_{tail}_{head} is w_a_b_c for both links, so the ids must be refused.
    inst = write_instance(
        tmp_path,
        mk_instance(["a_b", "c", "a", "b_c"], [("a_b", "c", 10), ("a", "b_c", 10)],
                    [("a_b", "c", 1), ("a", "b_c", 1)]),
    )
    assert main(["validate", inst]) == 2
    assert "'a_b'" in capsys.readouterr().out
    assert main(["solve", inst]) == 1
    assert "node id" in capsys.readouterr().err
    assert main(["export", inst, "--formulation", "obm"]) == 1
    assert "node id" in capsys.readouterr().err


def test_json_nested_past_the_recursion_limit_is_a_parse_error(tmp_path, capsys):
    inst = write_instance(tmp_path, diamond())
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for argv in (["validate", str(deep)], ["verify", inst, str(deep)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nested too deeply" in err
        assert err.count("\n") == 1 and "Traceback" not in err


def test_verify_incomplete_weights_is_usage_error(tmp_path, capsys):
    inst = write_instance(tmp_path, diamond())
    weights_path = tmp_path / "w.json"
    weights_path.write_text('[{"tail": "s", "head": "a", "weight": 1}]')
    assert main(["verify", inst, str(weights_path)]) == 1
    assert "missing weight" in capsys.readouterr().err


def test_simplex_resource_error_exit_three(tmp_path, capsys, monkeypatch):
    from uspr import lp

    def out_of_budget(system):
        raise lp.SimplexResourceError("pivot budget 0 exceeded")

    monkeypatch.setattr(lp, "solve_feasibility", out_of_budget)
    inst = write_instance(tmp_path, diamond())
    assert main(["solve", inst]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "pivot budget" in err


def test_export_default_eps_is_gcd_of_w_min_and_resolution(tmp_path, capsys):
    inst = write_instance(tmp_path, coarse_grid_triangle())
    assert main(["export", inst, "--formulation", "dbm"]) == 0
    assert "\\ eps: 1\n" in capsys.readouterr().out


def test_export_eps_above_gcd_is_usage_error(tmp_path, capsys):
    # eps = 3 is the resolution but above gcd(2, 3) = 1: the model would cut
    # off the optimum 4, so it is refused instead of written.
    inst = write_instance(tmp_path, coarse_grid_triangle())
    assert main(["export", inst, "--formulation", "dbm", "--eps", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "gcd(w_min, weight_resolution)" in captured.err


@pytest.mark.parametrize("command, option, value", [
    ("export", "--eps", "nan"),
    ("export", "--big-m", "1/0"),
    ("generate", "--w-min", "abc"),
])
def test_bad_number_option_names_the_option_once(tmp_path, capsys, command, option, value):
    if command == "export":
        argv = ["export", write_instance(tmp_path, two_node()), "--formulation", "dbm"]
    else:
        argv = ["generate", "--nodes", "3", "--degree", "1", "--demands", "1",
                "-o", str(tmp_path / "g.json")]
    assert main([*argv, option, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"uspr {command}: error: argument {option}: not a number: {value!r}"
    )


def run_uspr(*argv: str) -> subprocess.CompletedProcess:
    """`uspr` in a process of its own, killed after 10 s, so that a hang
    fails the test instead of stalling the suite."""
    env = {**os.environ, "PYTHONPATH": str(Path(models.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "uspr.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=10)


HOSTILE = "1e30000000"  # over 20 s to build as a Fraction; "1e99999999999" never finishes


@pytest.mark.parametrize("case", [
    "instance-decimal", "instance-string", "instance-huge", "weights", "w-max", "eps",
])
def test_hostile_exponent_exits_one_at_once(tmp_path, case):
    text = save_instance(diamond())
    inst = write_instance(tmp_path, diamond())
    bad = tmp_path / "bad.json"
    argv = ["validate", str(bad)]
    if case == "instance-decimal":
        bad.write_text(text.replace('"w_max": 10', f'"w_max": {HOSTILE}'))
    elif case == "instance-string":
        bad.write_text(text.replace('"w_max": 10', f'"w_max": "{HOSTILE}"'))
    elif case == "instance-huge":
        bad.write_text(text.replace('"capacity": 10', '"capacity": 1e-99999999999', 1))
    elif case == "weights":
        bad.write_text(f'[{{"tail": "s", "head": "a", "weight": {HOSTILE}}}]')
        argv = ["verify", inst, str(bad)]
    elif case == "w-max":
        argv = ["generate", "--nodes", "3", "--degree", "1", "--demands", "1",
                "--w-max", HOSTILE, "-o", str(tmp_path / "g.json")]
    else:
        argv = ["export", inst, "--formulation", "obm", "--eps", "1e-99999999999"]
    proc = run_uspr(*argv)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and "decimal exponent outside -4300..4300" in errors[0], proc.stderr


@pytest.mark.parametrize("case, message", [
    ("generate", "argument --w-max: more than 4300 digits: '1e4300'"),
    ("export-number", "w_max: more than 4300 digits: '1e4300'"),
    ("export-string", "w_max: more than 4300 digits: '1e4300'"),
])
def test_a_number_past_the_writer_limit_is_refused_by_name(tmp_path, capsys, case, message):
    # 10**4300 has 4301 digits, one more than Python writes as text.
    if case == "generate":
        argv = ["generate", "--nodes", "3", "--degree", "1", "--demands", "1",
                "--w-max", "1e4300", "-o", str(tmp_path / "g.json")]
    else:
        value = "1e4300" if case == "export-number" else '"1e4300"'
        bad = tmp_path / "bad.json"
        bad.write_text(save_instance(diamond()).replace('"w_max": 10', f'"w_max": {value}'))
        argv = ["export", str(bad), "--formulation", "dbm"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(f"error: {message}")
    assert not (tmp_path / "g.json").exists()


def test_solve_derives_eps_from_the_instance(tmp_path, capsys):
    inst = write_instance(tmp_path, coarse_grid_triangle())
    assert main(["solve", inst]) == 0
    assert "status=Optimal objective=4 " in capsys.readouterr().out
    for flag in (["--eps", "3"], ["--big-m", "99"]):
        assert main(["solve", inst, *flag]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


def test_help_prints_each_default_once_and_never_none(capsys):
    for command in ("generate", "validate", "solve", "verify", "export", "report"):
        assert main([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "None" not in text, command
        assert re.search(r"\(default:[^)]*\) \(default:", text) is None, command
        if command == "generate":
            assert "random seed (default: 0)" in text
            assert "capacity range (default: 10 100)" in text
        if command == "export":
            assert "(default: that gcd)" in text and "(default: stdout)" in text
