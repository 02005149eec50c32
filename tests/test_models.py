import hashlib
import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    ReferenceBuilder,
    coarse_grid_triangle,
    diamond,
    mk_instance,
    model_counts,
    random_tree_routing,
    small_random,
    two_node,
)
from uspr import lp, models, solver
from uspr.instance import InstanceDims, generate_random_instance
from uspr.models import (
    Constraint,
    LinearModel,
    LpParseError,
    ModelParameterError,
    Variable,
    build_dbm,
    build_obm,
    export_lp,
    linearization_check,
    master_submodel,
    parse_lp,
    size_report,
    structure_report,
)

GOLDEN = Path(__file__).parent / "golden"


def thirds_grid():
    """(12,3,20)s0 on the grid 1/2..9/2 step 1/3: eps 1/6 and big_M 149/3."""
    return generate_random_instance(
        12, 3, 20, w_min=Fraction(1, 2), w_max=Fraction(9, 2),
        weight_resolution=Fraction(1, 3), seed=0,
    )


def row_scan(model):
    """Per row family, the variable families (name prefixes) its rows have
    terms on, in row order: the reference for `structure_report`.  The
    prefixes come in the order the model first declares each."""
    prefixes = dict.fromkeys(v.name.split("_", 1)[0] for v in model.variables)
    seen: dict[str, set[str]] = {}
    for c in model.constraints:
        fam = models._family(c.name, models._ROW_FAMILY_LABEL)
        seen.setdefault(fam, set()).update(var.split("_", 1)[0] for var, _coef in c.terms)
    return {
        fam: tuple(v for v in prefixes if v in families)
        for fam, families in seen.items()
    }


def structure_cases():
    yield from (small_random(seed) for seed in range(20))
    yield thirds_grid()
    yield mk_instance("ab", [("a", "b", 10)], [])  # demand-free
    yield mk_instance("ab", [], [])  # link-free
    yield mk_instance([], [], [])  # no nodes


def model_violations(model):
    """Problems of a built model beyond `models.table_violations`: binaries
    bounded [0, 1], known variable kinds, and no zero coefficient kept."""
    out = models.table_violations(model.variables, model.constraints, model.objective)
    for v in model.variables:
        if v.kind == "binary" and (v.lb != 0 or v.ub != 1):
            out.append(f"variable {v.name}: binary must be bounded [0, 1]")
        if v.kind not in ("binary", "continuous"):
            out.append(f"variable {v.name}: unknown kind {v.kind!r}")
    for c in model.constraints:
        for var, coef in c.terms:
            if coef == 0:
                out.append(f"constraint {c.name}: keeps a zero coefficient on {var!r}")
    return out


def test_two_node_dbm_counts():
    m = build_dbm(two_node())
    assert len(m.variables) == 4
    assert len(m.constraints) == 5
    assert model_violations(m) == []


def test_two_node_obm_counts():
    m = build_obm(two_node())
    assert len(m.variables) == 5
    assert len(m.constraints) == 8
    assert model_violations(m) == []


def assert_family_match(model, table):
    """The built model's family counts are the table's non-zero families."""
    actual = model_counts(model)
    assert actual.variables == {k: v for k, v in table.variables.items() if v}
    assert actual.constraints == {k: v for k, v in table.constraints.items() if v}


def test_builders_match_formulas_family_by_family():
    for inst in structure_cases():
        report = size_report(inst.dims())
        dbm, obm = build_dbm(inst), build_obm(inst)
        assert_family_match(dbm, report.dbm)
        assert_family_match(obm, report.obm)
        assert_family_match(master_submodel(dbm), report.dbm_master)
        assert_family_match(master_submodel(obm), report.obm_master)


def test_size_report_reference_dims():
    report = size_report(InstanceDims(50, 642, 1000, 50))
    assert report.dbm.total_variables == 645_142
    assert report.dbm.total_constraints == 1_334_642
    assert report.dbm_master.total_variables == 642_000
    assert report.dbm_master.total_constraints == 50_642
    assert report.obm.total_variables == 67_342
    assert report.obm.total_constraints == 101_942
    assert report.obm_reduced.total_variables == 64_200
    assert report.obm_reduced.total_constraints == 37_742
    assert report.obm_master.total_variables == 32_100
    assert report.obm_master.total_constraints == 2_500
    assert "disagree" in report.note


def test_size_report_zero_dims():
    report = size_report(InstanceDims(0, 0, 0, 0))
    for table in (report.dbm, report.dbm_master, report.obm,
                  report.obm_reduced, report.obm_master):
        assert table.total_variables == 0
        assert table.total_constraints == 0


def test_master_builds_equal_the_master_submodel():
    for inst in (*structure_cases(), diamond(), coarse_grid_triangle()):
        for build in (build_dbm, build_obm):
            assert build(inst, master=True) == master_submodel(build(inst)), inst
    for eps, big_M in ((Fraction(1, 12), 100), (Fraction(1, 6), Fraction(301, 6))):
        for build in (build_dbm, build_obm):
            master = build(thirds_grid(), eps, big_M, master=True)
            assert master == master_submodel(build(thirds_grid(), eps, big_M))
            assert (master.eps, master.big_M) == (eps, big_M)
    with pytest.raises(ModelParameterError):
        build_dbm(two_node(), eps=2, master=True)


def test_master_submodels_match_reference_counts():
    inst = diamond()
    d = inst.dims()
    dbm_master = master_submodel(build_dbm(inst))
    assert len(dbm_master.variables) == d.n_demands * d.n_links
    assert len(dbm_master.constraints) == d.n_demands * d.n_nodes + d.n_links
    obm_master = master_submodel(build_obm(inst))
    assert len(obm_master.variables) == d.n_origins * d.n_links
    assert len(obm_master.constraints) == d.n_origins * d.n_nodes
    assert obm_master.objective == ()


def test_empty_demand_model_is_degenerate():
    inst = mk_instance("ab", [("a", "b", 10)], [])
    m = build_dbm(inst)
    assert [v.name for v in m.variables] == ["w_a_b"]
    assert [c.name for c in m.constraints] == ["cap_a_b"]
    assert m.objective == ()
    text = export_lp(m)
    assert " obj: 0" in text
    assert "Bounds" in text
    assert row_scan(m) == {"capacity": ()}
    assert structure_report("DBM", size_report(inst.dims()).dbm).couplings == row_scan(m)


def test_eps_big_m_validation():
    inst = two_node()
    with pytest.raises(ModelParameterError):
        build_dbm(inst, eps=2)  # eps > gcd(w_min, resolution) = 1
    with pytest.raises(ModelParameterError):
        build_dbm(inst, eps=0)
    with pytest.raises(ModelParameterError):
        build_dbm(inst, big_M=5)  # below (|N|-1)*w_max + eps = 11
    m = build_dbm(inst, eps=Fraction(1, 2), big_M=20)
    assert m.eps == Fraction(1, 2)
    # Grid {2, 5}: eps = 2 is below the resolution 3 but above gcd(2, 3) = 1,
    # so it would cut off the two-hop route 2 + 2 < 5.
    coarse = coarse_grid_triangle()
    with pytest.raises(ModelParameterError, match="gcd"):
        build_obm(coarse, eps=2)
    assert build_obm(coarse, eps=1).eps == 1


def test_structure_report_matches_a_row_scan():
    for inst in structure_cases():
        sizes = size_report(inst.dims())
        for formulation, build, table in (("DBM", build_dbm, sizes.dbm),
                                          ("OBM", build_obm, sizes.obm)):
            report = structure_report(formulation, table)
            assert report.formulation == formulation
            assert report.couplings == row_scan(build(inst)), (formulation, inst)


def test_structure_report_dbm_families():
    report = structure_report("DBM", size_report(diamond().dims()).dbm)
    assert report.couplings == {
        "flow_conservation": ("x",),
        "capacity": ("x",),
        "path_length": ("x", "w", "l"),
    }


def test_structure_report_obm_families():
    report = structure_report("OBM", size_report(diamond().dims()).obm)
    assert report.couplings == {
        "flow_conservation": ("f",),
        "flow_bound": ("y", "f"),
        "capacity": ("f",),
        "uniqueness": ("y",),
        "path_length": ("y", "w", "l"),
    }


def test_linearization_cases():
    eps, big_M = Fraction(1), Fraction(11)
    used = linearization_check(1, 1, eps, big_M)
    assert used.relation == "equal"
    assert (used.lower, used.upper) == (0, 0)
    merge = linearization_check(0, 1, eps, big_M)
    assert merge.relation == "strict"
    assert (merge.lower, merge.upper) == (-big_M, -eps)
    away = linearization_check(0, 0, eps, big_M)
    assert away.relation == "slack"
    assert (away.lower, away.upper) == (-big_M, 0)


def test_linearization_inconsistent_binaries():
    with pytest.raises(ValueError):
        linearization_check(1, 0, 1, 11)
    with pytest.raises(ValueError):
        linearization_check(0, 2, 1, 11)
    with pytest.raises(ModelParameterError):
        linearization_check(0, 0, 2, 1)  # eps >= big_M


def test_export_deterministic():
    inst = diamond()
    m = build_dbm(inst)
    assert export_lp(m) == export_lp(build_dbm(inst))


def test_export_matches_golden_dbm():
    text = export_lp(build_dbm(two_node()))
    assert text == (GOLDEN / "dbm_two_node.lp").read_text()


def test_export_matches_golden_obm():
    text = export_lp(build_obm(two_node()))
    assert text == (GOLDEN / "obm_two_node.lp").read_text()


def test_export_matches_golden_obm_master():
    text = export_lp(master_submodel(build_obm(diamond())))
    assert text == (GOLDEN / "obm_diamond_master.lp").read_text()


def fractional_instance():
    return mk_instance(
        "abc",
        [("a", "b", Fraction(5, 2)), ("b", "c", Fraction(7, 2)), ("a", "c", Fraction(6, 5))],
        [("a", "c", Fraction(1, 4))],
        w_min=Fraction(1, 2), w_max=Fraction(5, 2), step=Fraction(1, 2),
    )


def test_export_matches_golden_fractional():
    m = build_dbm(fractional_instance())
    text = export_lp(m)
    assert text == (GOLDEN / "dbm_fractional.lp").read_text()
    assert parse_lp(text) == m


def test_lp_round_trip_exact():
    for build in (build_dbm, build_obm):
        for inst in (two_node(), diamond()):
            m = build(inst)
            assert parse_lp(export_lp(m)) == m


def test_lp_round_trip_master():
    m = master_submodel(build_obm(diamond()))
    assert parse_lp(export_lp(m)) == m


def test_export_bytes_pinned_on_a_thirds_grid():
    # eps 1/6 and big_M 149/3 put p/q text into coefficients, rhs and bounds;
    # the digests were recorded from the per-term Fraction exporter, and the
    # DBM master's from `master_submodel` before the master-only build.
    inst = thirds_grid()
    dbm, obm = build_dbm(inst), build_obm(inst)
    dbm_master = "75b3de160ca5809e8c61010b4d2413795db77f1f264265cdea3698bdcf02b7bc"
    obm_master = "83a0d18f43585ae5d5bc9c60f1f7dd2aca82f7131ca5301a559c0aa528a90331"
    pinned = (
        (dbm, "1eda55576fe7146ff66fb771b8625447b77165d25d41b73f63409dacb7cb5748"),
        (master_submodel(dbm), dbm_master),
        (build_dbm(inst, master=True), dbm_master),
        (obm, "525bbc069867f5a40e4e9f177a326b1a341bca8e465aef11cb0a971b86f0998e"),
        (master_submodel(obm), obm_master),
        (build_obm(inst, master=True), obm_master),
    )
    assert (obm.eps, obm.big_M) == (Fraction(1, 6), Fraction(149, 3))
    for m, digest in pinned:
        text = export_lp(m)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, m.formulation
        assert parse_lp(text) == m



def twelve_node():
    """(12,3,20)s0 on the default grid 1..10."""
    return generate_random_instance(12, 3, 20, seed=0)


def test_export_bytes_pinned_on_a_twelve_node_instance():
    # Recorded at commit 3262365, before rows were emitted in declaration
    # order and the export memo was keyed by object.
    inst = twelve_node()
    pinned = (
        (build_dbm(inst), "be94844de033dd7194495aec21bfa5516910f37a55cff2f4d3dec53d45dbdf07"),
        (build_obm(inst), "e45ddf86d669a1194a49b49af9734251a16500888c85d44a5e89574a00d94618"),
        (build_obm(inst, master=True),
         "229734f4a575aba4f6324b8fb9be16cfcac542980e6a6093e0968e25f622e08f"),
    )
    for m, digest in pinned:
        assert hashlib.sha256(export_lp(m).encode("utf-8")).hexdigest() == digest, m.formulation


def test_export_of_distinct_equal_numbers_matches_shared_ones():
    # The export memo is keyed by object: a parsed model's equal numbers are
    # distinct objects, so every lookup of its own misses and formats again.
    for inst in (thirds_grid(), twelve_node()):
        for m in (build_dbm(inst), build_obm(inst)):
            text = export_lp(m)
            assert export_lp(parse_lp(text)) == text, m.formulation

    def hand_model(number):
        return LinearModel(
            "T", number(1, 6), number(149, 3),
            (Variable("x", "continuous", number(0, 1), number(9, 2)),
             Variable("y", "continuous", number(-1, 3), None)),
            (Constraint("a", (("x", number(-1, 6)), ("y", number(1, 1))), "<=", number(9, 2)),
             Constraint("b", (("x", number(-1, 6)), ("y", number(-1, 6))), ">=", number(-1, 3))),
            (("x", number(149, 3)), ("y", number(1, 1))),
        )

    memo: dict[tuple[int, int], Fraction] = {}
    shared = hand_model(lambda p, q: memo.setdefault((p, q), Fraction(p, q)))
    distinct = hand_model(Fraction)
    assert distinct.constraints[0].terms[0][1] is not distinct.constraints[1].terms[0][1]
    assert shared.constraints[0].terms[0][1] is shared.constraints[1].terms[0][1]
    assert distinct == shared
    assert export_lp(distinct) == export_lp(shared)
    assert "a: - 1/6 x + y <= 4.5" in export_lp(distinct)


def term_order_cases():
    """A thirds grid, a coarse grid {2, 5} and the default grid; each has a
    node with three or more in-links and links whose tail follows its head."""
    yield thirds_grid()
    yield generate_random_instance(8, 3, 10, w_min=2, w_max=5, weight_resolution=3, seed=21)
    yield generate_random_instance(7, 2.5, 8, seed=3)


def assert_declaration_order(variables, constraints):
    position = {v.name: k for k, v in enumerate(variables)}
    for c in constraints:
        at = [position[var] for var, _ in c.terms]
        assert at == sorted(set(at)), f"{c.name}: terms out of declaration order"
        assert all(coef != 0 for _, coef in c.terms), f"{c.name}: zero coefficient"


def test_rows_are_emitted_in_declaration_order(monkeypatch):
    # `ReferenceBuilder` sorts each row by declaration position and drops
    # zeros; the builder relies on its emitters to need neither.
    for inst in term_order_cases():
        index = inst.node_index()
        assert max(len(links) for links in inst.in_links().values()) >= 3
        assert any(index[l.tail] > index[l.head] for l in inst.links)
        rng = random.Random(0)
        forests = [solver.demand_to_origin(inst, random_tree_routing(inst, rng))
                   for _ in range(3)]

        def builds():
            for build in (build_dbm, build_obm):
                for master in (False, True):
                    yield build(inst, master=master)
            for forest in forests:
                yield lp.path_length_system(inst, forest)

        built = list(builds())
        with monkeypatch.context() as patched:
            patched.setattr(models, "_ModelBuilder", ReferenceBuilder)
            patched.setattr(lp, "_ModelBuilder", ReferenceBuilder)
            reference = list(builds())
        for got, want in zip(built, reference, strict=True):
            if isinstance(got, LinearModel):
                assert got == want, got.formulation
                assert_declaration_order(got.variables, got.constraints)
            else:
                (system, meta), (ref_system, ref_meta) = got, want
                assert system == ref_system
                assert meta == ref_meta
                assert_declaration_order(system.variables, system.rows)


SMALL_LP = """\\ formulation: T
Minimize
 obj: x
Subject To
 c: x + y <= 1
Bounds
 0 <= x <= 1
 0 <= y
Binary
 x
End
"""


def test_small_lp_parses():
    m = parse_lp(SMALL_LP)
    assert [(v.name, v.kind, v.lb, v.ub) for v in m.variables] == [
        ("x", "binary", 0, 1), ("y", "continuous", 0, None)
    ]
    assert m.constraints[0].terms == (("x", 1), ("y", 1))


@pytest.mark.parametrize("old, new, line", [
    (" obj: x", " obj: 1/0 x", 3),
    (" obj: x", " obj: 2.5.3 x", 3),
    (" c: x + y", " c: x + 1/0 y", 5),
    ("<= 1\n", "<= abc\n", 5),
    ("<= 1\n", "<= 1/0\n", 5),
    (" 0 <= y", " abc <= y", 8),
    (" 0 <= x <= 1", " 0 <= x <= 1/0", 7),
    (" 0 <= x <= 1", " x = 1..0", 7),
], ids=["objective-1/0", "objective-2.5.3", "row-term", "rhs-abc", "rhs-1/0",
        "lower-bound", "upper-bound", "fixed-bound"])
def test_parse_lp_names_the_line_of_a_malformed_number(old, new, line):
    assert old in SMALL_LP
    with pytest.raises(LpParseError, match=f"^line {line}: not a number"):
        parse_lp(SMALL_LP.replace(old, new, 1))


@pytest.mark.parametrize("old, new, message", [
    (" c: x + y", " c: x + z", "constraint c: references undeclared 'z'"),
    (" obj: x", " obj: x + z", "objective: references undeclared 'z'"),
    (" x\nEnd", " x\n z\nEnd", "line 11: binary 'z' has no Bounds line"),
    (" 0 <= y\n", " 0 <= y\n y free\n", "variable y: declared twice"),
], ids=["row-term", "objective", "binary", "bounds-twice"])
def test_parse_lp_refuses_names_it_cannot_place(old, new, message):
    assert old in SMALL_LP
    with pytest.raises(LpParseError, match=message):
        parse_lp(SMALL_LP.replace(old, new, 1))
