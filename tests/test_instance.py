import json
import re
from fractions import Fraction

import pytest

from conftest import mk_instance, two_node
from uspr.rational import parse_number
from uspr.instance import (
    GenerationError,
    InstanceDims,
    InstanceParseError,
    InstanceValidationError,
    generate_random_instance,
    load_instance,
    save_instance,
    validate_instance,
)


def test_minimal_valid_instance():
    assert validate_instance(two_node()) == []


def test_origin_equals_destination_flagged():
    inst = mk_instance("ab", [("a", "b", 10)], [("a", "a", 1)])
    report = validate_instance(inst)
    assert any("origin equals destination" in str(v) for v in report)


def test_duplicate_od_pair_flagged():
    inst = mk_instance(
        "ab", [("a", "b", 10)], [("a", "b", 1), ("a", "b", 2)]
    )
    report = validate_instance(inst)
    assert any("duplicate OD pair" in str(v) for v in report)


def test_self_loop_and_duplicate_link_flagged():
    inst = mk_instance("ab", [("a", "a", 1), ("a", "b", 1), ("a", "b", 2)], [])
    messages = [str(v) for v in validate_instance(inst)]
    assert any("self-loop" in m for m in messages)
    assert any("duplicate link" in m for m in messages)


def test_unreachable_demand_flagged():
    inst = mk_instance("abc", [("a", "b", 1)], [("a", "c", 1)])
    assert any("unreachable" in str(v) for v in validate_instance(inst))


def test_negative_capacity_flagged():
    inst = mk_instance("ab", [("a", "b", -3)], [])
    assert any("negative capacity" in str(v) for v in validate_instance(inst))


def test_whitespace_node_id_flagged():
    inst = mk_instance(("a b", "c"), [("a b", "c", 1)], [])
    assert any("whitespace" in str(v) for v in validate_instance(inst))


def test_off_grid_bounds_flagged():
    inst = mk_instance("ab", [("a", "b", 1)], [], w_min=1, w_max=Fraction(5, 2), step=1)
    assert any("grid" in str(v) for v in validate_instance(inst))


def test_dims_invariants():
    with pytest.raises(ValueError):
        InstanceDims(2, 1, 1, 2)  # more origins than demands
    with pytest.raises(ValueError):
        InstanceDims(1, 0, 5, 2)  # more origins than nodes
    d = InstanceDims(50, 642, 1000, 50)
    assert (d.n_nodes, d.n_links, d.n_demands, d.n_origins) == (50, 642, 1000, 50)


def test_generation_deterministic():
    a = generate_random_instance(4, 2, 3, seed=7)
    b = generate_random_instance(4, 2, 3, seed=7)
    assert a == b
    c = generate_random_instance(4, 2, 3, seed=8)
    assert a != c


def test_generation_counting_infeasible():
    with pytest.raises(GenerationError):
        generate_random_instance(2, 1, 3, seed=0)


def test_generation_reference_dims():
    inst = generate_random_instance(50, 12.84, 1000, seed=0)
    d = inst.dims()
    assert d.n_nodes == 50
    assert d.n_links == 642
    assert d.n_demands == 1000
    assert d.n_origins <= 50
    assert validate_instance(inst) == []


def test_generated_instances_valid_and_round_trip():
    for seed in range(25):
        inst = generate_random_instance(3 + seed % 5, 1.5, 2 + seed % 4, seed=seed)
        assert validate_instance(inst) == []
        assert load_instance(save_instance(inst)) == inst


def test_round_trip_fractional_values():
    inst = mk_instance(
        "ab", [("a", "b", Fraction(5, 2))], [("a", "b", Fraction(1, 4))],
        w_min=Fraction(1, 2), w_max=Fraction(5, 2), step=Fraction(1, 2),
    )
    assert load_instance(save_instance(inst)) == inst


def test_round_trip_non_decimal_rational():
    inst = mk_instance("ab", [("a", "b", Fraction(1, 3))], [("a", "b", 1)])
    text = save_instance(inst)
    assert '"1/3"' in text  # no finite decimal form: saved as a string
    assert load_instance(text) == inst


def test_instance_file_golden_bytes():
    inst = mk_instance("ab", [("a", "b", Fraction(1, 3)), ("b", "a", Fraction(5, 2))],
                       [("a", "b", 1)], w_min=Fraction(1, 2), w_max=5, step=Fraction(1, 2))
    assert save_instance(inst) == (
        '{\n'
        '  "nodes": ["a", "b"],\n'
        '  "links": [\n'
        '    {"tail": "a", "head": "b", "capacity": "1/3"},\n'
        '    {"tail": "b", "head": "a", "capacity": 2.5}\n'
        '  ],\n'
        '  "demands": [\n'
        '    {"origin": "a", "destination": "b", "bandwidth": 1}\n'
        '  ],\n'
        '  "w_min": 0.5,\n'
        '  "w_max": 5,\n'
        '  "weight_resolution": 0.5\n'
        '}\n'
    )


def test_load_missing_field_names_it():
    with pytest.raises(InstanceParseError, match="w_min"):
        load_instance('{"nodes": ["a"], "links": [], "demands": [], '
                      '"w_max": 1, "weight_resolution": 1}')


def test_load_missing_link_field_names_location():
    text = (
        '{"nodes": ["a", "b"], "links": [{"tail": "a", "head": "b"}], '
        '"demands": [], "w_min": 1, "w_max": 1, "weight_resolution": 1}'
    )
    with pytest.raises(InstanceParseError, match=r"links\[0\]"):
        load_instance(text)


def test_load_surfaces_validation_violations():
    text = (
        '{"nodes": ["a", "b"], '
        '"links": [{"tail": "a", "head": "b", "capacity": -3}], '
        '"demands": [], "w_min": 1, "w_max": 10, "weight_resolution": 1}'
    )
    with pytest.raises(InstanceValidationError, match="negative capacity"):
        load_instance(text)


def test_load_rejects_bad_json():
    with pytest.raises(InstanceParseError):
        load_instance("{not json")
    with pytest.raises(InstanceParseError, match="nested too deeply"):
        load_instance("[" * 100_000 + "]" * 100_000)


# Refused by the exponent bound alone: without it these build in
# milliseconds, so a lost bound fails the test instead of stalling it.
_EXPONENT_CASES = [
    ('"w_max": 10', '"w_max": 1e4301', "w_max"),
    ('"w_max": 10', '"w_max": "1e4301"', "w_max"),
    ('"w_min": 1', '"w_min": "1e-4301"', "w_min"),
    ('"capacity": 10', '"capacity": 2.5E+04301', r"links\[0\]\.capacity"),
    ('"capacity": 10', '"capacity": "1e43_01"', r"links\[0\]\.capacity"),
]


@pytest.mark.parametrize("old, new, where", _EXPONENT_CASES,
                         ids=["decimal", "string", "negative", "capital-e", "underscore"])
def test_load_refuses_a_decimal_exponent_past_the_digit_limit(old, new, where):
    text = save_instance(two_node())
    assert old in text
    with pytest.raises(InstanceParseError, match=f"^{where}: decimal exponent outside -4300..4300"):
        load_instance(text.replace(old, new, 1))


@pytest.mark.parametrize("old, number, where", [
    ('"w_max": 10', "1e30000000", "w_max"),
    ('"capacity": 10', "7" * 5000, r"links\[0\]\.capacity"),
], ids=["w_max", "capacity"])
def test_a_refused_json_number_names_its_field_as_a_string_does(old, number, where):
    text = save_instance(two_node())
    field = old.split(":")[0]
    messages = []
    for value in (number, f'"{number}"'):
        with pytest.raises(InstanceParseError, match=f"^{where}: ") as refused:
            load_instance(text.replace(old, f"{field}: {value}", 1))
        messages.append(str(refused.value))
    assert messages[0] == messages[1]


def test_load_reads_a_decimal_exponent_at_the_digit_limit():
    # 10**4299 has 4300 digits, the most a numerator or denominator may have.
    text = save_instance(two_node()).replace('"w_max": 10', '"w_max": 1e4299', 1)
    assert load_instance(text).w_max == 10**4299
    text = save_instance(two_node()).replace(
        '"weight_resolution": 1', '"weight_resolution": "1e-0004299"', 1)
    assert load_instance(text).weight_resolution == Fraction(1, 10**4299)


@pytest.mark.parametrize("new, message", [
    ('"w_max": 1e4300', "w_max: more than 4300 digits: '1e4300'"),
    ('"w_max": "1e4300"', "w_max: more than 4300 digits: '1e4300'"),
    ('"weight_resolution": "1e-4300"', "weight_resolution: more than 4300 digits: '1e-4300'"),
    ('"weight_resolution": "1/' + "7" * 4301 + '"', "weight_resolution: more than 4300 digits"),
], ids=["json-number", "numerator", "denominator", "p/q"])
def test_load_refuses_a_number_the_writer_could_not_write(new, message):
    text = save_instance(two_node())
    old = new.split(":")[0] + (": 10" if "w_max" in new else ": 1")
    assert old in text
    with pytest.raises(InstanceParseError, match="^" + re.escape(message)):
        load_instance(text.replace(old, new, 1))


def test_parse_number_reads_a_float_through_its_shortest_repr():
    assert parse_number(0.1) == Fraction(1, 10)


def test_parse_number_refuses_an_int_past_the_digit_limit():
    assert parse_number(10**4300 - 1, "w_max") == 10**4300 - 1
    with pytest.raises(ValueError, match="^w_max: more than 4300 digits$"):
        parse_number(-(10**4300), "w_max")


def test_numbers_of_4300_digits_round_trip():
    # Each value's numerator and denominator has at most 4300 digits; the
    # last two have no decimal of 4300 digits, so they are written as p/q.
    values = [Fraction(10**4300 - 1), Fraction(1, 10**4299), Fraction(10**4300 - 1, 10**4299),
              Fraction(1, 2**5000), Fraction(7**5000, 5**6000)]
    for value in values:
        inst = two_node(cap=value)
        text = save_instance(inst)
        assert load_instance(text) == inst
        assert save_instance(load_instance(text)) == text
    assert str(10**4300 - 1) in save_instance(two_node(cap=10**4300 - 1))


@pytest.mark.parametrize("field", ['"capacity": 10', '"w_max": 10'])
def test_load_refuses_a_5000_digit_integer(field):
    text = save_instance(two_node())
    big = field.split(": ")[0] + ": " + "9" * 5000
    with pytest.raises(InstanceParseError, match="more than 4300 digits: '9{19}[.][.][.]$"):
        load_instance(text.replace(field, big, 1))


def test_load_shows_a_short_prefix_of_a_bad_value():
    text = save_instance(two_node()).replace('"capacity": 10', f'"capacity": {json.dumps(["x"] * 100_000)}', 1)
    with pytest.raises(InstanceParseError) as caught:
        load_instance(text)
    assert str(caught.value) == 'links[0].capacity: expected a number, got ["x", "x", "x", "x",...'


@pytest.mark.parametrize("value, shown", [
    ("[0]", "[0]"),
    ('{"c": [2.50, true, null]}', '{"c": [2.5, true, null]}'),
    ('[0.1, 0.2, 0.3, 0.4, 0.5, 0.6]', "[0.1, 0.2, 0.3, 0.4,..."),
    ("[1e-7]", "[0.0000001]"),
    ("[NaN]", "[NaN]"),
    ("[1e5000]", "[1e5000]"),  # a number read_json refused, as the file spells it
])
def test_load_shows_a_bad_value_as_json_text(value, shown):
    text = save_instance(two_node()).replace('"capacity": 10', f'"capacity": {value}', 1)
    with pytest.raises(InstanceParseError) as caught:
        load_instance(text)
    assert str(caught.value) == f"links[0].capacity: expected a number, got {shown}"


def test_derived_sets_recomputed():
    inst = mk_instance(
        "abc", [("a", "b", 1), ("b", "c", 1), ("c", "a", 1)],
        [("a", "b", 1), ("a", "c", 2), ("b", "c", 1)],
    )
    assert inst.origins() == ("a", "b")
    assert [d.destination for d in inst.demands_from("a")] == ["b", "c"]
    assert inst.destinations_from("a") == ("b", "c")
    assert inst.origin_bandwidth("a") == 3
    assert inst.dims() == InstanceDims(3, 3, 3, 2)
