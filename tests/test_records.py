import dataclasses
import inspect
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import diamond, two_node
import oracles
from oracles import DemandRouting, PathLengthCase, PathLengths, SubpathViolation
import uspr
from uspr import cli, instance, lp, models, rational, solver, spf
from uspr.instance import Demand, InstanceDims, Link, Violation
from uspr.lp import Feasible, Infeasible, LinearSystem, WeightRecovery
from uspr.models import (
    Constraint, LinearModel, SizeReport, SizeTable, StructureReport, Variable,
)
from uspr.solver import Diagnostics, NoGoodCut, Solution, SolverConfig
from uspr.spf import CapacityViolation, RoutingForest, WeightVector

# The package's modules, and the test oracles that mirror them.
MODULES = (uspr, cli, instance, lp, models, rational, solver, spf, oracles)
ONE = Fraction(1)


def _records():
    """One record of every record class, built by hand."""
    table = SizeTable("T", {"routing": 1}, {"capacity": 1})
    dims = InstanceDims(2, 1, 1, 1)
    variable = Variable("w_s_t", "continuous", ONE, None)
    weights = WeightVector({("s", "t"): ONE})
    forest = RoutingForest({("s", "t"): ("s", "t")})
    diagnostics = Diagnostics(1, 0, 1, 0.0, {})
    return [
        Link("s", "t", ONE), Demand("s", "t", ONE), Violation("w_min", "bad"), dims,
        two_node(),
        variable, Constraint("c", (("w_s_t", ONE),), "<=", ONE),
        LinearModel("DBM", ONE, ONE, (variable,), (), ()),
        table, SizeReport(dims, table, table, table, table, table, "note"),
        StructureReport("DBM", {"capacity": ("routing",)}), PathLengthCase("equal", 0, 0),
        LinearSystem((variable,), ()), Feasible({"w_s_t": ONE}), Infeasible(("c",)),
        WeightRecovery("ok", weights, "direct"),
        DemandRouting((frozenset({("s", "t")}),)), diagnostics,
        Solution("Optimal", weights, forest, ONE, diagnostics), SolverConfig(),
        SubpathViolation("s", "t", (("s", "t"),)), NoGoodCut(frozenset({("s", ("s", "t"), 1)})),
        weights, PathLengths("s", {"s": 0}), forest, CapacityViolation(("s", "t"), 2, ONE),
    ]


def _public_classes():
    return {
        cls for module in MODULES for name, cls in vars(module).items()
        if inspect.isclass(cls) and not name.startswith("_")
        and cls.__module__.startswith(("uspr", "oracles"))
    }


def test_importing_the_cli_loads_no_dataclasses():
    env = {**os.environ, "PYTHONPATH": str(Path(uspr.__file__).parents[1])}
    code = "import sys, uspr.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=10, check=True)
    assert out.stdout == "False\n"


def test_every_record_is_a_named_tuple_and_none_a_dataclass():
    classes = _public_classes()
    assert not [cls for cls in classes if dataclasses.is_dataclass(cls)]
    records = {cls for cls in classes if issubclass(cls, tuple)}
    assert {type(r) for r in _records()} == records
    assert all(hasattr(cls, "_fields") for cls in records)


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_a_record_rejects_assignment_and_shows_its_fields(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert repr(record).startswith(f"{type(record).__name__}({record._fields[0]}=")


@pytest.mark.parametrize("make", [
    lambda n: Link("s", "t", Fraction(n)),
    lambda n: Demand("s", "t", Fraction(n)),
    lambda n: Variable("w", "continuous", Fraction(n), None),
    lambda n: NoGoodCut(frozenset({("s", ("s", "t"), n)})),
    lambda n: InstanceDims(2, 1, 1, n),
])
def test_records_hash_and_compare_by_value(make):
    a, b, other = make(1), make(1), make(0)
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != other


def test_no_two_diagnostics_share_a_details_dict():
    assert Diagnostics._field_defaults == {}
    runs = [solver.benders_solve(diamond()), solver.benders_solve(diamond()),
            solver.brute_force_solve(diamond()), solver.brute_force_solve(diamond())]
    details = [r.diagnostics.details for r in runs]
    assert len({id(d) for d in details}) == len(details)


def test_replace_checks_like_the_constructor():
    assert SolverConfig(node_limit=3)._replace(time_limit=1.0) == SolverConfig(3, 1.0)
    assert InstanceDims(3, 3, 3, 2)._replace(n_links=5) == InstanceDims(3, 5, 3, 2)
    with pytest.raises(ValueError, match="node_limit"):
        SolverConfig(node_limit=3)._replace(node_limit=-1)
    with pytest.raises(ValueError, match="n_origins"):
        InstanceDims(3, 3, 3, 2)._replace(n_origins=99)
    with pytest.raises(ValueError, match="n_links"):
        InstanceDims._make((3, -1, 3, 2))
