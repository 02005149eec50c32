"""Mixed-integer model builders for the two routing formulations.

Two complete formulations are constructed as explicit variable/constraint
tables and rendered to LP text:

 - DBM (demand-based): one binary routing variable per (demand, link), plus
   link weights and per-origin path-length variables.  Constraint families:
   flow conservation, link capacity, and the big-M/epsilon linearization of
   the path-length logic.
 - OBM (origin-based): one binary routing variable and one continuous flow
   variable per (origin, link).  Constraint families: per-tree flow
   conservation, flow bounds, link capacity, path uniqueness, and the same
   path-length linearization over origins.

Both are built by one `_ModelBuilder`: it declares the weight and length
variables, and emits one routing tree's conservation rows and path-length
pairs.  DBM has a tree per demand (routed by `x`), OBM a tree per origin
(routed by `y`, carrying flow `f`).  The builder also writes the weight
recovery subproblem of the decomposition (`lp.path_length_system`): OBM's
path-length block with every routing binary replaced by a candidate forest's
binding (origin, link, 0 or 1), each binding folded into its row's
right-hand side and recorded as that row's.  Every family is declared once,
in `_families`: the size tables, the structure report (no model built), the
name-to-family maps and the master split (a builder's `master`) all read it.

A model's parts are records: `Variable`, `Constraint` and `LinearModel`
are each a `typing.NamedTuple`, as is every record of the package, so they
are immutable and compare by value.  A build allocates each
`(variable, coefficient)` term once and every row that carries it holds the
same tuple: rows are immutable, so sharing changes no row and no byte of
the export.  The builders and `export_lp` run with the cyclic garbage
collector paused (`_collector_paused`): a model holds only strings,
`Fraction`s and tuples of them, so the collections its allocation would
trigger find no cycle to free.  The `uspr export` command is the third
pauser (`cli._cmd_export`): it frees its model and LP text before the
collector resumes, because the first allocation after a resume would
otherwise run one young collection over every term and row still alive.

Variable naming is fixed for golden-file stability: `x_<k>_<i>_<j>` (demand
index k, link i->j), `y_<s>_<i>_<j>`, `f_<s>_<i>_<j>`, `w_<i>_<j>`, and
`l_<s>_<i>`.  Components are joined with underscores, which is unambiguous
because node ids match `[A-Za-z0-9]+`.  They are declared in that order,
per tree in link order (lengths in node order).  Emitters list every row's
terms in that order, so no row is sorted; no coefficient is zero (eps, big_M
and bandwidths are positive, no link is a self-loop), so none is dropped.

Constraint names carry a family tag: `fc_*` flow conservation, `cap_*`
capacity, `fb_*` flow bound, `uniq_*` uniqueness, `pl_ub_*`/`pl_lb_*` the
path-length pair.

Defaults: eps = gcd(w_min, weight_resolution) (the smallest positive gap two
grid path lengths can have) and big_M = (|N| - 1) * w_max + eps (the longest
simple path plus that gap); with these the linearized pair is exactly
equivalent to the three-case logic form.  `resolve_params` is the one place
these defaults and their validity bounds are applied.  Only an export may
set eps or big_M; every solve uses the defaults.
"""

from __future__ import annotations

import functools
import gc
from fractions import Fraction
from typing import NamedTuple

from .instance import Instance, InstanceDims
from .rational import format_number, frac_gcd, parse_number


_ZERO, _ONE, _MINUS_ONE = Fraction(0), Fraction(1), Fraction(-1)

# A routing binary fixed by a forest: (origin, link, 0 or 1).
Binding = tuple[str, tuple[str, str], int]


class ModelParameterError(ValueError):
    """eps/big_M do not satisfy the documented validity bounds."""


class Variable(NamedTuple):
    name: str
    kind: str  # "binary" | "continuous"
    lb: Fraction  # every variable has a finite lower bound
    ub: Fraction | None


class Constraint(NamedTuple):
    name: str
    terms: tuple[tuple[str, Fraction], ...]
    sense: str  # "<=" | ">=" | "="
    rhs: Fraction


class LinearModel(NamedTuple):
    formulation: str
    eps: Fraction
    big_M: Fraction
    variables: tuple[Variable, ...]
    constraints: tuple[Constraint, ...]
    objective: tuple[tuple[str, Fraction], ...]  # minimized


def table_violations(variables, constraints, objective) -> list[str]:
    """Checks every variable/constraint table must pass, model or LP system."""
    out = []
    declared = set()
    for v in variables:
        if v.name in declared:
            out.append(f"variable {v.name}: declared twice")
        declared.add(v.name)
        if v.lb is None:
            out.append(f"variable {v.name}: no lower bound")
        elif v.ub is not None and v.lb > v.ub:
            out.append(f"variable {v.name}: empty bound interval")
    names = set()
    for c in constraints:
        if c.name in names:
            out.append(f"constraint {c.name}: declared twice")
        names.add(c.name)
        if c.sense not in ("<=", ">=", "="):
            out.append(f"constraint {c.name}: unknown sense {c.sense!r}")
        for var, _ in c.terms:
            if var not in declared:
                out.append(f"constraint {c.name}: references undeclared {var!r}")
    for var, _ in objective:
        if var not in declared:
            out.append(f"objective: references undeclared {var!r}")
    return out


def _collector_paused(fn):
    """Run `fn` with the cyclic garbage collector off, then restore the
    caller's state (off stays off), also when `fn` raises.  Only for code
    that makes no reference cycle: a solve does, so it is never paused.

    It wraps the two builders, `export_lp` and the `uspr export` command.
    The command pauses too because the collector counts every allocation
    made while it is off: resumed while a model is alive, its first young
    collection would walk every term and row of it.  The command's model and
    text are freed when it returns, before the collector resumes.
    """
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


def default_eps(instance: Instance) -> Fraction:
    """The smallest positive gap two grid path lengths can have.

    Path lengths live on the lattice generated by w_min and the resolution,
    so their differences are multiples of gcd(w_min, resolution).  A larger
    eps would cut off grid-realizable routings.
    """
    return frac_gcd(instance.w_min, instance.weight_resolution)


def default_big_m(instance: Instance, eps: Fraction) -> Fraction:
    return (len(instance.nodes) - 1) * instance.w_max + eps


def resolve_params(instance: Instance, eps, big_M) -> tuple[Fraction, Fraction]:
    """Apply the eps/big_M defaults and check the validity bounds:
    0 < eps <= default_eps(instance) and big_M >= default_big_m(instance, eps)."""
    gap = default_eps(instance)
    eps = gap if eps is None else parse_number(eps, "eps")
    big_M = default_big_m(instance, eps) if big_M is None else parse_number(big_M, "big_M")
    if not 0 < eps <= gap:
        raise ModelParameterError(
            f"eps must satisfy 0 < eps <= gcd(w_min, weight_resolution) "
            f"({format_number(gap)}), got {format_number(eps)}"
        )
    floor = default_big_m(instance, eps)
    if big_M < floor:
        raise ModelParameterError(
            f"big_M must be at least (|N|-1)*w_max + eps = {format_number(floor)}, "
            f"got {format_number(big_M)}"
        )
    return eps, big_M


def _terms(variables: dict, coef: Fraction) -> dict:
    """One `(variable, coef)` term per key, for every row that carries it."""
    return {key: (v, coef) for key, v in variables.items()}


class _ModelBuilder:
    """Accumulates variables/rows; emitters pass terms in declaration order.

    Holds one build's instance and link adjacency, and the rows shared by
    both formulations: weights and lengths, and per routing tree the flow
    conservation rows and the path-length pairs.  All trees share the
    `incidence` (per node, its links in link order, side 1 in, 0 out) and
    `shapes` (per link, the other links into its head, its ends in node
    order) that put the `fc` and `pl` terms in order.

    With `fixed`, a routing tree's binaries are bindings: its route maps
    each link to a `Binding` instead of a variable name.  `row` folds the
    binding terms into the rhs (a binding at 1 subtracts its coefficient, one
    at 0 leaves the rhs alone) and records them in `bindings[row name]`.

    `families`, when given, is a `_MASTER_FAMILIES` entry, read from
    `_families`: the builders then emit only the families it names (`emits`).

    One tuple per term, shared by the rows that carry it (they are
    immutable): DBM's `(x, bandwidth)` by capacity and objective, OBM's
    `(f, 1)` by conservation, flow bound, capacity and objective, an
    origin's `common` terms by all its trees, a tree's `(route, eps)` by all
    its `pl_ub` rows.  `build_dbm` and `build_obm` run it with the collector
    paused; `lp.path_length_system`, part of a solve, does not.
    """

    def __init__(
        self, instance: Instance, eps=None, big_M=None, fixed: bool = False,
        families: tuple[set[str], set[str]] | None = None,
    ) -> None:
        self.instance = instance
        self.eps, self.big_M = resolve_params(instance, eps, big_M)
        self.in_links = instance.in_links()
        self.incidence: dict[str, list] = {node: [] for node in instance.nodes}
        for link in instance.links:
            pair = (link.tail, link.head)
            self.incidence[link.tail].append((pair, 0))
            self.incidence[link.head].append((pair, 1))
        index = instance.node_index()
        self.shapes = [
            ((link.tail, link.head),
             [(o.tail, o.head) for o in self.in_links[link.head] if o is not link],
             sorted([(link.tail, _MINUS_ONE), (link.head, _ONE)], key=lambda e: index[e[0]]))
            for link in instance.links
        ]
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.fixed = fixed
        self.bindings: dict[str, frozenset[Binding]] = {}
        self.families = None if families is None else families[0] | families[1]

    def emits(self, family: str) -> bool:
        """Whether this build declares the variable or row family `family`."""
        return self.families is None or family in self.families

    def var(self, name: str, kind: str, lb, ub) -> str:
        self.variables.append(Variable(name, kind, lb, ub))
        return name

    def row(self, name: str, terms: list, sense: str, rhs: Fraction) -> None:
        if self.fixed:  # bindings lead: routing binaries are declared first
            bound = [v for v, _ in terms if type(v) is tuple]
            for v, c in terms[:len(bound)]:
                if v[2]:
                    rhs -= c
            self.bindings[name] = frozenset(bound)
            terms = terms[len(bound):]
        self.constraints.append(Constraint(name, tuple(terms), sense, rhs))

    def tree_vars(self, prefix: str, keys, kind: str, lb, ub) -> dict:
        """`<prefix>_<key>_<i>_<j>` for every tree key and link: {key: {(i, j): name}}."""
        return {
            key: {
                (link.tail, link.head): self.var(
                    f"{prefix}_{key}_{link.tail}_{link.head}", kind, lb, ub
                )
                for link in self.instance.links
            }
            for key in keys
        }

    def lengths(self) -> None:
        """Weights `w_<i>_<j>` in [w_min, w_max]; lengths `l_<s>_<node>` >= 0, 0 at s.
        `common`: per origin and link, the `(w, -1)` and ends' `(l, ±1)` terms."""
        inst = self.instance
        self.w = {
            (link.tail, link.head): self.var(
                f"w_{link.tail}_{link.head}", "continuous", inst.w_min, inst.w_max
            )
            for link in inst.links
        }
        self.l = {
            s: {
                node: self.var(
                    f"l_{s}_{node}", "continuous", _ZERO, _ZERO if node == s else None
                )
                for node in inst.nodes
            }
            for s in inst.origins()
        }
        minus_w = [(self.w[pair], _MINUS_ONE) for pair, _others, _ends in self.shapes]
        self.common = {
            s: [[w] + [(length[n], c) for n, c in ends]
                for w, (_pair, _others, ends) in zip(minus_w, self.shapes)]
            for s, length in self.l.items()
        }

    def conservation(self, key, flow: dict, inflow: dict, net: dict) -> None:
        """`fc_<key>_<node>`: inflow - outflow of one tree = net.get(node, 0);
        `inflow` holds the tree's `(flow, 1)` terms."""
        sides = (_terms(flow, _MINUS_ONE), inflow)
        for node, links in self.incidence.items():
            self.row(f"fc_{key}_{node}", [sides[side][pair] for pair, side in links],
                     "=", net.get(node, _ZERO))

    def path_length(self, key, origin: str, route: dict) -> None:
        """`pl_ub_<key>_<i>_<j>`/`pl_lb_<key>_<i>_<j>` of one tree rooted at origin.

        The `pl_lb` row of a link bound to 0 is not emitted;
        `lp.path_length_system` says why it is implied.
        """
        step = _terms(route, self.eps)
        minus_big_M = -self.big_M
        for ((i, j), others, _ends), common in zip(self.shapes, self.common[origin]):
            # l_j <= l_i + w_ij - eps * (sum_h route_hj - route_ij)
            self.row(f"pl_ub_{key}_{i}_{j}", [step[o] for o in others] + common, "<=", _ZERO)
            if self.fixed and not route[(i, j)][2]:
                continue
            # l_j >= l_i + w_ij - M * (1 - route_ij)
            self.row(f"pl_lb_{key}_{i}_{j}", [(route[(i, j)], minus_big_M)] + common,
                     ">=", minus_big_M)

    def model(self, formulation: str, objective) -> LinearModel:
        return LinearModel(
            formulation, self.eps, self.big_M, tuple(self.variables),
            tuple(self.constraints), tuple(objective),
        )


@_collector_paused
def build_dbm(instance: Instance, eps=None, big_M=None, master: bool = False) -> LinearModel:
    """Demand-based formulation: one routing tree per demand, routed by `x`.

    With `master`, only the DBM master's families: the model
    `master_submodel` would keep, without building the rest.
    """
    b = _ModelBuilder(instance, eps, big_M, families=_MASTER_FAMILIES["DBM"] if master else None)
    demands = instance.demands
    x = b.tree_vars("x", range(len(demands)), "binary", _ZERO, _ONE)
    carried = [_terms(x[k], demand.bandwidth) for k, demand in enumerate(demands)]
    if b.emits("weight"):
        b.lengths()
    if b.emits("flow_conservation"):
        for k, demand in enumerate(demands):
            b.conservation(k, x[k], _terms(x[k], _ONE),
                           {demand.destination: _ONE, demand.origin: _MINUS_ONE})
    if b.emits("capacity"):
        for link in instance.links:
            pair = (link.tail, link.head)
            b.row(f"cap_{link.tail}_{link.head}", [terms[pair] for terms in carried],
                  "<=", link.capacity)
    if b.emits("path_length"):
        for k, demand in enumerate(demands):
            b.path_length(k, demand.origin, x[k])
    return b.model("DBM_MASTER" if master else "DBM",
                   (term for terms in carried for term in terms.values()))


@_collector_paused
def build_obm(instance: Instance, eps=None, big_M=None, master: bool = False) -> LinearModel:
    """Origin-based formulation: one routing tree per origin, routed by `y`
    and carrying flow `f`.

    With `master`, only the OBM master's families: the model
    `master_submodel` would keep, without building the rest.
    """
    b = _ModelBuilder(instance, eps, big_M, families=_MASTER_FAMILIES["OBM"] if master else None)
    origins = instance.origins()
    y = b.tree_vars("y", origins, "binary", _ZERO, _ONE)
    f = b.tree_vars("f", origins, "continuous", _ZERO, None) if b.emits("flow") else {}
    unit = {s: _terms(f[s], _ONE) for s in f}
    if b.emits("weight"):
        b.lengths()
    if b.emits("flow_conservation"):
        for s in origins:
            net = {d.destination: d.bandwidth for d in instance.demands_from(s)}
            net[s] = -instance.origin_bandwidth(s)
            b.conservation(s, f[s], unit[s], net)

    if b.emits("flow_bound"):
        for s in origins:
            minus_d_s = -instance.origin_bandwidth(s)
            for link in instance.links:
                pair = (link.tail, link.head)
                b.row(f"fb_{s}_{link.tail}_{link.head}",
                      [(y[s][pair], minus_d_s), unit[s][pair]], "<=", _ZERO)

    if b.emits("capacity"):
        for link in instance.links:
            pair = (link.tail, link.head)
            b.row(f"cap_{link.tail}_{link.head}", [unit[s][pair] for s in origins],
                  "<=", link.capacity)

    if b.emits("uniqueness"):
        for s in origins:
            dests = set(instance.destinations_from(s))
            for node in instance.nodes:
                terms = [(y[s][(link.tail, link.head)], _ONE) for link in b.in_links[node]]
                sense, rhs = (("=", _ZERO) if node == s
                              else ("=", _ONE) if node in dests else ("<=", _ONE))
                b.row(f"uniq_{s}_{node}", terms, sense, rhs)

    if b.emits("path_length"):
        for s in origins:
            b.path_length(s, s, y[s])
    return b.model("OBM_MASTER" if master else "OBM",
                   (term for terms in unit.values() for term in terms.values()))


def master_submodel(model: LinearModel) -> LinearModel:
    """The integer master kept by the decomposition split: the variable and
    row families that the formulation's `_families` declaration marks kept.

    DBM: routing binaries with flow-conservation and capacity rows (objective
    unchanged).  OBM: routing binaries with the uniqueness rows; the flow
    objective drops with the flow variables.  `build_dbm`/`build_obm` with
    `master=True` build the same model without the rest; this filter is
    their reference.
    """
    key = model.formulation[:3]
    if key not in _MASTER_FAMILIES:
        raise ValueError(f"no master split for formulation {model.formulation!r}")
    var_families, row_families = _MASTER_FAMILIES[key]
    variables = tuple(
        v for v in model.variables if _family(v.name, _VAR_FAMILY_LABEL) in var_families
    )
    names = {v.name for v in variables}
    constraints = tuple(
        Constraint(c.name, tuple((v, k) for v, k in c.terms if v in names), c.sense, c.rhs)
        for c in model.constraints
        if _family(c.name, _ROW_FAMILY_LABEL) in row_families
    )
    objective = tuple((v, k) for v, k in model.objective if v in names)
    return LinearModel(f"{key}_MASTER", model.eps, model.big_M, variables, constraints, objective)


# ---------------------------------------------------------------------------
# The family declaration and size accounting.

def _families(dims: InstanceDims = InstanceDims(0, 0, 0, 0)) -> dict[str, tuple[list, list]]:
    """Per formulation, its (variable, row) families in report order, each
    counted in closed form at `dims` (at zero by default).

    Each family is declared once, with an entry per formulation that has it:
    a variable family comes out as `(label, name prefix, count, kept)` and a
    row family as `(label, name tag, count, kept, touches)`.  `kept` says
    whether the formulation's master keeps the family; `touches` lists the
    prefixes of the variable families its rows have terms on, in the order
    the builder emits them.
    """
    n, L, D, S = dims.n_nodes, dims.n_links, dims.n_demands, dims.n_origins
    variables = (
        ("routing", {"DBM": ("x", D * L, True), "OBM": ("y", S * L, True)}),
        ("flow", {"OBM": ("f", S * L, False)}),
        ("weight", dict.fromkeys(("DBM", "OBM"), ("w", L, False))),
        ("length", dict.fromkeys(("DBM", "OBM"), ("l", S * n, False))),
    )
    rows = (
        ("flow_conservation", {"DBM": ("fc", D * n, True, ("x",)),
                               "OBM": ("fc", S * n, False, ("f",))}),
        ("flow_bound", {"OBM": ("fb", S * L, False, ("y", "f"))}),
        ("capacity", {"DBM": ("cap", L, True, ("x",)), "OBM": ("cap", L, False, ("f",))}),
        ("uniqueness", {"OBM": ("uniq", S * n, True, ("y",))}),
        ("path_length", {"DBM": ("pl", 2 * D * L, False, ("x", "w", "l")),
                         "OBM": ("pl", 2 * S * L, False, ("y", "w", "l"))}),
    )
    return {
        formulation: tuple(
            [(label, *per[formulation]) for label, per in families if formulation in per]
            for families in (variables, rows)
        )
        for formulation in ("DBM", "OBM")
    }


# Read from `_families`: name prefix or tag -> family label, and per
# formulation the (variable, row) family labels its master keeps.
_VAR_FAMILY_LABEL, _ROW_FAMILY_LABEL = (
    {tag: label for declared in _families().values() for label, tag, *_ in declared[i]}
    for i in (0, 1)
)
_MASTER_FAMILIES = {
    formulation: tuple({label for label, _tag, _n, kept, *_ in fams if kept} for fams in declared)
    for formulation, declared in _families().items()
}


def _family(name: str, labels: dict[str, str]) -> str:
    """The family label of a variable or row name: its tag before the first `_`."""
    return labels.get(name.partition("_")[0], name)


class SizeTable(NamedTuple):
    label: str
    variables: dict[str, int]
    constraints: dict[str, int]

    @property
    def total_variables(self) -> int:
        return sum(self.variables.values())

    @property
    def total_constraints(self) -> int:
        return sum(self.constraints.values())


class SizeReport(NamedTuple):
    dims: InstanceDims
    dbm: SizeTable
    dbm_master: SizeTable
    obm: SizeTable
    obm_reduced: SizeTable
    obm_master: SizeTable
    note: str


def _restrict(table: SizeTable, label: str, var_families, row_families) -> SizeTable:
    """`table` with only the given variable and row families, in its order."""
    return SizeTable(
        label,
        {fam: n for fam, n in table.variables.items() if fam in var_families},
        {fam: n for fam, n in table.constraints.items() if fam in row_families},
    )


def size_report(dims: InstanceDims) -> SizeReport:
    """Closed-form variable/constraint counts for both formulations.

    The full OBM is reported under two accountings, because they disagree:
    `obm` counts every family (weights, lengths and path-length rows
    included), while `obm_reduced` counts only the binary+flow variables and
    the master/bound/conservation/capacity rows.  Both are emitted, labeled,
    with the discrepancy flagged in `note`.  With no link and no length
    variable the omitted families are empty, the totals are equal, and
    `note` says so instead.
    """
    declared = _families(dims)
    dbm, obm = (
        SizeTable(label, *({fam: n for fam, _tag, n, *_ in fams} for fams in declared[key]))
        for key, label in (("DBM", "DBM original"), ("OBM", "OBM original (all families)"))
    )
    obm_reduced = _restrict(
        obm, "OBM original (binary+flow variables, master+bound constraint families)",
        {"routing", "flow"}, obm.constraints.keys() - {"path_length"},
    )
    dbm_master = _restrict(dbm, "DBM master", *_MASTER_FAMILIES["DBM"])
    obm_master = _restrict(obm, "OBM master", *_MASTER_FAMILIES["OBM"])
    full = f"{obm.total_variables}/{obm.total_constraints}"
    reduced = f"{obm_reduced.total_variables}/{obm_reduced.total_constraints}"
    note = (
        f"note: the two OBM accountings agree ({full}): there are no "
        "weight/length variables and no path-length rows for the reduced "
        "accounting to omit."
        if full == reduced else
        f"note: the two OBM accountings disagree ({full} vs {reduced}); "
        "the reduced accounting omits weight/length variables and the "
        "path-length rows."
    )
    return SizeReport(dims, dbm, dbm_master, obm, obm_reduced, obm_master, note)


def render_size_report(report: SizeReport, fmt: str = "text") -> str:
    tables = [report.dbm, report.dbm_master, report.obm, report.obm_reduced, report.obm_master]
    if fmt == "tsv":
        lines = ["model\tvariables\tconstraints"]
        for t in tables:
            lines.append(f"{t.label}\t{t.total_variables}\t{t.total_constraints}")
        lines.append(f"# {report.note}")
        return "\n".join(lines) + "\n"
    d = report.dims
    lines = [
        f"model sizes at |N|={d.n_nodes} |L|={d.n_links} |D|={d.n_demands} |S|={d.n_origins}:"
    ]
    width = max(len(t.label) for t in tables)
    for t in tables:
        lines.append(
            f"  {t.label.ljust(width)}  {t.total_variables:>12,} variables"
            f"  {t.total_constraints:>12,} constraints"
        )
        for fam, count in t.variables.items():
            lines.append(f"    {'var ' + fam:<24} {count:>12,}")
        for fam, count in t.constraints.items():
            lines.append(f"    {'con ' + fam:<24} {count:>12,}")
    lines.append(report.note)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Structure report: which variable families each constraint family touches.

class StructureReport(NamedTuple):
    formulation: str
    couplings: dict[str, tuple[str, ...]]


def structure_report(formulation: str, sizes: SizeTable) -> StructureReport:
    """Per constraint family, the variable families its rows touch.

    Read from `_families` and the formulation's `size_report` table, with no
    model built: a row family is listed only when it has rows, and a variable
    family only when it has variables.  Every declared coefficient is nonzero
    (bandwidths, eps and big_M are positive and no link is a self-loop), so
    this is what a scan of the built model's rows finds.
    """
    couplings = {
        fam: tuple(v for v in touched if sizes.variables[_VAR_FAMILY_LABEL[v]])
        for fam, _tag, _count, _kept, touched in _families()[formulation][1]
        if sizes.constraints[fam]
    }
    return StructureReport(formulation, couplings)


def render_structure_report(report: StructureReport, fmt: str = "text") -> str:
    if fmt == "tsv":
        lines = ["family\tvariable_families"]
        for fam, vars_ in report.couplings.items():
            lines.append(f"{fam}\t{','.join(vars_)}")
        return "\n".join(lines) + "\n"
    lines = [f"constraint structure of {report.formulation}:"]
    for fam, vars_ in report.couplings.items():
        shown = ", ".join(vars_) if vars_ else "(none)"
        lines.append(f"  {fam:<20} touches {shown}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# LP text export.


@_collector_paused
def export_lp(model: LinearModel) -> str:
    """Deterministic LP text; identical models export byte-identical text.

    A Bounds line is `lb <= x`, `x = v` or `lb <= x <= ub`: the builders give
    every variable a finite lower bound, so none is checked.

    A coefficient's `- `/`+ ` prefix and magnitude, and a rhs's or bound's
    `format_number` text, are memoized per number object (`id`): sound, as
    the model keeps every number alive for the whole call.  The builders
    share a few `Fraction`s across all rows; a model whose equal numbers are
    distinct objects has each formatted again.  Runs with the
    cyclic collector paused, as the builders do: the lines and parts it
    allocates hold only strings.
    """
    prefixes: dict[int, str] = {}
    numbers: dict[int, str] = {}

    def terms_text(terms: tuple[tuple[str, Fraction], ...]) -> str:
        if not terms:
            return "0"
        parts = []
        for var, coef in terms:
            prefix = prefixes.get(id(coef))
            if prefix is None:
                mag = abs(coef)
                prefix = prefixes[id(coef)] = (
                    ("- " if coef < 0 else "+ ") + ("" if mag == 1 else f"{format_number(mag)} ")
                )
            parts.append(prefix + var)
        text = " ".join(parts)
        return text[2:] if text[0] == "+" else text

    def number(x: Fraction) -> str:
        text = numbers.get(id(x))
        if text is None:
            text = numbers[id(x)] = format_number(x)
        return text

    lines = [
        f"\\ formulation: {model.formulation}",
        f"\\ eps: {format_number(model.eps)}",
        f"\\ big_M: {format_number(model.big_M)}",
        "Minimize",
        f" obj: {terms_text(model.objective)}",
        "Subject To",
    ]
    lines += [
        f" {name}: {terms_text(terms)} {sense} {number(rhs)}"
        for name, terms, sense, rhs in model.constraints
    ]
    lines.append("Bounds")
    for v in model.variables:
        if v.ub is None:
            lines.append(f" {number(v.lb)} <= {v.name}")
        elif v.lb == v.ub:
            lines.append(f" {v.name} = {number(v.lb)}")
        else:
            lines.append(f" {number(v.lb)} <= {v.name} <= {number(v.ub)}")
    binaries = [v.name for v in model.variables if v.kind == "binary"]
    if binaries:
        lines.append("Binary")
        for name in binaries:
            lines.append(f" {name}")
    lines.append("End\n")  # the final newline, so that the text is joined once
    return "\n".join(lines)
