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
equivalent to the three-case logic form, which `linearization_check` verifies
case by case.  `resolve_params` is the one place these defaults and their
validity bounds are applied.  Only an export may set eps or big_M; every
solve uses the defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .instance import Instance, InstanceDims
from .rational import format_number, frac_gcd, parse_number


_ZERO, _ONE, _MINUS_ONE = Fraction(0), Fraction(1), Fraction(-1)

# A routing binary fixed by a forest: (origin, link, 0 or 1).
Binding = tuple[str, tuple[str, str], int]


class ModelParameterError(ValueError):
    """eps/big_M do not satisfy the documented validity bounds."""


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str  # "binary" | "continuous"
    lb: Fraction | None
    ub: Fraction | None


@dataclass(frozen=True)
class Constraint:
    name: str
    terms: tuple[tuple[str, Fraction], ...]
    sense: str  # "<=" | ">=" | "="
    rhs: Fraction


@dataclass(frozen=True)
class LinearModel:
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
        if v.lb is not None and v.ub is not None and v.lb > v.ub:
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


class _ModelBuilder:
    """Accumulates variables/rows; emitters pass terms in declaration order.

    Holds one build's instance and link adjacency, and the rows shared by
    both formulations: weights and lengths, and per routing tree the flow
    conservation rows and the path-length pairs.  All trees share the
    `incidence` (per node, its links in link order, +1 in, -1 out) and
    `shapes` (per link, the other links into its head, its ends in node
    order) that put the `fc` and `pl` terms in order.

    With `fixed`, a routing tree's binaries are bindings: its route maps
    each link to a `Binding` instead of a variable name.  `row` folds the
    binding terms into the rhs (a binding at 1 subtracts its coefficient, one
    at 0 leaves the rhs alone) and records them in `bindings[row name]`.

    `families`, when given, is a `_MASTER_FAMILIES` entry, read from
    `_families`: the builders then emit only the families it names (`emits`).
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
            self.incidence[link.tail].append((pair, _MINUS_ONE))
            self.incidence[link.head].append((pair, _ONE))
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
        """Weights `w_<i>_<j>` in [w_min, w_max]; lengths `l_<s>_<node>` >= 0, 0 at s."""
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

    def conservation(self, key, flow: dict, net: dict) -> None:
        """`fc_<key>_<node>`: inflow - outflow of one tree = net.get(node, 0)."""
        for node, links in self.incidence.items():
            self.row(f"fc_{key}_{node}", [(flow[pair], c) for pair, c in links],
                     "=", net.get(node, _ZERO))

    def path_length(self, key, origin: str, route: dict) -> None:
        """`pl_ub_<key>_<i>_<j>`/`pl_lb_<key>_<i>_<j>` of one tree rooted at origin.

        The `pl_lb` row of a link bound to 0 is not emitted;
        `lp.path_length_system` says why it is implied.
        """
        length = self.l[origin]
        minus_big_M = -self.big_M
        for (i, j), others, ends in self.shapes:
            common = [(self.w[(i, j)], _MINUS_ONE)] + [(length[n], c) for n, c in ends]
            # l_j <= l_i + w_ij - eps * (sum_h route_hj - route_ij)
            self.row(f"pl_ub_{key}_{i}_{j}", [(route[o], self.eps) for o in others] + common,
                     "<=", _ZERO)
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


def build_dbm(instance: Instance, eps=None, big_M=None, master: bool = False) -> LinearModel:
    """Demand-based formulation: one routing tree per demand, routed by `x`.

    With `master`, only the DBM master's families: the model
    `master_submodel` would keep, without building the rest.
    """
    b = _ModelBuilder(instance, eps, big_M, families=_MASTER_FAMILIES["DBM"] if master else None)
    demands = instance.demands
    x = b.tree_vars("x", range(len(demands)), "binary", _ZERO, _ONE)
    if b.emits("weight"):
        b.lengths()
    if b.emits("flow_conservation"):
        for k, demand in enumerate(demands):
            b.conservation(k, x[k], {demand.destination: _ONE, demand.origin: _MINUS_ONE})
    if b.emits("capacity"):
        for link in instance.links:
            pair = (link.tail, link.head)
            terms = [(x[k][pair], demand.bandwidth) for k, demand in enumerate(demands)]
            b.row(f"cap_{link.tail}_{link.head}", terms, "<=", link.capacity)
    if b.emits("path_length"):
        for k, demand in enumerate(demands):
            b.path_length(k, demand.origin, x[k])
    return b.model("DBM_MASTER" if master else "DBM", (
        (x[k][(link.tail, link.head)], demand.bandwidth)
        for k, demand in enumerate(demands)
        for link in instance.links
    ))


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
    if b.emits("weight"):
        b.lengths()
    if b.emits("flow_conservation"):
        for s in origins:
            net = {d.destination: d.bandwidth for d in instance.demands_from(s)}
            net[s] = -instance.origin_bandwidth(s)
            b.conservation(s, f[s], net)

    if b.emits("flow_bound"):
        for s in origins:
            minus_d_s = -instance.origin_bandwidth(s)
            for link in instance.links:
                pair = (link.tail, link.head)
                b.row(f"fb_{s}_{link.tail}_{link.head}",
                      [(y[s][pair], minus_d_s), (f[s][pair], _ONE)], "<=", _ZERO)

    if b.emits("capacity"):
        for link in instance.links:
            terms = [(f[s][(link.tail, link.head)], _ONE) for s in origins]
            b.row(f"cap_{link.tail}_{link.head}", terms, "<=", link.capacity)

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
    return b.model("OBM_MASTER" if master else "OBM", (
        (f[s][(link.tail, link.head)], _ONE) for s in f for link in instance.links
    ))


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


@dataclass(frozen=True)
class SizeTable:
    label: str
    variables: dict[str, int]
    constraints: dict[str, int]

    @property
    def total_variables(self) -> int:
        return sum(self.variables.values())

    @property
    def total_constraints(self) -> int:
        return sum(self.constraints.values())


@dataclass(frozen=True)
class SizeReport:
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
    with the discrepancy flagged in `note`.
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
    note = (
        "note: the two OBM accountings disagree "
        f"({obm.total_variables}/{obm.total_constraints} vs "
        f"{obm_reduced.total_variables}/{obm_reduced.total_constraints}); "
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

@dataclass(frozen=True)
class StructureReport:
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
# Path-length linearization check.


@dataclass(frozen=True)
class PathLengthCase:
    """Feasible relation on q = l_j - (l_i + w_ij) implied by the binaries."""

    relation: str  # "equal" | "strict" | "slack"
    lower: Fraction
    upper: Fraction


def linearization_check(link_used: int, incoming_sum: int, eps, big_M) -> PathLengthCase:
    """Resolve one binary pattern of the path-length pair to its logic case.

    `link_used` is the routing binary on (i, j); `incoming_sum` is the total
    of routing binaries over all links into j (including (i, j)).  The
    returned interval is exactly the feasible set of the linearized pair for
    that pattern and is checked against the logic form:

      used            -> q = 0             (equality)
      merge, unused   -> q <= -eps         (strict)
      elsewhere       -> -M <= q <= 0      (slack)
    """
    eps = parse_number(eps, "eps")
    big_M = parse_number(big_M, "big_M")
    if not 0 < eps < big_M:
        raise ModelParameterError("need 0 < eps < big_M")
    if link_used not in (0, 1):
        raise ValueError(f"link_used must be a binary value, got {link_used!r}")
    if incoming_sum not in (0, 1):
        raise ValueError(
            f"incoming_sum must be 0 or 1 under path uniqueness, got {incoming_sum!r}"
        )
    if link_used > incoming_sum:
        raise ValueError("inconsistent binaries: the link contributes to the incoming sum")
    upper = -eps * (incoming_sum - link_used)
    lower = -big_M * (1 - link_used)
    if link_used == 1:
        relation, expected = "equal", (0, 0)
    elif incoming_sum == 1:
        relation, expected = "strict", (-big_M, -eps)
    else:
        relation, expected = "slack", (-big_M, 0)
    if (lower, upper) != expected:
        raise RuntimeError(f"internal: {relation} case has interval [{lower}, {upper}]")
    return PathLengthCase(relation, lower, upper)


# ---------------------------------------------------------------------------
# LP text export and the matching reader (used to round-trip in tests).


def export_lp(model: LinearModel) -> str:
    """Deterministic LP text; identical models export byte-identical text.

    A coefficient's `- `/`+ ` prefix and magnitude, and a rhs's or bound's
    `format_number` text, are memoized per number object (`id`): sound, as
    the model keeps every number alive for the whole call.  The builders
    share a few `Fraction`s across all rows; a `parse_lp` model's equal
    numbers are distinct objects, each formatted again.
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
    for c in model.constraints:
        lines.append(f" {c.name}: {terms_text(c.terms)} {c.sense} {number(c.rhs)}")
    lines.append("Bounds")
    for v in model.variables:
        if v.lb is None and v.ub is None:
            lines.append(f" {v.name} free")
        elif v.lb is not None and v.ub is not None and v.lb == v.ub:
            lines.append(f" {v.name} = {number(v.lb)}")
        elif v.ub is None:
            lines.append(f" {number(v.lb)} <= {v.name}")
        elif v.lb is None:
            lines.append(f" -inf <= {v.name} <= {number(v.ub)}")
        else:
            lines.append(f" {number(v.lb)} <= {v.name} <= {number(v.ub)}")
    binaries = [v.name for v in model.variables if v.kind == "binary"]
    if binaries:
        lines.append("Binary")
        for name in binaries:
            lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


class LpParseError(ValueError):
    pass


def _parse_terms(tokens: list[str], where: str) -> tuple[tuple[str, Fraction], ...]:
    """Signed terms; a token starting with a digit, '.' or a sign is a number."""
    terms: list[tuple[str, Fraction]] = []
    sign = _ONE
    pending: Fraction | None = None
    for tok in tokens:
        if tok == "+":
            sign = _ONE
        elif tok == "-":
            sign = _MINUS_ONE
        elif tok[0] in "0123456789.+-":
            if pending is not None:
                raise LpParseError(f"{where}: two consecutive numbers")
            pending = parse_number(tok, where, LpParseError)
        else:
            terms.append((tok, sign * (_ONE if pending is None else pending)))
            sign = _ONE
            pending = None
    if pending is not None:
        if len(terms) == 0 and pending == 0:
            return ()  # the literal "0" objective / empty row
        raise LpParseError(f"{where}: trailing number without a variable")
    return tuple(terms)


def parse_lp(text: str) -> LinearModel:
    """Read LP text produced by export_lp back into a LinearModel.

    Raises LpParseError, naming the line, on a malformed line or number; and
    on a name the tables cannot place: a term on a variable with no Bounds
    line, a Binary name with no Bounds line, or a name declared twice.
    """
    formulation = ""
    eps = _ZERO
    big_M = _ZERO
    section = None
    objective: tuple[tuple[str, Fraction], ...] = ()
    constraints: list[Constraint] = []
    bounds: list[tuple[str, Fraction | None, Fraction | None]] = []
    binaries: dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        where = f"line {lineno}"
        if line.startswith("\\"):
            body = line[1:].strip()
            if body.startswith("formulation:"):
                formulation = body.split(":", 1)[1].strip()
            elif body.startswith("eps:"):
                eps = parse_number(body.split(":", 1)[1].strip(), where, LpParseError)
            elif body.startswith("big_M:"):
                big_M = parse_number(body.split(":", 1)[1].strip(), where, LpParseError)
            continue
        if line in ("Minimize", "Subject To", "Bounds", "Binary", "End"):
            section = line
            continue
        if section == "Minimize":
            if not line.startswith("obj:"):
                raise LpParseError(f"{where}: expected 'obj:'")
            objective = _parse_terms(line[len("obj:"):].split(), where)
        elif section == "Subject To":
            if ":" not in line:
                raise LpParseError(f"{where}: constraint without a name")
            name, rest = line.split(":", 1)
            tokens = rest.split()
            sense_pos = None
            for i, tok in enumerate(tokens):
                if tok in ("<=", ">=", "="):
                    sense_pos = i
                    break
            if sense_pos is None or sense_pos != len(tokens) - 2:
                raise LpParseError(f"{where}: expected '<terms> <sense> <rhs>'")
            terms = _parse_terms(tokens[:sense_pos], where)
            rhs = parse_number(tokens[-1], where, LpParseError)
            constraints.append(Constraint(name.strip(), terms, tokens[sense_pos], rhs))
        elif section == "Bounds":
            tokens = line.split()
            if len(tokens) == 2 and tokens[1] == "free":
                bounds.append((tokens[0], None, None))
            elif len(tokens) == 3 and tokens[1] == "=":
                v = parse_number(tokens[2], where, LpParseError)
                bounds.append((tokens[0], v, v))
            elif len(tokens) == 3 and tokens[1] == "<=":
                lb = None if tokens[0] == "-inf" else parse_number(tokens[0], where, LpParseError)
                bounds.append((tokens[2], lb, None))
            elif len(tokens) == 5 and tokens[1] == "<=" and tokens[3] == "<=":
                lb = None if tokens[0] == "-inf" else parse_number(tokens[0], where, LpParseError)
                bounds.append((tokens[2], lb, parse_number(tokens[4], where, LpParseError)))
            else:
                raise LpParseError(f"{where}: unrecognized bounds line {line!r}")
        elif section == "Binary":
            binaries[line] = lineno
        elif section == "End":
            raise LpParseError(f"{where}: content after End")
        else:
            raise LpParseError(f"{where}: content outside any section")

    declared = {name for name, _, _ in bounds}
    problems = [
        f"line {lineno}: binary {name!r} has no Bounds line"
        for name, lineno in binaries.items()
        if name not in declared
    ]
    variables = tuple(
        Variable(name, "binary" if name in binaries else "continuous", lb, ub)
        for name, lb, ub in bounds
    )
    problems += table_violations(variables, constraints, objective)
    if problems:
        raise LpParseError("; ".join(problems))
    return LinearModel(formulation, eps, big_M, variables, tuple(constraints), objective)
