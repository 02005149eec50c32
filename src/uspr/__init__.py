"""Solver toolkit for the unique shortest-path routing problem.

Given a capacitated directed network, a demand matrix, and link-weight
bounds, find integer-grid link weights whose induced unique shortest paths
route all demands within capacity while minimizing the total carried load.
"""

from .instance import (
    Demand,
    Instance,
    InstanceDims,
    Link,
    generate_random_instance,
    load_instance,
    save_instance,
    validate_instance,
)
from .lp import (
    LinearSystem,
    WeightRecovery,
    recover_weights,
    solve_feasibility,
)
from .models import (
    LinearModel,
    build_dbm,
    build_obm,
    export_lp,
    master_submodel,
    size_report,
    structure_report,
)
from .solver import (
    Solution,
    SolverConfig,
    benders_solve,
    brute_force_solve,
    master_search,
)
from .spf import (
    RoutingForest,
    WeightVector,
    check_capacity,
    evaluate_objective,
    hop_count_weights,
    inv_cap_weights,
    max_utilization,
    routing_from_weights,
)

__version__ = "0.1.0"
