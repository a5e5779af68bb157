"""Repair of functional-dependency violations in tabular data.

Builds a maximally refined attribute partition that can be repaired one
class at a time by forward repairs only, then fixes each class once with
priority-ordered FDs, union-find tuple equivalence and pluggable repair
functions.
"""

from .datagen import GenConfig, generate
from .dsf import DisjointSetForest
from .evaluate import QualityReport, evaluate
from .fds import (FD, attribute_closure, implies, load_fds, minimal_cover,
                  parse_fd, parse_fds, save_fds, violates)
from .partition import (Partition, Preorder, assert_maximally_refined,
                        build_preorder, check_forward_repairable,
                        induced_partition)
from .priority import (RepairStats, estimate_priority, fix, pilot_fds,
                       priority_repair, skip_revision_unary, update_dsf, vio,
                       vio_fd)
from .relation import Relation, Schema, SchemaError, load_csv, save_csv
from .repair_functions import (BUILTINS, RepairFunction, get_function,
                               majority_vote, max_value, weighted_vote)
from .swipe import (RepairInvariantError, RepairOutcome, resolve_functions,
                    swipe)

__all__ = [
    "FD", "BUILTINS", "DisjointSetForest", "GenConfig", "Partition",
    "Preorder", "QualityReport", "RepairFunction", "RepairInvariantError",
    "RepairOutcome", "RepairStats", "Relation", "Schema", "SchemaError",
    "assert_maximally_refined", "attribute_closure", "build_preorder",
    "check_forward_repairable", "estimate_priority", "evaluate", "fix",
    "generate", "get_function", "implies", "induced_partition",
    "load_csv", "load_fds",
    "majority_vote", "max_value", "minimal_cover", "parse_fd", "parse_fds",
    "pilot_fds", "priority_repair", "resolve_functions",
    "save_csv", "save_fds", "skip_revision_unary", "swipe", "update_dsf",
    "vio", "vio_fd", "violates", "weighted_vote",
]

__version__ = "0.1.0"
