"""Repair of functional-dependency violations in tabular data.

Builds a maximally refined attribute partition that can be repaired one
class at a time by forward repairs only, then fixes each class once with
priority-ordered FDs, union-find tuple equivalence and pluggable repair
functions.
"""

from .datagen import GenConfig, generate
from .dsf import DisjointSetForest
from .evaluate import evaluate
from .fds import (FD, attribute_closure, implies, load_fds, minimal_cover,
                  save_fds, violates)
from .partition import (assert_maximally_refined, build_preorder,
                        check_forward_repairable, induced_partition)
from .priority import estimate_priority, fix, pilot_fds, update_dsf, vio
from .relation import Relation, Schema, SchemaError, load_csv, save_csv
from .repair_functions import RepairFunction
from .swipe import RepairInvariantError, swipe

__all__ = [
    "FD", "DisjointSetForest", "GenConfig", "Relation", "RepairFunction",
    "RepairInvariantError", "Schema", "SchemaError",
    "assert_maximally_refined", "attribute_closure", "build_preorder",
    "check_forward_repairable", "estimate_priority", "evaluate", "fix",
    "generate", "implies", "induced_partition", "load_csv", "load_fds",
    "minimal_cover", "pilot_fds", "save_csv", "save_fds", "swipe",
    "update_dsf", "vio", "violates",
]

__version__ = "0.1.0"
