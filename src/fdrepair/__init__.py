"""Repair of functional-dependency violations in tabular data.

Builds a maximally refined attribute partition that can be repaired one
class at a time by forward repairs only, then fixes each class once with
priority-ordered FDs, union-find tuple equivalence and pluggable repair
functions.

The package root holds what the README's library example and the CLI use;
engine internals are imported from their own modules (``fdrepair.fds``,
``.partition``, ``.priority``, ``.dsf``).
"""

from .datagen import GenConfig, generate
from .evaluate import evaluate
from .fds import FD, load_fds, save_fds
from .relation import Relation, Schema, SchemaError, load_csv, save_csv
from .repair_functions import RepairFunction
from .swipe import RepairInvariantError, swipe

__all__ = [
    "FD", "GenConfig", "Relation", "RepairFunction", "RepairInvariantError",
    "Schema", "SchemaError", "evaluate", "generate", "load_csv", "load_fds",
    "save_csv", "save_fds", "swipe",
]

__version__ = "0.1.0"
