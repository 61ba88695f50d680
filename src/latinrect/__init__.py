"""Exact counting of k-by-n Latin rectangles.

Inclusion-exclusion formulas over hall-omission profiles, a brute-force
enumeration oracle to validate them, a symbolic formula printer, and an
operation-count benchmark harness.  All counts are exact integers.
"""

from .column_counts import block_sum, choice_count, config_count, shift_profile
from .expressions import Expression, evaluate_expression, generate_expression, render
from .formulas import (
    CountResult,
    EvalStats,
    derangements_classical,
    derangements_ryser,
    reduced_count,
    reduced_counts,
    total_count,
    total_count_direct,
)
from .guards import ResourceGuardError, composition_count
from .oracle import (
    brute_force_count,
    hall_sets,
    injective_tuple_count,
    is_latin,
    lonely_hall_count,
    profile_of,
    reduce_rectangle,
)
from .partitions import SetPartition, bell_number, mobius_coefficient, partitions_of
from .profiles import class_label, class_weight, compositions, multinomial, sign
from .selftest import run_selftest

__version__ = "0.1.0"

__all__ = [
    "CountResult",
    "EvalStats",
    "Expression",
    "ResourceGuardError",
    "SetPartition",
    "bell_number",
    "block_sum",
    "brute_force_count",
    "choice_count",
    "class_label",
    "class_weight",
    "composition_count",
    "compositions",
    "config_count",
    "derangements_classical",
    "derangements_ryser",
    "evaluate_expression",
    "generate_expression",
    "hall_sets",
    "injective_tuple_count",
    "is_latin",
    "lonely_hall_count",
    "mobius_coefficient",
    "multinomial",
    "partitions_of",
    "profile_of",
    "reduce_rectangle",
    "reduced_count",
    "reduced_counts",
    "render",
    "run_selftest",
    "shift_profile",
    "sign",
    "total_count",
    "total_count_direct",
]
