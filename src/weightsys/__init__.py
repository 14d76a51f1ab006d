"""weightsys: exact-arithmetic consistency checks and exhaustive search
for the fixed-point weight data of circle actions."""

from .constraints import ConstraintReport, check_system
from .core import (
    FixedPointSystem,
    canonicalize,
    effectivity_gcd,
    lambda_count,
    largest_weight,
    reverse_action,
)
from .documents import emit_report, emit_system, parse_system
from .search import (
    SearchConfig,
    classify_dim4,
    enumerate_systems,
    naive_oracle,
    replay_lemma,
    verify_nonexistence,
)

__all__ = [
    "ConstraintReport",
    "FixedPointSystem",
    "SearchConfig",
    "canonicalize",
    "check_system",
    "classify_dim4",
    "effectivity_gcd",
    "emit_report",
    "emit_system",
    "enumerate_systems",
    "lambda_count",
    "largest_weight",
    "naive_oracle",
    "parse_system",
    "replay_lemma",
    "reverse_action",
    "verify_nonexistence",
]
