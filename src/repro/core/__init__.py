"""I-SPY core: the paper's primary contribution.

``config``        design-point parameters (:class:`ISpyConfig`).
``hashing``       FNV-1 / MurmurHash3 context-hash encoding.
``bloom``         the counting-Bloom-filter runtime-hash hardware.
``instructions``  the Cprefetch/Lprefetch/CLprefetch family.
``injection``     prefetch injection-site selection.
``context``       miss-context discovery.
``coalesce``      prefetch coalescing.
``ispy``          the end-to-end offline pipeline.
``validate``      linker-style plan sanity checks.
"""

from .bloom import LBRRuntimeHash, exact_history_match
from .coalesce import (
    CoalescedGroup,
    CoalesceStats,
    PlannedPrefetch,
    coalesce_prefetches,
)
from .config import DEFAULT_CONFIG, ISpyConfig
from .context import ContextResult, discover_context
from .validate import PlanIssue, assert_valid, validate_plan
from .hashing import context_bit_positions, context_mask, fnv1_64, murmur3_32
from .injection import CandidateSite, SiteSelection, select_site
from .instructions import PrefetchInstr, PrefetchPlan, empty_plan
from .ispy import ISpy, ISpyReport, ISpyResult, build_ispy_plan

__all__ = [
    "CandidateSite",
    "CoalesceStats",
    "CoalescedGroup",
    "ContextResult",
    "DEFAULT_CONFIG",
    "ISpy",
    "ISpyConfig",
    "ISpyReport",
    "ISpyResult",
    "LBRRuntimeHash",
    "PlanIssue",
    "PlannedPrefetch",
    "PrefetchInstr",
    "PrefetchPlan",
    "SiteSelection",
    "assert_valid",
    "build_ispy_plan",
    "coalesce_prefetches",
    "context_bit_positions",
    "context_mask",
    "discover_context",
    "empty_plan",
    "exact_history_match",
    "fnv1_64",
    "murmur3_32",
    "select_site",
    "validate_plan",
]
