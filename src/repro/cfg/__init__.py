"""Fan-out analysis over the profile's dynamic control flow (paper
Fig. 2, Section II-C).

``fanout``   injection-site fan-out & prefetch-window analysis.

The dynamic CFG itself is the profile's ``block_counts`` (nodes),
``edge_counts`` (weighted edges) and ``miss_samples`` (miss
annotations); the planners read those counters directly.
"""

from .fanout import (
    OccurrenceLabels,
    dynamic_fanout,
    label_occurrences,
    sites_in_window,
)

__all__ = [
    "OccurrenceLabels",
    "dynamic_fanout",
    "label_occurrences",
    "sites_in_window",
]
