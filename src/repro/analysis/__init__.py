"""Analysis utilities: statistics, table rendering, experiment scaffolding.

The benchmarks print the same rows/series the paper (and its companion
papers) report; this package provides the plumbing so every benchmark
renders consistently and computes statistics the same way.
"""

from repro.analysis.stats import mean, percentile, stddev
from repro.analysis.tables import format_table

__all__ = [
    "mean",
    "stddev",
    "percentile",
    "format_table",
]
