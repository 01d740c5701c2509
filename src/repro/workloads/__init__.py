"""Synthetic workload generators.

The SOSP'01 companion evaluation drives PAST with real web-proxy and
filesystem traces; those are not redistributable, so this package
generates synthetic equivalents with the distributional properties the
results depend on:

* heavy-tailed file sizes (lognormal / Pareto mixtures,
  :mod:`repro.workloads.filesizes`);
* heterogeneous node storage capacities
  (:mod:`repro.workloads.capacities`);
* skewed request popularity (Zipf, :mod:`repro.workloads.popularity`);
* node churn schedules (:mod:`repro.workloads.churn`);
* a Locust-style live-cluster load harness
  (:mod:`repro.workloads.load_harness`).
"""

from repro.workloads.capacities import bounded_normal_capacities
from repro.workloads.churn import ChurnEvent, poisson_churn_schedule
from repro.workloads.filesizes import (
    FileSizeDistribution,
    LognormalSizes,
    ParetoSizes,
    TraceLikeSizes,
)
from repro.workloads.load_harness import LoadHarness, LoadProfile, LoadReport
from repro.workloads.popularity import ZipfPopularity

__all__ = [
    "FileSizeDistribution",
    "LognormalSizes",
    "ParetoSizes",
    "TraceLikeSizes",
    "bounded_normal_capacities",
    "ZipfPopularity",
    "ChurnEvent",
    "poisson_churn_schedule",
    "LoadHarness",
    "LoadProfile",
    "LoadReport",
]
