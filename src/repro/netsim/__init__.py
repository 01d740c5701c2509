"""Network substrate: topologies, proximity metrics, latency.

Pastry's locality properties (section 2.2 of the paper) are defined
against "a scalar proximity metric, such as the number of IP hops,
geographic distance, or a combination".  This package supplies such
metrics over synthetic topologies:

* Euclidean plane point sets -- geographic distance, the metric the
  Pastry paper's own simulations use;
* random-graph shortest-path hop counts -- an IP-hop-like metric built on
  a sparse connected graph.
"""

from repro.netsim.index import (
    GridProximityIndex,
    LinearProximityIndex,
    ProximityIndex,
)
from repro.netsim.latency import LatencyModel, ProximityLatency, UniformLatency
from repro.netsim.topology import (
    EuclideanPlaneTopology,
    RandomGraphTopology,
    Topology,
)

__all__ = [
    "Topology",
    "EuclideanPlaneTopology",
    "RandomGraphTopology",
    "ProximityIndex",
    "GridProximityIndex",
    "LinearProximityIndex",
    "LatencyModel",
    "UniformLatency",
    "ProximityLatency",
]
