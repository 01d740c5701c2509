"""Every input of a run, generated from ``--seed`` before anything is timed.

The program under test receives only these inputs: certificates and
payload bytes, per-client operation schedules, routing keys, file
sizes.  Every rng here is a ``random.Random(stable_seed(seed, ...))``,
so equal seeds give equal inputs in any process and the generator never
sits inside a timed region.

Places a schedule cannot know in advance (node ids exist only once the
overlay is built) are named by *index*: an origin is a position in the
sorted live-id list, a churn victim a fraction of the live count.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.certificates import FileCertificate
from repro.core.files import RealData
from repro.core.smartcard import make_uncertified_card
from repro.sim.rng import stable_seed
from repro.workloads.filesizes import TraceLikeSizes
from repro.workloads.popularity import ZipfPopularity

from benchmarks.past_bench import spec
from benchmarks.past_bench.spec import LiveWorkload, SimSizes

#: Width of the default ``IdSpace`` both overlays route in.
ID_BITS = 128
STORE = "store"
RETRIEVE = "retrieve"


def fingerprint(*parts: object) -> str:
    """A digest of plain values: equal inputs, equal fingerprint."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()


# ---------------------------------------------------------------------- #
# live workloads
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class LiveFile:
    """One file a live run stores: what goes in and what must come out."""

    certificate: FileCertificate
    data: RealData
    digest: bytes


@dataclass(frozen=True)
class LiveOp:
    kind: str
    #: Position of the access node in the cluster's sorted live ids.
    origin: int
    #: Index into ``LiveInputs.files``: the file to store, or an already
    #: stored file to fetch.
    file: int


Schedule = List[List[LiveOp]]  # one op list per closed-loop client


@dataclass(frozen=True)
class LiveInputs:
    seed: int
    files: List[LiveFile]
    #: Stored one after the other before anything else.
    warmup_stores: List[LiveOp]
    warmup: Schedule
    timed: Schedule

    def fingerprint(self) -> str:
        return fingerprint(
            [(item.certificate.file_id, item.digest) for item in self.files],
            self.warmup_stores, self.warmup, self.timed,
        )


def _mixed_schedule(rng: random.Random, operations: int, store_share: float,
                    first_file: int, stored: Sequence[int]) -> Tuple[Schedule, int]:
    """*operations* ops in the exact mix, shuffled and dealt round-robin.

    A retrieve targets, uniformly, a file its own client can rely on:
    one of *stored* (complete before this block starts) or one the same
    client stored earlier -- a closed-loop client has seen that insert
    return.  Returns the schedule and the next unused file index.
    """
    stores = round(operations * store_share)
    kinds = [STORE] * stores + [RETRIEVE] * (operations - stores)
    rng.shuffle(kinds)
    schedule: Schedule = []
    next_file = first_file
    for client in range(spec.CLIENTS):
        known = list(stored)
        ops = []
        for kind in kinds[client::spec.CLIENTS]:
            origin = rng.randrange(spec.LIVE_NODES)
            if kind == STORE:
                ops.append(LiveOp(STORE, origin, next_file))
                known.append(next_file)
                next_file += 1
            else:
                ops.append(LiveOp(RETRIEVE, origin, rng.choice(known)))
        schedule.append(ops)
    return schedule, next_file


def live_inputs(seed: int, workload: LiveWorkload, operations: int) -> LiveInputs:
    rng = random.Random(stable_seed(seed, "live-schedule"))
    warmup_stores = [LiveOp(STORE, rng.randrange(spec.LIVE_NODES), index)
                     for index in range(spec.WARMUP_STORES)]
    warmup, next_file = _mixed_schedule(
        rng, spec.WARMUP_OPS, workload.store_share, spec.WARMUP_STORES,
        range(spec.WARMUP_STORES),
    )
    timed, file_count = _mixed_schedule(
        rng, operations, workload.store_share, next_file, range(next_file)
    )
    card = make_uncertified_card(
        random.Random(stable_seed(seed, "live-card")),
        usage_quota=1 << 50, backend="insecure_fast",
    )
    content = random.Random(stable_seed(seed, "live-content"))
    files = []
    for index in range(file_count):
        payload = content.randbytes(workload.file_size)
        data = RealData(payload)
        certificate = card.issue_file_certificate(
            f"bench-{seed}-{index}", data, spec.REPLICATION,
            salt=index, insertion_date=0,
        )
        files.append(LiveFile(certificate, data, hashlib.sha1(payload).digest()))
    return LiveInputs(seed, files, warmup_stores, warmup, timed)


# ---------------------------------------------------------------------- #
# sim_deploy
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class SimInputs:
    seed: int
    #: (key, origin index) per route of the route phase.
    routes: List[Tuple[int, int]]
    #: (client index, size in bytes) per insert.
    inserts: List[Tuple[int, int]]
    #: (client index, index of an inserted file) per lookup, Zipf-ranked
    #: over a shuffled popularity order.
    lookups: List[Tuple[int, int]]
    #: Fraction of the live count naming each churn victim.
    churn_victims: List[float]
    #: (key, origin fraction) for the root checks after churn.
    checks_after_churn: List[Tuple[int, float]]

    def fingerprint(self) -> str:
        return fingerprint(self.routes, self.inserts, self.lookups,
                           self.churn_victims, self.checks_after_churn)


def sim_inputs(seed: int, sizes: SimSizes) -> SimInputs:
    rng = random.Random(stable_seed(seed, "sim-inputs"))
    routes = [(rng.getrandbits(ID_BITS), rng.randrange(spec.SIM_NODES))
              for _ in range(sizes.routes)]
    file_sizes = TraceLikeSizes(cap=spec.SIM_FILE_CAP).sample_many(rng, sizes.inserts)
    inserts = [(rng.randrange(spec.SIM_CLIENTS), size) for size in file_sizes]
    popularity = list(range(sizes.inserts))
    rng.shuffle(popularity)
    zipf = ZipfPopularity(sizes.inserts)
    lookups = [(rng.randrange(spec.SIM_CLIENTS), popularity[zipf.sample_rank(rng) - 1])
               for _ in range(sizes.lookups)]
    victims = [rng.random() for _ in range(sizes.churn_pairs)]
    checks = [(rng.getrandbits(ID_BITS), rng.random())
              for _ in range(spec.SIM_ROUTE_CHECKS)]
    return SimInputs(seed, routes, inserts, lookups, victims, checks)
