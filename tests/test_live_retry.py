"""Retry/backoff discipline in the live layer under injected message
loss.

The live cluster used to wrap every operation in a single
``asyncio.wait_for``: one dropped packet hung the caller for the whole
timeout and then failed outright, stranding the reply future and (for
inserts) the root's fan-out state.  These tests pin the replacement
down:

* route and insert succeed under 30% injected drop -- retries with the
  same request_id resume pending fan-outs instead of double-inserting;
* the backoff sequence is a pure function of the seed;
* total loss exhausts the attempts into a typed ``DegradedError``
  (degrade, don't hang) with every future and pending entry cleaned up.
"""

import asyncio
import random

import pytest

from repro.core.errors import DegradedError
from repro.core.files import SyntheticData
from repro.core.smartcard import make_uncertified_card
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.live import Message, storage
from repro.live.storage import LiveStorageCluster


def run(coroutine):
    return asyncio.run(coroutine)


def make_certs(count, k=3, size=1500, seed=1):
    rng = random.Random(seed)
    card = make_uncertified_card(rng, usage_quota=1 << 40, backend="insecure_fast")
    pairs = []
    for i in range(count):
        data = SyntheticData(i, size)
        certificate = card.issue_file_certificate(
            f"f{i}", data, k, salt=i, insertion_date=0
        )
        pairs.append((certificate, data))
    return pairs


# Small per-attempt budgets keep the test fast: messages are instant in
# the default transport, so a timeout only ever means an injected drop.
LOSSY_RETRY = RetryPolicy(attempts=8, base_delay=0.01, max_delay=0.05)


async def _lossy_cluster(seed, n=12, drop_rate=0.3):
    """A healthy cluster that turns lossy *after* the overlay forms --
    the faults exercise the operation path, not the bootstrap."""
    cluster = LiveStorageCluster(seed=seed, retry=LOSSY_RETRY)
    await cluster.start(n, join_concurrency=4)
    cluster.transport.faults = FaultPlan(seed=seed, drop_rate=drop_rate)
    return cluster


class TestRetryUnderLoss:
    def test_route_succeeds_under_30pct_drop(self):
        async def scenario():
            cluster = await _lossy_cluster(seed=7)
            rng = random.Random(7)
            correct = 0
            for _ in range(5):
                key = cluster.space.random_id(rng)
                origin = rng.choice(cluster.live_ids())
                path = await cluster.route(key, origin, timeout=4.0)
                if path[-1] == cluster.global_root(key):
                    correct += 1
            dropped = cluster.transport.faults_dropped
            retries = cluster.obs.metrics.counter("live.retries", op="route").value
            await cluster.shutdown()
            return correct, dropped, retries

        correct, dropped, retries = run(scenario())
        assert correct == 5
        assert dropped > 0, "the plan injected no drops -- test proves nothing"
        # Deterministic per seed: with losses on the wire, at least one
        # operation must actually have retried.
        assert retries > 0

    def test_insert_succeeds_under_30pct_drop(self):
        async def scenario():
            cluster = await _lossy_cluster(seed=11)
            rng = random.Random(11)
            pairs = make_certs(4)
            outcomes = []
            for certificate, data in pairs:
                origin = rng.choice(cluster.live_ids())
                result = await cluster.insert(certificate, data, origin)
                key = certificate.storage_key()
                expected = set(sorted(
                    cluster.live_ids(),
                    key=lambda n: cluster.space.distance(n, key),
                )[:3])
                outcomes.append(
                    result["success"] and set(result["holders"]) == expected
                )
            # Retries resumed the pending fan-out rather than starting a
            # second one: nothing is left pending anywhere.
            stranded = sum(
                len(node._pending_inserts) for node in cluster.nodes.values()
            )
            dropped = cluster.transport.faults_dropped
            await cluster.shutdown()
            return outcomes, stranded, dropped

        outcomes, stranded, dropped = run(scenario())
        assert all(outcomes)
        assert stranded == 0
        assert dropped > 0

    def test_lookup_succeeds_under_30pct_drop(self):
        async def scenario():
            cluster = LiveStorageCluster(seed=13, retry=LOSSY_RETRY)
            await cluster.start(12, join_concurrency=4)
            rng = random.Random(13)
            [(certificate, data)] = make_certs(1)
            origin = rng.choice(cluster.live_ids())
            inserted = await cluster.insert(certificate, data, origin)
            cluster.transport.faults = FaultPlan(seed=13, drop_rate=0.3)
            found = await cluster.lookup(certificate.file_id, origin)
            await cluster.shutdown()
            return inserted, found, certificate

        inserted, found, certificate = run(scenario())
        assert inserted["success"]
        assert found["certificate"] is not None
        assert found["data"].content_hash() == certificate.content_hash


class TestDeterministicBackoff:
    def test_backoff_sequence_is_a_function_of_the_seed(self):
        policy = RetryPolicy(attempts=6)
        first = policy.delays(random.Random(99))
        second = policy.delays(random.Random(99))
        other = policy.delays(random.Random(100))
        assert first == second
        assert first != other
        # Exponential envelope: each raw delay doubles until the cap,
        # and jitter only ever adds.
        raw = RetryPolicy(attempts=6, jitter=0.0).delays()
        assert raw == sorted(raw)
        assert all(j >= r for j, r in zip(first, raw))

    def test_no_rng_means_pure_schedule_and_no_global_random(self):
        """RetryPolicy's determinism contract (lint rule DET001): with
        ``rng=None`` the backoff is the pure exponential schedule, and the
        process-global ``random`` module is never consulted either way."""
        random.seed(4242)  # lint: disable=DET001 -- seeds the global RNG to prove RetryPolicy never consumes it
        state_before = random.getstate()
        policy = RetryPolicy(attempts=6)
        assert policy.delays(None) == RetryPolicy(attempts=6, jitter=0.0).delays()
        assert policy.backoff(3) == policy.backoff(3, None)
        policy.delays(random.Random(7))
        assert random.getstate() == state_before

    def test_same_seed_same_injected_fault_sequence(self):
        plan_a = FaultPlan(seed=3, drop_rate=0.3)
        plan_b = FaultPlan(seed=3, drop_rate=0.3)
        faults_a = [plan_a.message_fault(8, 9) for _ in range(200)]
        faults_b = [plan_b.message_fault(8, 9) for _ in range(200)]
        assert faults_a == faults_b


class TestExhaustion:
    def test_total_loss_degrades_instead_of_hanging(self):
        async def scenario():
            cluster = LiveStorageCluster(
                seed=5, retry=RetryPolicy(attempts=3, base_delay=0.01,
                                          max_delay=0.02),
            )
            await cluster.start(8, join_concurrency=4)
            cluster.transport.faults = FaultPlan(seed=5, drop_rate=1.0)
            rng = random.Random(5)
            key = cluster.space.random_id(rng)
            origin = rng.choice(cluster.live_ids())
            with pytest.raises(DegradedError) as route_error:
                await cluster.route(key, origin, timeout=0.3)
            route_leaks = len(cluster._reply_futures)
            [(certificate, data)] = make_certs(1)
            with pytest.raises(DegradedError) as insert_error:
                await cluster._request(
                    origin,
                    {"key": certificate.storage_key(),
                     "purpose": "past-insert",
                     "certificate": certificate, "data": data},
                    timeout=0.3,
                )
            # The futures were reaped on the way out -- nothing to leak,
            # nothing for a late reply to trip over.  Routes and storage
            # requests share the one table.
            request_leaks = len(cluster._reply_futures)
            cluster.transport.faults = None
            await cluster.shutdown()
            return route_error.value, insert_error.value, route_leaks, request_leaks

        route_error, insert_error, route_leaks, request_leaks = run(scenario())
        assert route_error.attempts == 3
        assert insert_error.operation == "past-insert"
        assert route_leaks == 0
        assert request_leaks == 0
        # One driver, one attempt log: both histories carry the same fields.
        for error in (route_error, insert_error):
            assert [record.attempt for record in error.history] == [1, 2, 3]
            assert [record.randomized for record in error.history] == [False, True, True]
            assert [record.reroute_seed is None for record in error.history] == [
                True, False, False]
            assert all(record.span_id for record in error.history)
            assert error.history[0].delay == 0.0 < error.history[1].delay
            assert error.trace_id

    def test_degraded_error_is_typed_and_informative(self):
        error = DegradedError("past-insert", 4, "no reply")
        assert error.operation == "past-insert"
        assert error.attempts == 4
        assert "no reply" in str(error)


async def _resend_insert(cluster, request_id, certificate, data, origin):
    """Re-send insert *request_id* as a client retry does (same request
    id, fresh trail) and return the reply it gets."""
    future = asyncio.get_running_loop().create_future()
    cluster._reply_futures[request_id] = future
    payload = {"key": certificate.storage_key(), "purpose": "past-insert",
               "certificate": certificate, "data": data, "client": origin,
               "origin": origin, "request_id": request_id, "trail": []}
    await cluster.transport.send(
        origin, Message(kind="route", sender=origin, payload=payload)
    )
    return await asyncio.wait_for(future, 2.0)


class TestCompletedInsertExpiry:
    def test_results_replay_within_the_ttl_then_expire(self, monkeypatch):
        """A root keeps each completed insert's result for replay, in
        two generations rotated every PENDING_INSERT_TTL as inserts
        complete: a retry still gets the result after one rotation, and
        two rotations forget it (it used to be kept forever)."""
        ttl = 0.2
        monkeypatch.setattr(storage, "PENDING_INSERT_TTL", ttl)

        async def scenario():
            cluster = LiveStorageCluster(seed=11)
            await cluster.start(8, join_concurrency=4)
            origin = cluster.live_ids()[0]
            pairs = make_certs(60)
            root_id = cluster.global_root(pairs[0][0].storage_key())
            first, second, third = [
                pair for pair in pairs
                if cluster.global_root(pair[0].storage_key()) == root_id
            ][:3]
            root = cluster.nodes[root_id]
            original = await cluster.insert(*first, origin)
            request_id = original["request_id"]
            replays = [await _resend_insert(cluster, request_id, *first, origin)]
            await asyncio.sleep(ttl * 1.5)
            await cluster.insert(*second, origin)  # first rotation
            replays.append(await _resend_insert(cluster, request_id, *first, origin))
            await asyncio.sleep(ttl * 1.5)
            await cluster.insert(*third, origin)  # second rotation
            kept = len(root._completed_inserts) + len(root._completed_older)
            expired = await _resend_insert(cluster, request_id, *first, origin)
            await cluster.shutdown()
            return original, replays, kept, expired

        original, replays, kept, expired = run(scenario())
        assert original["success"]
        assert replays == [original, original]
        assert kept == 2  # the second and third results only
        # Forgotten: the retry now runs as a fresh insert of a file the
        # root already holds, and is refused as a duplicate.
        assert expired["success"] is False
        assert expired["reason"] == "duplicate"
