"""Tests for the live asyncio deployment.

These verify that the protocols behave correctly under *real*
concurrency: joins overlapping within waves, routes interleaving, and
failures discovered through failed sends rather than an oracle.
"""

import asyncio
import random

import pytest

from repro.live import InProcessTransport, LiveCluster, Message
from repro.netsim.latency import UniformLatency


def run(coroutine):
    return asyncio.run(coroutine)


class TestTransport:
    def test_register_and_send(self):
        async def scenario():
            transport = InProcessTransport()
            transport.register(1)
            ok = await transport.send(1, Message(kind="ping", sender=2))
            received = await transport.receive(1, timeout=1.0)
            return ok, received

        ok, received = run(scenario())
        assert ok
        assert received.kind == "ping"
        assert received.sender == 2

    def test_duplicate_register_rejected(self):
        async def scenario():
            transport = InProcessTransport()
            transport.register(1)
            transport.register(1)

        with pytest.raises(ValueError):
            run(scenario())

    def test_send_to_dead_fails(self):
        async def scenario():
            transport = InProcessTransport()
            transport.register(1)
            transport.mark_dead(1)
            return await transport.send(1, Message(kind="ping", sender=2))

        result = run(scenario())
        assert not result
        assert result.peer_dead
        assert result.status == "dead-peer"

    def test_send_to_unknown_fails(self):
        async def scenario():
            transport = InProcessTransport()
            return await transport.send(99, Message(kind="ping", sender=2))

        result = run(scenario())
        assert not result
        assert result.peer_dead
        assert result.status == "unknown-peer"

    def test_receive_timeout(self):
        async def scenario():
            transport = InProcessTransport()
            transport.register(1)
            return await transport.receive(1, timeout=0.01)

        assert run(scenario()) is None

    def test_message_ids_increase(self):
        async def scenario():
            transport = InProcessTransport()
            transport.register(1)
            first = Message(kind="a", sender=0)
            second = Message(kind="b", sender=0)
            await transport.send(1, first)
            await transport.send(1, second)
            return first.message_id, second.message_id

        first_id, second_id = run(scenario())
        assert second_id > first_id

    def test_latency_model_applies(self):
        async def scenario():
            transport = InProcessTransport(
                latency=UniformLatency(base=1.0), latency_scale=0.001
            )
            transport.register(1)
            transport.register(2)
            import time

            start = time.monotonic()  # lint: disable=DET002 -- asserts the latency model adds real elapsed time
            await transport.send(2, Message(kind="ping", sender=1))
            return time.monotonic() - start  # lint: disable=DET002 -- elapsed-time measurement is the test subject

        assert run(scenario()) >= 0.0005


class TestLiveCluster:
    def test_concurrent_joins_route_correctly(self):
        async def scenario():
            cluster = LiveCluster(seed=31)
            await cluster.start(50, join_concurrency=10)
            rng = random.Random(1)
            mistakes = 0
            for _ in range(120):
                key = cluster.space.random_id(rng)
                origin = rng.choice(cluster.live_ids())
                path = await cluster.route(key, origin)
                if path[-1] != cluster.global_root(key):
                    mistakes += 1
            await cluster.shutdown()
            return mistakes

        assert run(scenario()) == 0

    def test_silent_kills_are_routed_around(self):
        async def scenario():
            cluster = LiveCluster(seed=32)
            await cluster.start(40, join_concurrency=8)
            rng = random.Random(2)
            for victim in rng.sample(cluster.live_ids(), 5):
                cluster.kill(victim)
            mistakes = 0
            for _ in range(120):
                key = cluster.space.random_id(rng)
                origin = rng.choice(cluster.live_ids())
                path = await cluster.route(key, origin)
                if path[-1] != cluster.global_root(key):
                    mistakes += 1
            await cluster.shutdown()
            return mistakes

        assert run(scenario()) == 0

    def test_node_state_invariants_after_live_build(self):
        async def scenario():
            cluster = LiveCluster(seed=33)
            await cluster.start(40, join_concurrency=8)
            for node in cluster.nodes.values():
                node.state.check_invariants()
            await cluster.shutdown()

        run(scenario())

    def test_interleaved_routes(self):
        """Many simultaneous routes in flight, all answered correctly."""

        async def scenario():
            cluster = LiveCluster(seed=34)
            await cluster.start(40, join_concurrency=8)
            rng = random.Random(3)
            keys = [cluster.space.random_id(rng) for _ in range(60)]
            origins = [rng.choice(cluster.live_ids()) for _ in keys]
            paths = await asyncio.gather(*(
                cluster.route(key, origin) for key, origin in zip(keys, origins)
            ))
            mistakes = sum(
                1 for key, path in zip(keys, paths)
                if path[-1] != cluster.global_root(key)
            )
            await cluster.shutdown()
            return mistakes

        assert run(scenario()) == 0

    def test_route_path_starts_and_ends_right(self):
        async def scenario():
            cluster = LiveCluster(seed=35)
            await cluster.start(25, join_concurrency=5)
            rng = random.Random(4)
            key = cluster.space.random_id(rng)
            origin = rng.choice(cluster.live_ids())
            path = await cluster.route(key, origin)
            await cluster.shutdown()
            return origin, key, path, cluster.global_root(key)

        origin, key, path, root = run(scenario())
        assert path[0] == origin
        assert path[-1] == root

    def test_minimum_size_validated(self):
        async def scenario():
            cluster = LiveCluster(seed=36)
            await cluster.start(0)

        with pytest.raises(ValueError):
            run(scenario())

    def test_handler_bug_fails_loudly(self):
        """Messages are checked once, at the socket edge; inside, a
        handler that raises is a bug.  It ends the node task, and
        ``shutdown()`` re-raises it -- no catch-all turns it into a
        counter tick and a client timeout."""

        async def scenario():
            cluster = LiveCluster(seed=37)
            await cluster.start(4)
            victim, peer = cluster.live_ids()[:2]
            node = cluster.nodes[victim]

            async def broken(message):
                raise KeyError("planted")

            node._on_announce = broken
            await cluster.transport.send(
                victim, Message(kind="announce", sender=peer)
            )
            done, _ = await asyncio.wait({node._task}, timeout=2.0)
            assert done, "the handler's KeyError must end the node task"
            await cluster.shutdown()

        with pytest.raises(KeyError, match="planted"):
            run(scenario())
