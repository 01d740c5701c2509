"""The settle count: when a live cluster is quiet, and what that costs.

A transport counts every message ``send`` accepts until it is finished:
its handler returned, a raw ``receive`` took it, or it was dropped on
the way.  ``LiveCluster._quiesce`` awaits the event that is set while
the count is zero.  These tests hold that signal to both of its
promises -- it never comes while a message is still travelling (a
latency sleep, a deferred reorder), and it always comes once nothing
is (a killed node's backlog settles) -- and pin what it costs: no
timer, and one loop iteration after the last handler returns.
"""

import asyncio

import pytest

from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.live import InProcessTransport, LiveCluster, Message
from repro.live.net import SocketTransport
from repro.netsim.latency import LatencyModel
from tests.test_live_socket import counting_loop

TRANSPORTS = [
    pytest.param(InProcessTransport, id="inproc"),
    pytest.param(SocketTransport, id="socket", marks=pytest.mark.socket),
]


def run(coroutine):
    return asyncio.run(coroutine)


class ArmedLatency(LatencyModel):
    """No delay while the cluster is built; once armed, *units* on every
    message to *node*."""

    def __init__(self) -> None:
        self.node = None
        self.units = 0.0

    def delay(self, origin: int, destination: int) -> float:
        return self.units if destination == self.node else 0.0


async def _stays_quiet(cluster, seconds=0.2):
    """After a quiesce: nothing is sent for *seconds* and the transport
    stays idle."""
    sent = cluster.transport.messages_sent
    await asyncio.sleep(seconds)
    return cluster.transport.messages_sent == sent and cluster.transport.idle()


class TestQuiesceWaitsForTravellingMessages:
    def test_a_reply_sleeping_in_latency_is_waited_for(self):
        """Messages to one node take 40 ms (latency_scale 0.001), and it
        asks a peer for its leaf set: the reply sleeps inside the peer's
        handler with every mailbox empty.  A quiet-mailboxes poll
        returned with that reply still in flight."""

        async def scenario():
            latency = ArmedLatency()
            cluster = LiveCluster(seed=5, transport=InProcessTransport(
                latency=latency, latency_scale=0.001))
            await cluster.start(8)
            asker, peer = cluster.live_ids()[:2]
            latency.node, latency.units = asker, 40.0
            await cluster.transport.send(peer, Message(
                kind="leafset-request", sender=asker, payload={}))
            await cluster._quiesce()
            quiet = await _stays_quiet(cluster)
            await cluster.shutdown()
            return quiet

        assert run(scenario())

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_a_deferred_message_is_waited_for(self, transport):
        """Every message is reordered 20-30 ms later (past a 15 ms quiet
        window): it waits in a timer, in no mailbox and on no wire."""

        async def scenario():
            cluster = LiveCluster(seed=5, transport=transport())
            await cluster.start(8)
            cluster.transport.faults = FaultPlan(
                seed=2, reorder_rate=1.0, delay_range=(20.0, 30.0))
            await cluster.stabilize(rounds=1)
            reordered = cluster.transport.faults_reordered
            quiet = await _stays_quiet(cluster)
            await cluster.shutdown()
            return reordered > 0, quiet

        assert run(scenario()) == (True, True)


class TestKillSettles:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_kill_with_a_backlog_does_not_hang_stabilize(self, transport):
        """A node is killed with a request it never handled (in its
        mailbox, or still on the wire to it).  The request settles with
        the kill: stabilize returns and the transport goes idle."""

        async def scenario():
            cluster = LiveCluster(seed=5, transport=transport())
            await cluster.start(8)
            victim, sender = cluster.live_ids()[:2]
            await cluster.transport.send(victim, Message(
                kind="leafset-request", sender=sender, payload={}))
            cluster.kill(victim)
            drained = cluster.transport.messages_dropped
            await asyncio.wait_for(cluster.stabilize(rounds=1), 5.0)
            outcome = {"idle": cluster.transport.idle(),
                       "in_flight": cluster.transport.wire_stats()["in_flight"]}
            await cluster.shutdown()
            return drained, outcome

        drained, outcome = run(scenario())
        assert outcome == {"idle": True, "in_flight": 0}
        if transport is InProcessTransport:
            assert drained == 1  # the kill drained the victim's mailbox

    def test_kill_mid_handler_settles_the_message_in_hand(self):
        """A node killed while its handler sleeps a latency delay
        sending a reply: the request in hand and the reply it never
        delivers both settle."""

        async def scenario():
            latency = ArmedLatency()
            cluster = LiveCluster(seed=5, transport=InProcessTransport(
                latency=latency, latency_scale=0.001))
            await cluster.start(8)
            victim, sender = cluster.live_ids()[:2]
            latency.node, latency.units = sender, 1000.0
            await cluster.transport.send(victim, Message(
                kind="leafset-request", sender=sender, payload={}))
            for _ in range(10):  # the victim takes it and starts replying
                await asyncio.sleep(0)
            busy = (cluster.transport.mailbox_depth(victim) == 0
                    and not cluster.transport.idle())
            cluster.kill(victim)
            await asyncio.wait_for(cluster._quiesce(), 1.0)
            idle = cluster.transport.idle()
            await cluster.shutdown()
            return busy, idle

        assert run(scenario()) == (True, True)


class TestSettlingCost:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_quiesce_sets_no_timer_and_wakes_one_iteration_after_the_last_handler(
            self, transport):
        """Once the last handler returns, the settle event wakes the
        quiesce in the next loop iteration; no timer is scheduled
        while it waits (the poll it replaced slept 5 ms at least three
        times)."""

        async def scenario():
            cluster = LiveCluster(seed=5, transport=transport())
            await cluster.start(8)
            endpoints = cluster.transport
            for node_id in cluster.live_ids():
                for member in sorted(cluster.nodes[node_id].state.leaf_set.members()):
                    await endpoints.send(member, Message(
                        kind="leafset-request", sender=node_id, payload={}))
            settled_at = []
            with counting_loop(asyncio.get_running_loop()) as counts:
                settled = endpoints.settled.set
                endpoints.settled.set = lambda: (
                    settled_at.append(counts["iterations"]), settled())
                await cluster._quiesce()
                del endpoints.settled.set
            await cluster.shutdown()
            return counts["call_at"], counts["iterations"] - settled_at[-1]

        assert run(scenario()) == (0, 1)


class TestLateReplies:
    def test_a_reply_landing_during_the_backoff_completes_the_request(self):
        """Attempt 1's reply takes 60 ms against a 50 ms attempt timer,
        so it lands while `_attempts` sleeps its backoff: the next
        attempt finds the request already answered."""

        async def scenario():
            latency = ArmedLatency()
            cluster = LiveCluster(
                seed=5, retry=RetryPolicy(attempts=2, base_delay=0.2, jitter=0.0),
                transport=InProcessTransport(latency=latency, latency_scale=0.001))
            await cluster.start(8)
            origin, key = cluster.live_ids()[:2]
            latency.node, latency.units = origin, 60.0
            path = await cluster.route(key, origin, timeout=0.1)
            retries = cluster.obs.metrics.counter("live.retries", op="route").value
            await cluster.shutdown()
            return path == [origin, key], retries

        assert run(scenario()) == (True, 1)
