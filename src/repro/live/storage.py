"""PAST storage operations over the live asyncio overlay.

Extends the live Pastry cluster with the storage protocol: inserts fan
out from the root to the k numerically closest nodes and collect
acknowledgements asynchronously; lookups are served by the *first* node
on the route holding a replica.  Everything runs inside the single-task
node loops, so all the interesting interleavings happen: two inserts
racing to the same region, lookups overtaking the insert that stored
their file, roots dying between fan-out and acknowledgement.

Scope note: this layer demonstrates the *protocol* under concurrency in
a trusted-community configuration (signature and content-hash checks,
no broker certification); the storage-management policies (diversion,
caching, quotas) are exercised exhaustively by the simulator test suite
and are orthogonal to message concurrency.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional

from repro.core.certificates import FileCertificate
from repro.core.files import FileData
from repro.core.storage import FileStore
from repro.live.cluster import ROUTE_TIMEOUT, LiveCluster, LiveNode
from repro.live.transport import Message
from repro.obs.trace_context import TraceContext

# Root-side pending inserts expire after this long: if the client has
# stopped retrying (its own timeout is ROUTE_TIMEOUT) the entry is
# garbage, and keeping it would strand the fan-out state forever.
PENDING_INSERT_TTL = 2.5 * ROUTE_TIMEOUT


class LiveStorageNode(LiveNode):
    """A live node that also stores replicas."""

    def __init__(self, cluster: "LiveStorageCluster", node_id: int,
                 capacity: int) -> None:
        super().__init__(cluster, node_id)
        self.store = FileStore(capacity)
        # insert_id -> {"needed", "stored", "client", "expiry"} at the root.
        self._pending_inserts: Dict[int, dict] = {}
        # request_id -> final result payload: lets the root replay the
        # outcome when a retried insert arrives after completion (the
        # original insert-result may have been lost in flight).
        self._completed_inserts: Dict[int, dict] = {}

    # ------------------------------------------------------------------ #
    # route delivery overrides
    # ------------------------------------------------------------------ #

    async def _forward_route(self, payload: dict) -> None:
        # En-route serving: the first node holding the file answers a
        # lookup immediately (the simulator's forward-hook behaviour).
        if payload.get("purpose") == "past-lookup":
            replica = self.store.get(payload["file_id"])
            if replica is not None and replica.data is not None:
                await self._serve(payload, replica)
                return
        await super()._forward_route(payload)

    async def _deliver_route(self, payload: dict) -> None:
        purpose = payload.get("purpose")
        if purpose == "past-insert":
            await self._insert_as_root(payload)
        elif purpose == "past-lookup":
            # Reached the root without finding the file anywhere en route.
            await self._serve(payload, None)
        else:
            await super()._deliver_route(payload)

    async def _serve(self, payload: dict, replica) -> None:
        """Answer a lookup from this node: with the *replica* a node on
        the route holds, or (``None``, at the root) with not-found."""
        found = replica is not None
        attributes = {"hop_index": len(payload["trail"])} if found else {}
        result = Message(
            kind="lookup-result",
            sender=self.node_id,
            payload={
                "request_id": payload["request_id"],
                "certificate": replica.certificate if found else None,
                "data": replica.data if found else None,
                "serving_node": self.node_id,
            },
            traceparent=self._point_span(
                payload.get("traceparent"), "serve",
                found=found, en_route=found, **attributes,
            ),
        )
        await self._send(payload["client"], result)

    # ------------------------------------------------------------------ #
    # insert: root-side fan-out with async ack collection
    # ------------------------------------------------------------------ #

    async def _insert_as_root(self, payload: dict) -> None:
        request_id = payload["request_id"]
        obs = self.cluster.obs
        parent = payload.get("traceparent")
        tracing = obs.enabled and parent is not None
        completed = self._completed_inserts.get(request_id)
        if completed is not None:
            # Client retry after we finished: the original result was
            # lost; replay it instead of re-running the insert.
            result = Message(
                kind="insert-result", sender=self.node_id, payload=completed,
                traceparent=self._point_span(
                    parent, "replay-result",
                    success=bool(completed.get("success")),
                ),
            )
            await self._send(payload["client"], result)
            return
        pending = self._pending_inserts.get(request_id)
        if pending is not None:
            # Client retry while the fan-out is still collecting acks:
            # re-poke only the replicas that have not answered yet.
            await self._repoke_pending(pending, parent)
            return
        ctx: Optional[TraceContext] = None
        start = 0.0
        if tracing:
            ctx = self._trace_child(parent, "insert-root")
            start = obs.traces.tick()
        certificate: FileCertificate = payload["certificate"]
        k = certificate.replication_factor
        refusal = None
        if certificate.file_id in self.store:
            # Files are immutable and a fileId cannot be inserted twice;
            # the root holds every file it placed, so it is the natural
            # place to refuse duplicates (retries of *this* insert never
            # reach here -- they hit the pending/completed paths above).
            refusal = "duplicate"
        else:
            try:
                replica_ids = self.state.leaf_set.replica_candidates(
                    certificate.storage_key(), k
                )
            except ValueError:
                refusal = "bad-k"
        if refusal is not None:
            if tracing:
                obs.traces.record(ctx, "insert-root", start=start,
                                  node_id=f"{self.node_id:x}", outcome=refusal)
                payload["traceparent"] = ctx.to_traceparent()
            await self._insert_failed(payload, refusal)
            return
        pending = {
            "needed": set(replica_ids),
            "stored": set(),
            "client": payload["client"],
            "request_id": request_id,
            "certificate": certificate,
            "data": payload["data"],
            # The root's insert context: the final insert-result (sent
            # from whichever ack completes the fan-out) stays on this
            # operation's trace.
            "traceparent": ctx.to_traceparent() if ctx is not None else None,
            "expiry": asyncio.get_running_loop().call_later(
                PENDING_INSERT_TTL, self._expire_pending_insert, request_id
            ),
        }
        self._pending_inserts[request_id] = pending
        for replica_id in replica_ids:
            if replica_id == self.node_id:
                stored = self._store_locally(certificate, payload["data"])
                if stored:
                    pending["stored"].add(self.node_id)
                self._point_span(pending["traceparent"], "store",
                                 ok=stored, local=True)
            else:
                await self._send_store_request(
                    replica_id, pending, pending["traceparent"]
                )
        if tracing:
            obs.traces.record(
                ctx, "insert-root", start=start, end=obs.traces.tick(),
                node_id=f"{self.node_id:x}",
                file_id=f"{certificate.file_id:x}",
                k=k, replicas=len(replica_ids), outcome="fanout",
            )
        await self._maybe_finish_insert(request_id)

    async def _send_store_request(self, replica_id: int, pending: dict,
                                  header: Optional[str]) -> None:
        await self._send(
            replica_id,
            Message(
                kind="store-request",
                sender=self.node_id,
                payload={
                    "request_id": pending["request_id"],
                    "certificate": pending["certificate"],
                    "data": pending["data"],
                },
                traceparent=header,
            ),
        )

    async def _repoke_pending(self, pending: dict,
                              parent: Optional[str] = None) -> None:
        """Re-send store requests to the replicas still missing an ack
        (their request or their ack was lost).  *parent* is the retry
        attempt's trace context: the repoke span lands under the attempt
        that triggered it, not the original fan-out."""
        missing = sorted(pending["needed"] - pending["stored"])
        header = self._point_span(parent, "repoke", missing=len(missing))
        for replica_id in missing:
            if replica_id != self.node_id:
                await self._send_store_request(replica_id, pending, header)

    def _expire_pending_insert(self, request_id: int) -> None:
        """Drop a fan-out whose client stopped retrying; without this a
        single lost ack would strand the pending entry forever."""
        self._pending_inserts.pop(request_id, None)

    def _store_locally(self, certificate: FileCertificate,
                       data: FileData) -> bool:
        if not certificate.verify():
            return False
        if data.content_hash() != certificate.content_hash:
            return False
        if certificate.file_id in self.store:
            return False
        if certificate.size > self.store.free_space:
            return False
        self.store.store(certificate, data)
        return True

    async def _on_store_request(self, message: Message) -> None:
        certificate: FileCertificate = message.payload["certificate"]
        ok = self._store_locally(certificate, message.payload["data"])
        if not ok:
            # Idempotent re-store: a retried request for a replica we
            # already hold (the earlier ack was lost) is an ack, not a
            # refusal.  Genuine duplicates are refused at the root.
            held = self.store.get(certificate.file_id)
            ok = (
                held is not None
                and held.certificate.content_hash == certificate.content_hash
            )
        ack = Message(
            kind="store-ack",
            sender=self.node_id,
            payload={"request_id": message.payload["request_id"], "ok": ok},
            # A dropped ack shows as a wire fault under this store span
            # -- the exact link the repoke path exists to repair.
            traceparent=self._point_span(
                message.traceparent, "store", ok=ok, local=False
            ),
        )
        await self._send(message.sender, ack)

    async def _on_store_ack(self, message: Message) -> None:
        pending = self._pending_inserts.get(message.payload["request_id"])
        if pending is None:
            return
        if message.payload["ok"]:
            pending["stored"].add(message.sender)
        else:
            pending["needed"].discard(message.sender)  # permanent refusal
        await self._maybe_finish_insert(message.payload["request_id"])

    async def _maybe_finish_insert(self, request_id: int) -> None:
        pending = self._pending_inserts.get(request_id)
        if pending is None:
            return
        if pending["stored"] >= pending["needed"]:
            self._retire_pending(request_id, pending)
            result = {
                "request_id": request_id,
                "success": True,
                "holders": sorted(pending["stored"]),
            }
            self._completed_inserts[request_id] = result
            await self._send(
                pending["client"],
                Message(kind="insert-result", sender=self.node_id,
                        payload=result,
                        traceparent=pending.get("traceparent")),
            )
        elif pending["needed"] - pending["stored"] and \
                len(pending["needed"]) < pending["certificate"].replication_factor:
            # Someone refused: the insert cannot reach k replicas.
            self._retire_pending(request_id, pending)
            self._completed_inserts[request_id] = {
                "request_id": request_id, "success": False,
                "reason": "refused", "holders": [],
            }
            await self._insert_failed(
                {"client": pending["client"], "request_id": request_id,
                 "traceparent": pending.get("traceparent")},
                "refused",
            )

    def _retire_pending(self, request_id: int, pending: dict) -> None:
        del self._pending_inserts[request_id]
        expiry = pending.get("expiry")
        if expiry is not None:
            expiry.cancel()

    async def _insert_failed(self, payload: dict, reason: str) -> None:
        await self._send(
            payload["client"],
            Message(
                kind="insert-result",
                sender=self.node_id,
                payload={"request_id": payload["request_id"],
                         "success": False, "reason": reason, "holders": []},
                traceparent=payload.get("traceparent"),
            ),
        )

    async def _on_insert_result(self, message: Message) -> None:
        self.cluster._resolve(message.payload["request_id"], message.payload)

    async def _on_lookup_result(self, message: Message) -> None:
        self.cluster._resolve(message.payload["request_id"], message.payload)


class LiveStorageCluster(LiveCluster):
    """A live overlay whose nodes store files."""

    def __init__(self, seed: int = 0, node_capacity: int = 1 << 24, **kwargs) -> None:
        super().__init__(seed, **kwargs)
        self.node_capacity = node_capacity

    def _make_node(self, node_id: int) -> LiveNode:
        return LiveStorageNode(self, node_id, self.node_capacity)

    async def _request(self, origin: int, payload: dict,
                       timeout: float = ROUTE_TIMEOUT) -> dict:
        """Issue a storage request: one :meth:`LiveCluster._attempts`
        request named after its purpose, whose replies come back to
        *origin* as the ``client``."""
        return await self._attempts(
            payload["purpose"], origin, dict(payload, client=origin),
            timeout, "no reply",
        )

    async def insert(self, certificate: FileCertificate, data: FileData,
                     origin: int) -> dict:
        """Insert a certified file from *origin*; returns the result
        payload (success flag + holder list)."""
        return await self._request(
            origin,
            {"key": certificate.storage_key(), "purpose": "past-insert",
             "certificate": certificate, "data": data},
        )

    async def lookup(self, file_id: int, origin: int) -> dict:
        """Look a file up from *origin*; the result payload carries the
        certificate and data (None if not found)."""
        from repro.core.ids import storage_key

        return await self._request(
            origin,
            {"key": storage_key(file_id), "purpose": "past-lookup",
             "file_id": file_id},
        )
