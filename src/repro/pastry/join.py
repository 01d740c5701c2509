"""Node arrival: initialising a new node's state.

The protocol of section 2.2: an arriving node X contacts a nearby node A
(by the proximity metric) and asks A to route a special join message to
the existing node Z whose id is numerically closest to X's.  X then takes

* the *neighborhood set* from A -- A is proximally near X, so A's
  proximal neighbours are good candidates for X's;
* the *leaf set* from Z -- Z is numerically closest to X, so Z's leaf set
  members are exactly the candidates for X's;
* *row i of the routing table* from the i-th node along the route from A
  to Z -- that node shares the first i digits with X (the route's shared
  prefix grows by at least one digit per hop), so its row i entries are
  valid for X, and they are proximally reasonable because the route's
  early hops stay near A (and hence near X).

Finally X notifies every node that appears in its new state, and each of
those nodes folds X into its own state, restoring all invariants.  The
message cost, measured under the ``messages.join`` counter, is
O(log_2^b N) -- claim C3, benchmark E4.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.events import NodeJoined
from repro.obs.trace_context import TraceContext
from repro.pastry.node import PastryNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pastry.network import PastryNetwork


def join_network(
    network: "PastryNetwork",
    new_node: PastryNode,
    contact_id: int,
    trace: bool = False,
) -> int:
    """Run the arrival protocol for *new_node* via *contact_id*.

    Returns the number of messages the join generated.  The new node must
    already be registered with the network (``add_node``) but have empty
    state; the contact must be a live node.  With ``trace=True`` (and an
    observer installed) the join opens a new trace in ``obs.traces``: a
    ``join`` root span with the join route's span tree under it.
    """
    if not network.is_live(contact_id):
        raise ValueError("join contact is not alive")
    if contact_id == new_node.node_id:
        raise ValueError("a node cannot use itself as a join contact")
    obs = network.obs
    ctx = None
    if trace and obs.enabled:
        ctx = TraceContext.root(network.rngs.stream("join-trace-ids"))
        start = obs.traces.tick()
    before = network.stats.counter("messages.join").value

    # X -> A: the initial contact message.
    network.count_message("join", kind="join-contact", node=new_node.node_id)

    # A routes the join message towards X's id; the nodes encountered are
    # exactly the ones whose state X copies from.  The arriving node is
    # not live for routing purposes yet (its id is excluded as a hop
    # because it holds no state), so we route with A's view.
    result = network.route(
        new_node.node_id, origin=contact_id, category="join",
        trace=None if ctx is None else ctx.child("route"),
    )
    if not result.delivered:
        raise RuntimeError(f"join route failed: {result.reason}")
    path = result.path
    node_a = network.nodes[path[0]]
    node_z = network.nodes[path[-1]]

    # Neighborhood set from A (one state-transfer message).
    network.count_message("join", kind="join-neighborhood", node=node_a.node_id)
    new_node.learn(node_a.node_id)
    for member in node_a.state.neighborhood.ordered_members():
        new_node.learn(member)

    # Leaf set from Z (one state-transfer message).
    network.count_message("join", kind="join-leafset", node=node_z.node_id)
    new_node.learn(node_z.node_id)
    for member in node_z.state.leaf_set.members():
        new_node.learn(member)

    # Row i of the routing table from the i-th route node (one message
    # per node on the path).
    for row_index, hop_id in enumerate(path):
        if row_index >= network.space.digits:
            break
        network.count_message("join", kind="join-row", node=hop_id)
        hop = network.nodes[hop_id]
        new_node.learn(hop_id)
        new_node.state.routing_table.install_row(
            row_index, hop.state.routing_table.row(row_index), new_node.proximity
        )

    # Announce X to every node in its resulting state; each one absorbs X.
    for known_id in sorted(new_node.state.known_nodes()):
        if not network.is_live(known_id):
            continue
        network.count_message("join", kind="join-announce", node=new_node.node_id)
        network.nodes[known_id].learn(new_node.node_id)

    messages = network.stats.counter("messages.join").value - before
    if obs.enabled:
        obs.metrics.histogram("join.messages").add(messages)
        obs.emit(
            NodeJoined(
                node_id=new_node.node_id,
                contact_id=contact_id,
                messages=messages,
                route_hops=result.hops,
            )
        )
    if ctx is not None:
        obs.traces.record(
            ctx, "join", start=start, end=obs.traces.tick(),
            node_id=f"{new_node.node_id:x}", contact_id=f"{contact_id:x}",
            messages=messages, route_hops=result.hops,
        )
    return messages
