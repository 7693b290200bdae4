"""Regression pins for the skew-stress bugfixes (ISSUE 7).

Each test fails against the pre-fix code:

* bucket re-subscription after crash/recover — a recovered node
  re-announced to Pastry but never replayed the tree joins the network
  suppressed while it was down, leaving it a member on paper but
  detached from its value bucket's tree;
* anti-entropy resurrection — ``_on_agg_push`` re-adopted any pusher,
  including under a pruned topic state, resurrecting an empty tree that
  ``_maybe_prune`` had just dissolved (and that nothing could dissolve
  again).
"""

from repro.core.naming import site_tree
from repro.core.plane import RBay, RBayConfig
from repro.scribe.topic import topic_id


def build_bucketed_plane(seed, utilization=20.0):
    plane = RBay(RBayConfig(
        seed=seed,
        synthetic_sites=2,
        nodes_per_site=6,
        jitter=False,
    )).build()
    plane.sim.run()
    for node in plane.nodes:
        node.define_attribute("CPU_utilization", utilization)
    plane.register_buckets("CPU_utilization", 0.0, 100.0, 4)
    plane.sim.run()
    return plane


# ----------------------------------------------------------------------
# Recovery must replay joins the network suppressed while down
# ----------------------------------------------------------------------
def test_recovered_node_rejoins_its_new_bucket_tree():
    plane = build_bucketed_plane(seed=31)
    # Pick a node that is NOT the site-scope rendezvous root of the bucket
    # tree that 90.0 lands in: the root's own join delivers in-process, so
    # it would wire itself up even without the recovery replay.  Only a
    # non-root node's join actually crosses the (suppressed) network.
    spec = plane.context.bucket_index.spec_for("CPU_utilization")
    bucket = next(bk for bk in spec.buckets if bk.contains(90.0))
    site = plane.nodes[0].site.name
    key = topic_id(site_tree(site, bucket.tree),
                   plane.nodes[0].scribe.creator)
    root = min(plane.site_nodes(site),
               key=lambda n: (n.node_id.distance(key), n.node_id.value))
    b = next(n for n in plane.site_nodes(site) if n is not root)
    index = plane.nodes.index(b)
    injector = plane.install_faults()
    injector.crash_node(index)
    # The monitoring feed moves the value across a bucket boundary while
    # the host is down: the eager re-bucketing runs locally (leave + join)
    # but every message it sends is suppressed.
    b.update_attribute("CPU_utilization", 90.0)
    plane.sim.run()
    injector.recover_node(index)
    plane.sim.run()

    topic = site_tree(b.site.name, bucket.tree)
    state = b.scribe.topics()[topic]
    assert state.member
    assert state.parent is not None or state.is_root, (
        "recovered node is a member on paper but detached from its bucket")
    # And the tree agrees: the size read reaches the recovered node.
    via = next(n for n in plane.site_nodes(b.site.name) if n is not b)
    assert plane.tree_size(topic, via=via, scope="site") == 1


# ----------------------------------------------------------------------
# agg_push anti-entropy must not resurrect pruned topic state
# ----------------------------------------------------------------------
def test_agg_push_does_not_resurrect_pruned_state(sim, scribe_overlay):
    """A stale pusher hitting a dissolved branch must be disowned, not
    re-adopted (pre-fix: the vestige adopted the pusher, recreating an
    unprunable empty tree and pinning the pusher to a dead branch)."""
    f, m = scribe_overlay.nodes[0], scribe_overlay.nodes[1]
    sf, sm = f.app("scribe"), m.app("scribe")
    # F's state for the topic is a pruned vestige: no role at all.
    state_f = sf.topic_state("ghost")
    assert not state_f.in_tree()
    # M missed the dissolution and still believes F is its parent.
    state_m = sm.topic_state("ghost")
    state_m.member = True
    state_m.local["count"] = 1
    state_m.parent = f.address
    sm._repush_all(m, state_m)
    sim.run()

    assert not state_f.in_tree(), "pruned state was resurrected"
    assert state_f.children == {}
    # The pusher was told its parent is gone; maintenance can now re-join
    # it at the live rendezvous instead of feeding a dead branch.
    assert state_m.parent is None
