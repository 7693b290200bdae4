"""The sim delivers copies: a run hashes the same with ``wire_check``.

``RBayConfig(wire_check=True)`` hands every receiver a decoded copy of
what was sent, as a real socket does.  A handler that changes a payload
it received (or one it already sent) is visible to other holders of the
same object only in the plain sim — fault duplicates, retried walks, the
coordinator's own state — so the two runs part at the first such change.
A message is a copy: the faulted fingerprint scenarios, duplicates and
late replies included, must hash the same either way.
"""

import pytest

from tests.test_determinism_regression import fingerprint


@pytest.mark.parametrize("name", ("seed12-fixed-faults",
                                  "seed12-jitter-replyloss"))
def test_faulted_run_hashes_the_same_with_decoded_copies(name, tmp_path):
    _digest, diverged = fingerprint.copies(fingerprint.ROOT / "src", name,
                                           tmp_path)
    assert diverged is None, (
        f"{name}: the wire_check run parted from the plain run at record "
        f"{diverged[0]}: {diverged[1]!r} vs {diverged[2]!r}")



def _sends_with_every_join_duplicated(seed, wire_check):
    """Every send ``(time, src, dst, kind, size)`` while each node of a
    6-per-site EC2 overlay joins one global tree, every routed Scribe JOIN
    delivered twice.  JOINs cross sites, so many pass nodes outside the
    tree, which adopt the joiner and route on in their own name."""
    from repro.core.plane import RBay, RBayConfig
    from repro.faults.injector import protocol_kind
    from repro.transport.base import FaultDecision

    plane = RBay(RBayConfig(seed=seed, nodes_per_site=6,
                            wire_check=wire_check))
    sim, network = plane.sim, plane.network
    twice = FaultDecision(duplicates=1)
    network.fault_filter = lambda src, dst, msg: (
        twice if protocol_kind(msg) == "route/scribe/join" else None)
    sends = []
    send = network.send

    def logged_send(src, dst_address, msg, *size):
        sends.append((sim.now, src.address, dst_address, protocol_kind(msg),
                      msg.size_bytes()))
        send(src, dst_address, msg, *size)

    network.send = logged_send
    plane.build()
    for node in plane.nodes:
        node.scribe.join(node, "dup/joins")
    sim.run()
    return sends


@pytest.mark.parametrize("seed", range(1, 7))
def test_a_duplicated_mid_route_join_acts_alike_on_either_copy(seed):
    """A node that adopts a JOIN mid-route and routes on in its own name
    forwards a copy: the JOIN it received is left as it arrived, so the
    fault's second copy of it is adopted the same way (plain), just as
    under ``wire_check``, where each copy is decoded afresh."""
    assert (_sends_with_every_join_duplicated(seed, wire_check=False)
            == _sends_with_every_join_duplicated(seed, wire_check=True))
