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
