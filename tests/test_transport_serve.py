"""Process-per-site smoke test: two ``rbay serve`` processes federate
over real TCP and answer a cross-site query.

Each process builds the identical same-seed plane and owns one site;
non-owned nodes are shadows whose sends are suppressed, so every message
between the sites crosses a real socket between the two processes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.transport.serve import PeerPlan, PeerPlanError

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")
QUERY = "SELECT 1 FROM * WHERE CPU_utilization < 10.0;"


def port_base():
    # Derive from the pid so parallel CI runs don't collide; stay below the
    # kernel's ephemeral range (32768+), where an outgoing connection left
    # by an earlier live test can already hold the port.
    return 20_000 + (os.getpid() % 600) * 20


class TestPeerPlan:
    def test_default_document_and_endpoints(self):
        doc = PeerPlan.default_document(["Site000", "Site001"],
                                        host="127.0.0.1", port_base=30_000,
                                        stride=10)
        plan = PeerPlan.from_json(json.dumps(doc), owned={"Site000"})
        assert plan.endpoint("Site000", 0) == ("127.0.0.1", 30_000)
        assert plan.endpoint("Site001", 2) == ("127.0.0.1", 30_012)
        assert plan.owned == {"Site000"}

    def test_unknown_site_rejected(self):
        doc = PeerPlan.default_document(["Site000"])
        with pytest.raises(PeerPlanError):
            PeerPlan.from_json(json.dumps(doc), owned={"Nowhere"})
        plan = PeerPlan.from_json(json.dumps(doc), owned={"Site000"})
        with pytest.raises(PeerPlanError):
            plan.endpoint("Nowhere", 0)

    def test_malformed_document_rejected(self):
        with pytest.raises(PeerPlanError):
            PeerPlan.from_json('{"sites": "nope"}', owned=set())

    def test_load_roundtrip(self, tmp_path):
        doc = PeerPlan.default_document(["Site000", "Site001"])
        path = tmp_path / "peers.json"
        path.write_text(json.dumps(doc))
        plan = PeerPlan.load(str(path), owned={"Site001"})
        assert plan.endpoint("Site001", 0)[1] == doc["sites"]["Site001"]["port_base"]


def serve_cmd(peers_path, own, query=False):
    cmd = [sys.executable, "-m", "repro.cli", "serve",
           "--sites", "2", "--nodes", "3", "--no-jitter",
           "--seed", "2017", "--time-scale", "0.05",
           "--peers", str(peers_path), "--own", own,
           "--duration", "6", "--settle-ms", "2000",
           "--peer-timeout", "30"]
    if query:
        cmd += ["--query", QUERY, "--origin", "Site000"]
    return cmd


def test_two_process_federation_answers_cross_site_query(tmp_path):
    doc = PeerPlan.default_document(["Site000", "Site001"],
                                    port_base=port_base(), stride=10)
    peers = tmp_path / "peers.json"
    peers.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=REPO_SRC)

    follower = subprocess.Popen(serve_cmd(peers, "Site001"),
                                stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True, env=env)
    try:
        leader = subprocess.run(serve_cmd(peers, "Site000", query=True),
                                capture_output=True, text=True,
                                timeout=120, env=env)
    finally:
        try:
            follower.wait(timeout=120)
        except subprocess.TimeoutExpired:
            follower.kill()
            follower.wait()

    out = leader.stdout
    assert leader.returncode == 0, f"leader failed:\n{out}\n{leader.stderr}"
    assert follower.returncode == 0, f"follower failed:\n{follower.stdout}"
    assert "READY owned=Site000" in out

    result_line = next(l for l in out.splitlines() if l.startswith("RESULT "))
    result = json.loads(result_line[len("RESULT "):])
    assert result["satisfied"] is True
    assert result["degraded"] is False
    assert sorted(result["sites_answered"]) == ["Site000", "Site001"]

    done_line = next(l for l in out.splitlines() if l.startswith("DONE "))
    done = json.loads(done_line[len("DONE "):])
    assert done["delivered"] > 0
    assert done["suppressed"] > 0  # shadow nodes stayed silent
