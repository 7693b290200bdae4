"""Integration tests for the five-step query protocol across sites."""

import pytest

from repro.core.plane import RBay, RBayConfig
from repro.query.executor import QueryApplication
from repro.query.options import QueryOptions
from repro.workloads.generator import FederationWorkload, WorkloadSpec
from repro.workloads.queries import QueryWorkload


@pytest.fixture(scope="module")
def federation():
    """A workload-dressed 8-site plane, shared across this module."""
    plane = RBay(RBayConfig(seed=11, nodes_per_site=20, jitter=False)).build()
    workload = FederationWorkload(plane, WorkloadSpec(password="pw")).apply()
    plane.sim.run()
    return plane, workload


def popular_type(workload, site_name=None):
    counts = (workload.site_instance_population(site_name)
              if site_name else workload.instance_population())
    return max(counts, key=counts.get)


class TestSingleSiteQueries:
    def test_finds_matching_nodes(self, federation):
        plane, workload = federation
        itype = popular_type(workload, "Virginia")
        customer = plane.make_customer("c1", "Virginia")
        result = customer.query_once(
            f"SELECT 2 FROM Virginia WHERE instance_type = '{itype}';",
            payload={"password": "pw"},
        ).result()
        assert result.satisfied
        assert all(entry["site"] == "Virginia" for entry in result.entries)

    def test_returned_nodes_actually_match(self, federation):
        plane, workload = federation
        itype = popular_type(workload, "Tokyo")
        customer = plane.make_customer("c2", "Tokyo")
        result = customer.query_once(
            f"SELECT 1 FROM Tokyo WHERE instance_type = '{itype}';",
            payload={"password": "pw"},
        ).result()
        node = plane.network.host(result.entries[0]["address"])
        assert node.attribute_value("instance_type") == itype

    def test_wrong_password_yields_nothing(self, federation):
        plane, workload = federation
        itype = popular_type(workload, "Virginia")
        customer = plane.make_customer("c3", "Virginia")
        result = customer.query_once(
            f"SELECT 1 FROM Virginia WHERE instance_type = '{itype}';",
            payload={"password": "wrong"},
        ).result()
        assert not result.entries

    def test_nonexistent_tree_returns_empty(self, federation):
        plane, _ = federation
        customer = plane.make_customer("c4", "Virginia")
        result = customer.query_once(
            "SELECT 1 FROM Virginia WHERE instance_type = 'no.such.type';",
            payload={"password": "pw"},
        ).result()
        assert not result.entries and not result.satisfied

    def test_local_query_is_fast(self, federation):
        plane, workload = federation
        itype = popular_type(workload, "Virginia")
        customer = plane.make_customer("c5", "Virginia")
        result = customer.query_once(
            f"SELECT 1 FROM Virginia WHERE instance_type = '{itype}';",
            payload={"password": "pw"},
        ).result()
        assert result.latency_ms < 50.0  # intra-site RTTs are sub-ms


class TestMultiSiteQueries:
    def test_eight_site_query_reaches_all_sites(self, federation):
        plane, workload = federation
        itype = popular_type(workload)
        customer = plane.make_customer("c6", "Virginia")
        result = customer.query_once(
            f"SELECT 4 FROM * WHERE instance_type = '{itype}';",
            payload={"password": "pw"},
        ).result()
        assert set(result.sites_queried) == {s.name for s in plane.registry}
        assert len(result.sites_answered) == 8

    def test_multi_site_latency_bounded_by_max_rtt(self, federation):
        plane, workload = federation
        itype = popular_type(workload)
        customer = plane.make_customer("c7", "Virginia")
        result = customer.query_once(
            f"SELECT 4 FROM * WHERE instance_type = '{itype}';",
            payload={"password": "pw"},
        ).result()
        # Virginia's worst RTT is Singapore at ~275 ms; allow protocol slack.
        assert result.latency_ms < 275.549 * 1.6

    def test_results_respect_site_filter(self, federation):
        plane, workload = federation
        itype = popular_type(workload)
        customer = plane.make_customer("c8", "Virginia")
        result = customer.query_once(
            f"SELECT 10 FROM Virginia, Tokyo WHERE instance_type = '{itype}';",
            payload={"password": "pw"},
        ).result()
        assert {entry["site"] for entry in result.entries} <= {"Virginia", "Tokyo"}

    def test_groupby_orders_entries(self, federation):
        plane, workload = federation
        itype = popular_type(workload)
        customer = plane.make_customer("c9", "Oregon")
        result = customer.query_once(
            f"SELECT 5 FROM * WHERE instance_type = '{itype}' "
            "GROUPBY CPU_utilization ASC;",
            payload={"password": "pw"},
        ).result()
        values = [entry["order_value"] for entry in result.entries]
        assert values == sorted(values)

    def test_groupby_desc(self, federation):
        plane, workload = federation
        itype = popular_type(workload)
        customer = plane.make_customer("c10", "Oregon")
        result = customer.query_once(
            f"SELECT 5 FROM * WHERE instance_type = '{itype}' "
            "GROUPBY CPU_utilization DESC;",
            payload={"password": "pw"},
        ).result()
        values = [entry["order_value"] for entry in result.entries]
        assert values == sorted(values, reverse=True)


    def test_order_key_puts_numbers_then_strings_then_missing_values(self):
        key = QueryApplication._order_key
        assert (sorted([None, "b", 2.5, "a", 1, True], key=key)
                == [1, 2.5, "a", "b", None, True])


class TestCompositePredicates:
    def test_second_predicate_filters(self, federation):
        plane, workload = federation
        itype = popular_type(workload)
        customer = plane.make_customer("c11", "Ireland")
        result = customer.query_once(
            f"SELECT 20 FROM * WHERE instance_type = '{itype}' "
            "AND CPU_utilization < 40%;",
            payload={"password": "pw"},
        ).result()
        for entry in result.entries:
            node = plane.network.host(entry["address"])
            assert node.attribute_value("CPU_utilization") < 40.0

    def test_impossible_conjunction_is_empty(self, federation):
        plane, workload = federation
        itype = popular_type(workload)
        customer = plane.make_customer("c12", "Ireland")
        result = customer.query_once(
            f"SELECT 1 FROM * WHERE instance_type = '{itype}' "
            "AND CPU_utilization < 0%;",
            payload={"password": "pw"},
        ).result()
        assert not result.entries


class TestReservations:
    def test_satisfied_query_commits_leases(self, federation):
        plane, workload = federation
        itype = popular_type(workload, "Sydney")
        customer = plane.make_customer("c13", "Sydney")
        result = customer.query_once(
            f"SELECT 1 FROM Sydney WHERE instance_type = '{itype}';",
            payload={"password": "pw"},
        ).result()
        assert result.satisfied
        plane.sim.run()
        node = plane.network.host(result.entries[0]["address"])
        assert node.reservation.committed
        # Clean up for other tests.
        customer.release_all(result)
        plane.sim.run()
        assert node.reservation.is_free()

    def test_unsatisfied_query_releases_everything(self, federation):
        plane, workload = federation
        itype = popular_type(workload, "SaoPaulo")
        customer = plane.make_customer("c14", "SaoPaulo")
        result = customer.query_once(
            f"SELECT 500 FROM SaoPaulo WHERE instance_type = '{itype}';",
            payload={"password": "pw"},
        ).result()
        assert not result.satisfied
        plane.sim.run()
        for node in plane.site_nodes("SaoPaulo"):
            assert not node.reservation.committed


class TestBackoffUnderContention:
    def test_exactly_one_contender_wins_scarce_resource(self):
        plane = RBay(RBayConfig(seed=21, nodes_per_site=16, jitter=False)).build()
        workload = FederationWorkload(plane, WorkloadSpec(password="pw")).apply()
        plane.sim.run()
        itype = popular_type(workload, "Virginia")
        available = workload.site_instance_population("Virginia")[itype]
        contenders = [plane.make_customer(f"u{i}", "Virginia") for i in range(3)]
        futures = [
            c.request(f"SELECT {available} FROM Virginia WHERE instance_type = '{itype}';",
                      payload={"password": "pw"})
            for c in contenders
        ]
        outcomes = [f.result() for f in futures]
        winners = [o for o in outcomes if o.satisfied]
        assert len(winners) == 1
        assert all(o.attempts >= 1 for o in outcomes)

    def test_losers_used_backoff(self):
        plane = RBay(RBayConfig(seed=22, nodes_per_site=16, jitter=False)).build()
        workload = FederationWorkload(plane, WorkloadSpec(password="pw")).apply()
        plane.sim.run()
        itype = popular_type(workload, "Tokyo")
        available = workload.site_instance_population("Tokyo")[itype]
        a = plane.make_customer("a", "Tokyo")
        b = plane.make_customer("b", "Tokyo")
        fa = a.request(f"SELECT {available} FROM Tokyo WHERE instance_type = '{itype}';",
                       payload={"password": "pw"})
        fb = b.request(f"SELECT {available} FROM Tokyo WHERE instance_type = '{itype}';",
                       payload={"password": "pw"})
        oa, ob = fa.result(), fb.result()
        loser = ob if oa.satisfied else oa
        assert loser.gave_up
        assert loser.attempts > 1  # the loser re-queried before giving up


class TestQueryWorkloadGenerator:
    def test_origin_always_included(self, federation):
        plane, _ = federation
        rng = plane.streams.stream("qa")
        generator = QueryWorkload(rng, [s.name for s in plane.registry], k=1)
        for n_sites in range(1, 8):
            sql, payload = generator.make("Tokyo", n_sites)
            assert "Tokyo" in sql
            assert payload == {"password": "rbay"}

    def test_eight_sites_becomes_from_star(self, federation):
        plane, _ = federation
        rng = plane.streams.stream("qb")
        generator = QueryWorkload(rng, [s.name for s in plane.registry])
        sql, _ = generator.make("Tokyo", 8)
        assert "FROM *" in sql

    def test_invalid_site_count_rejected(self, federation):
        plane, _ = federation
        rng = plane.streams.stream("qc")
        generator = QueryWorkload(rng, [s.name for s in plane.registry])
        with pytest.raises(ValueError):
            generator.make("Tokyo", 0)
        with pytest.raises(ValueError):
            generator.make("Tokyo", 9)

    def test_stream_yields_count(self, federation):
        plane, _ = federation
        rng = plane.streams.stream("qd")
        generator = QueryWorkload(rng, [s.name for s in plane.registry])
        assert len(list(generator.stream("Tokyo", 3, 10))) == 10


class TestQueryStatistics:
    def test_visited_members_counted(self, federation):
        plane, workload = federation
        plane.settle(61_000.0)  # let leases from earlier tests expire
        itype = popular_type(workload, "Virginia")
        customer = plane.make_customer("stats1", "Virginia")
        result = customer.query_once(
            f"SELECT 1 FROM Virginia WHERE instance_type = '{itype}';",
            payload={"password": "pw"},
        ).result()
        assert result.satisfied
        assert result.visited_members >= 1
        customer.release_all(result)
        plane.sim.run()

    def test_multi_site_visits_accumulate(self, federation):
        plane, workload = federation
        itype = popular_type(workload)
        customer = plane.make_customer("stats2", "Oregon")
        result = customer.query_once(
            f"SELECT 8 FROM * WHERE instance_type = '{itype}';",
            payload={"password": "pw"},
        ).result()
        assert result.visited_members >= len(result.entries)
        customer.release_all(result)
        plane.sim.run()

    def test_empty_query_visits_nobody(self, federation):
        plane, _ = federation
        customer = plane.make_customer("stats3", "Virginia")
        result = customer.query_once(
            "SELECT 1 FROM Virginia WHERE instance_type = 'no.such';",
            payload={"password": "pw"},
        ).result()
        assert result.visited_members == 0


class TestUnknownSites:
    def test_unknown_site_is_skipped(self, federation):
        plane, workload = federation
        itype = popular_type(workload)
        customer = plane.make_customer("u1", "Virginia")
        result = customer.query_once(
            f"SELECT 1 FROM Atlantis WHERE instance_type = '{itype}';",
            payload={"password": "pw"},
        ).result()
        assert not result.satisfied
        assert result.sites_answered == ()

    def test_mixed_known_unknown_sites(self, federation):
        plane, workload = federation
        plane.settle(61_000.0)  # expire earlier leases
        itype = popular_type(workload, "Virginia")
        customer = plane.make_customer("u2", "Virginia")
        result = customer.query_once(
            f"SELECT 1 FROM Virginia, Atlantis WHERE instance_type = '{itype}';",
            payload={"password": "pw"},
        ).result()
        assert result.satisfied
        assert result.sites_answered == ("Virginia",)
        customer.release_all(result)
        plane.sim.run()


def gpu_plane():
    """Four synthetic sites of eight nodes, every node posting ``GPU``."""
    plane = RBay(RBayConfig(seed=5, synthetic_sites=4, nodes_per_site=8,
                            jitter=False)).build()
    for site in plane.registry:
        admin = plane.admin(site.name)
        for node in plane.site_nodes(site.name):
            admin.post_resource(node, "GPU", True)
    plane.sim.run()
    return plane


def run_counted(plane, sql):
    """``(result, messages sent)`` of one query from ``Site000``."""
    before = plane.network.messages_sent
    result = plane.query(sql, options=QueryOptions(origin="Site000"))
    return result, plane.network.messages_sent - before


class TestFromList:
    def test_site_without_gateway_is_reported_failed(self):
        """A FROM name the federation has no gateway for used to vanish:
        queried, never answered, yet not failed and not degraded."""
        result, _ = run_counted(
            gpu_plane(), "SELECT 2 FROM Site000, Nowhere WHERE GPU = true;")
        assert result.sites_queried == ("Site000", "Nowhere")
        assert result.sites_answered == ("Site000",)
        assert result.failed_sites == ("Nowhere",)
        assert set(result.sites_queried) == (set(result.sites_answered)
                                             | set(result.failed_sites))
        assert result.degraded == bool(result.failed_sites)

    def test_duplicated_site_is_asked_once(self):
        """``FROM Site001, Site001`` used to send a second ``site_query``
        to the same gateway and list the site twice."""
        twice, sent_twice = run_counted(
            gpu_plane(), "SELECT 2 FROM Site001, Site001 WHERE GPU = true;")
        once, sent_once = run_counted(
            gpu_plane(), "SELECT 2 FROM Site001 WHERE GPU = true;")
        assert sent_twice == sent_once
        assert twice.sites_queried == once.sites_queried == ("Site001",)
        assert twice.sites_answered == once.sites_answered
        assert twice.failed_sites == once.failed_sites == ()
        assert twice.entries == once.entries
