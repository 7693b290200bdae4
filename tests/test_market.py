"""Tests for the elastic marketplace: DEPAS auto-scaling + spot pricing
+ the open-loop market workload."""

import dataclasses
import random
from array import array
from bisect import bisect_left
from itertools import accumulate

import pytest

from repro.core.plane import RBay, RBayConfig
from repro.ext.autoscale import AutoscaleConfig, SiteAutoscaler
from repro.ext.economy import PRICE_ATTRIBUTE, SpotPricer
from repro.faults import FaultSchedule
from repro.workloads.market import (
    MARKET_ATTRIBUTE,
    MARKET_TREE,
    MarketSpec,
    run_market,
    user_credit,
    zipf_cumulative,
)


class AlwaysActuate:
    """RNG stub: every probabilistic coin-flip lands on 'act'."""

    def random(self):
        return 0.0


class NeverActuate:
    def random(self):
        return 1.0


@pytest.fixture
def plane():
    plane = RBay(RBayConfig(seed=91, synthetic_sites=1, nodes_per_site=8,
                            jitter=False)).build()
    plane.sim.run()
    return plane


def make_scaler(plane, *, enabled=True, rng=None, config=None, price=5.0):
    site = plane.nodes[0].site.name
    pool = plane.site_nodes(site)[1:]
    return SiteAutoscaler(
        plane.admin(site), pool,
        config or AutoscaleConfig(),
        rng=rng or AlwaysActuate(),
        metrics=plane.obs.metrics,
        attribute=MARKET_ATTRIBUTE,
        value=True,
        price_of=lambda: price,
        enabled=enabled,
    )


class TestAutoscaleConfig:
    def test_defaults_valid(self):
        AutoscaleConfig()

    @pytest.mark.parametrize("kwargs", [
        {"low": 0.8, "high": 0.5},          # inverted band
        {"low": -0.1},                       # below 0
        {"high": 1.5},                       # above 1
        {"low": 0.5, "high": 0.5},           # empty band
        {"gain": 0.0},
        {"gain": -1.0},
        {"min_instances": -1},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            AutoscaleConfig(**kwargs)


class TestSiteAutoscaler:
    def test_start_posts_initial_instances(self, plane):
        scaler = make_scaler(plane)
        scaler.start(3)
        plane.sim.run()
        assert scaler.instances == 3
        # Provisioning is not elasticity: no actuations counted yet.
        assert scaler.scaled_out == 0
        for node in scaler.active:
            assert node.attribute_value(PRICE_ATTRIBUTE) == 5.0
            assert node.attribute_value(MARKET_ATTRIBUTE) is True

    def test_empty_posting_set_reads_fully_utilized(self, plane):
        scaler = make_scaler(plane, config=AutoscaleConfig(min_instances=0))
        assert scaler.utilization() == 1.0

    def test_scale_out_under_pressure(self, plane):
        scaler = make_scaler(plane)
        scaler.start(1)
        plane.sim.run()
        scaler.active[0].reservation.try_reserve(1)  # util = 1.0 >= high
        scaler.tick()
        plane.sim.run()
        assert scaler.instances == 2
        assert scaler.scaled_out == 1

    def test_scale_in_when_idle(self, plane):
        scaler = make_scaler(plane)
        scaler.start(3)
        plane.sim.run()
        scaler.tick()  # util 0.0 <= low
        plane.sim.run()
        assert scaler.instances == 2
        assert scaler.scaled_in == 1
        # The withdrawn node left the market tree and lost the attribute.
        retired = scaler.spare[0]
        assert retired.attribute_value(MARKET_ATTRIBUTE) is None

    def test_scale_in_respects_min_instances(self, plane):
        scaler = make_scaler(plane)
        scaler.start(1)
        plane.sim.run()
        scaler.tick()
        assert scaler.instances == 1 and scaler.scaled_in == 0

    def test_scale_out_respects_max_instances(self, plane):
        scaler = make_scaler(plane, config=AutoscaleConfig(max_instances=2))
        scaler.start(2)
        plane.sim.run()
        for node in scaler.active:
            node.reservation.try_reserve(7)
        scaler.tick()
        assert scaler.instances == 2 and scaler.scaled_out == 0

    def test_scale_in_skips_leased_instances(self, plane):
        scaler = make_scaler(plane)
        scaler.start(2)
        plane.sim.run()
        last = scaler.active[-1]
        first = scaler.active[0]
        last.reservation.try_reserve(3)
        last.reservation.commit(3, lease_ms=60_000.0)
        scaler._retire_one()
        plane.sim.run()
        # The leased (most recent) posting survives; the idle one goes.
        assert scaler.active == [last]
        assert first in scaler.spare

    def test_retire_noop_when_all_leased(self, plane):
        scaler = make_scaler(plane)
        scaler.start(2)
        plane.sim.run()
        for i, node in enumerate(scaler.active):
            node.reservation.try_reserve(i + 1)
            node.reservation.commit(i + 1, lease_ms=60_000.0)
        scaler._retire_one()
        assert scaler.instances == 2 and scaler.scaled_in == 0

    def test_disabled_arm_publishes_but_never_actuates(self, plane):
        scaler = make_scaler(plane, enabled=False)
        scaler.start(2)
        plane.sim.run()
        util = scaler.tick()  # idle: an enabled scaler would retire one
        assert util == 0.0
        assert scaler.instances == 2
        assert scaler.scaled_in == 0 and scaler.scaled_out == 0
        site = plane.nodes[0].site.name
        gauges = plane.obs.metrics
        assert gauges.gauge("market.site.utilization").get(site=site) == 0.0
        assert gauges.gauge("market.site.instances").get(site=site) == 2.0

    def test_probability_gate_can_decline(self, plane):
        scaler = make_scaler(plane, rng=NeverActuate())
        scaler.start(1)
        plane.sim.run()
        scaler.active[0].reservation.try_reserve(1)
        scaler.tick()
        assert scaler.instances == 1  # coin-flip said no


class TestSpotPricer:
    def make(self, plane, **kwargs):
        site = plane.nodes[0].site.name
        return SpotPricer(plane.admin(site), plane.site_nodes(site)[0],
                          MARKET_TREE, plane.obs.metrics,
                          price=kwargs.pop("price", 8.0), **kwargs)

    def set_util(self, plane, value):
        site = plane.nodes[0].site.name
        plane.obs.metrics.gauge("market.site.utilization").set(
            value, site=site)

    def test_validates_parameters(self, plane):
        with pytest.raises(ValueError):
            self.make(plane, floor=0.0)
        with pytest.raises(ValueError):
            self.make(plane, floor=10.0, ceiling=5.0)
        with pytest.raises(ValueError):
            self.make(plane, low=0.9, high=0.5)

    def test_raises_price_when_hot(self, plane):
        pricer = self.make(plane, gain=0.25)
        self.set_util(plane, 0.9)
        assert pricer.tick() == pytest.approx(10.0)
        assert pricer.changes == 1

    def test_lowers_price_when_idle_and_clamps_at_floor(self, plane):
        pricer = self.make(plane, price=1.2, floor=1.0, gain=0.5)
        self.set_util(plane, 0.0)
        assert pricer.tick() == pytest.approx(1.0)  # 0.6 clamped to floor
        assert pricer.tick() == pytest.approx(1.0)
        assert pricer.changes == 1  # the clamped re-tick is not a change

    def test_clamps_at_ceiling(self, plane):
        pricer = self.make(plane, price=60.0, ceiling=64.0, gain=0.5)
        self.set_util(plane, 1.0)
        assert pricer.tick() == pytest.approx(64.0)

    def test_dead_band_holds_price(self, plane):
        pricer = self.make(plane)
        self.set_util(plane, 0.5)
        assert pricer.tick() == pytest.approx(8.0)
        assert pricer.changes == 0

    def test_reprice_reaches_market_gates(self, plane):
        site = plane.nodes[0].site.name
        admin = plane.admin(site)
        scaler = make_scaler(plane, price=8.0)
        scaler.start(2)
        plane.sim.run()
        pricer = self.make(plane, gain=0.5)
        self.set_util(plane, 1.0)
        pricer.tick()
        plane.sim.run()
        for node in scaler.active:
            assert node.attribute_value(PRICE_ATTRIBUTE) == pytest.approx(12.0)
            assert node.authorize("j", {"budget": 12.5}) is not None
            assert node.authorize("j", {"budget": 11.5}) is None


class TestPopulationHelpers:
    def test_zipf_cumulative_is_monotone_and_memoized(self):
        table = zipf_cumulative(100, 1.1)
        assert table is zipf_cumulative(100, 1.1)
        assert isinstance(table, array) and table.typecode == "d"
        assert len(table) == 100
        assert all(b > a for a, b in zip(table, table[1:]))
        # Packed doubles draw exactly as the list of floats they replace.
        count = 50_000
        packed = zipf_cumulative(count, 1.1)
        reference = list(accumulate(1.0 / (rank ** 1.1)
                                    for rank in range(1, count + 1)))
        rng = random.Random(7)
        draws = [rng.random() for _ in range(10_000)]
        assert ([bisect_left(packed, u * packed[-1]) for u in draws]
                == [bisect_left(reference, u * reference[-1]) for u in draws])

    def test_user_credit_is_deterministic_and_bounded(self):
        values = [user_credit(uid) for uid in range(2000)]
        assert values == [user_credit(uid) for uid in range(2000)]
        assert all(0.0 <= v <= 1.0 for v in values)
        # The hash spreads: a fair share of users sit below a 0.05 floor.
        assert 0 < sum(1 for v in values if v < 0.05) < 400


SMALL = MarketSpec(sites=2, nodes_per_site=5, users=4_000,
                   arrival_rate_per_s=8.0, duration_ms=1_800.0,
                   spike_start_ms=600.0, spike_ms=600.0, seed=17)


class TestRunMarket:
    def test_smoke_metrics_shape(self):
        metrics = run_market(SMALL)
        assert metrics["arrivals"] > 0
        assert metrics["distinct_users"] <= metrics["arrivals"]
        assert 0.0 <= metrics["satisfied_demand"] <= 1.0
        assert 0.0 < metrics["jain_fairness"] <= 1.0
        assert set(metrics["revenue_per_site"]) == {"Site000", "Site001"}
        assert metrics["units_granted"] <= metrics["units_demanded"]
        assert metrics["purchases"] > 0
        assert metrics["admission"]["admitted"] == metrics["arrivals"]
        assert len(metrics["signature"]) == 64

    def test_same_seed_replays_identically(self):
        assert run_market(SMALL)["signature"] == \
            run_market(SMALL)["signature"]

    def test_seeds_diverge(self):
        other = dataclasses.replace(SMALL, seed=18)
        assert run_market(SMALL)["signature"] != \
            run_market(other)["signature"]

    def test_sanitizer_rides_along_clean(self):
        metrics = run_market(dataclasses.replace(SMALL, sanitize=True))
        assert metrics["sanitizer"]["violations"] == []
        # The signature is sealed before the sanitizer drain.
        assert metrics["signature"] == run_market(SMALL)["signature"]

    def test_fixed_arm_never_scales(self):
        metrics = run_market(dataclasses.replace(SMALL, autoscale=False))
        assert metrics["scale_out_events"] == 0
        assert metrics["scale_in_events"] == 0
        assert all(v == SMALL.initial_instances for v in
                   metrics["final_instances_per_site"].values())

    def test_chaos_market_stays_hygienic(self):
        # A mid-window partition plus a crashed (non-gateway) server:
        # reservation hygiene and aggregate coherence must hold through
        # scale-out/scale-in under faults, and arrivals during the
        # partition surface as typed errors, not hangs.
        schedule = (FaultSchedule()
                    .crash(8, at_ms=1_200.0, recover_at_ms=1_900.0)
                    .partition("Site000", "Site001",
                               start_ms=1_400.0, end_ms=2_000.0))
        metrics = run_market(dataclasses.replace(
            SMALL, sanitize=True, fault_schedule=schedule))
        assert metrics["sanitizer"]["violations"] == []
        assert metrics["arrivals"] > 0
