"""Unit tests for latency models and the Table II matrix."""

import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.latency import (
    EC2_RTT_MS,
    EC2_SITES,
    UNSTABLE_REGIONS,
    SyntheticLatencyModel,
    TableIILatencyModel,
    UniformLatencyModel,
    make_ec2_registry,
    mean_rtt_ms,
)
from repro.net.site import Site, SiteRegistry


def test_table2_has_all_eight_sites():
    names = [name for name, _ in EC2_SITES]
    assert len(names) == 8
    assert names[0] == "Virginia" and names[-1] == "SaoPaulo"


def test_table2_is_symmetric_and_complete():
    names = [name for name, _ in EC2_SITES]
    for a in names:
        for b in names:
            assert EC2_RTT_MS[(a, b)] == EC2_RTT_MS[(b, a)]


def test_table2_values_match_paper():
    # Spot checks straight out of Table II.
    assert EC2_RTT_MS[("Virginia", "Oregon")] == 60.018
    assert EC2_RTT_MS[("Virginia", "Singapore")] == 275.549
    assert EC2_RTT_MS[("Singapore", "SaoPaulo")] == 396.856
    assert EC2_RTT_MS[("Tokyo", "Tokyo")] == 0.435
    assert EC2_RTT_MS[("Ireland", "Sydney")] == 322.284


def test_intra_site_rtts_are_sub_millisecond():
    for name, _ in EC2_SITES:
        assert EC2_RTT_MS[(name, name)] < 1.0


def test_registry_order_matches_table():
    registry = make_ec2_registry()
    assert [s.name for s in registry] == [name for name, _ in EC2_SITES]
    assert registry.by_name("Tokyo").region == "Asia"


def test_uniform_model_constant():
    model = UniformLatencyModel(2.0)
    registry = make_ec2_registry()
    assert model.one_way_delay_ms(registry[0], registry[5]) == 2.0
    assert model.rtt_ms(registry[0], registry[5]) == 4.0


def test_uniform_model_rejects_negative():
    with pytest.raises(ValueError):
        UniformLatencyModel(-1.0)


def test_table2_model_without_jitter_is_half_rtt():
    model = TableIILatencyModel()
    registry = make_ec2_registry()
    virginia, tokyo = registry.by_name("Virginia"), registry.by_name("Tokyo")
    assert model.one_way_delay_ms(virginia, tokyo) == pytest.approx(191.601 / 2)
    assert model.rtt_ms(virginia, tokyo) == pytest.approx(191.601)


def test_table2_model_jitter_preserves_mean():
    model = TableIILatencyModel(rng=random.Random(0), jitter_cv=0.05)
    registry = make_ec2_registry()
    virginia, oregon = registry[0], registry[1]
    measured = mean_rtt_ms(model, [virginia, oregon], samples=400)
    assert measured[("Virginia", "Oregon")] == pytest.approx(60.018, rel=0.05)


def test_unstable_regions_get_more_jitter():
    model = TableIILatencyModel(rng=random.Random(0), jitter_cv=0.01,
                                unstable_jitter_cv=0.5)
    registry = make_ec2_registry()
    virginia, oregon = registry.by_name("Virginia"), registry.by_name("Oregon")
    singapore, saopaulo = registry.by_name("Singapore"), registry.by_name("SaoPaulo")

    def spread(a, b, n=300):
        values = [model.one_way_delay_ms(a, b) for _ in range(n)]
        mu = sum(values) / n
        var = sum((v - mu) ** 2 for v in values) / n
        return (var ** 0.5) / mu

    assert spread(singapore, saopaulo) > spread(virginia, oregon) * 3


def test_nominal_delay_ignores_jitter():
    model = TableIILatencyModel(rng=random.Random(0), jitter_cv=0.5)
    registry = make_ec2_registry()
    a, b = registry[0], registry[3]
    assert model.nominal_one_way_ms(a, b) == pytest.approx(87.407 / 2)


def test_table2_model_unknown_pair_raises():
    from repro.net.site import SiteRegistry

    registry = SiteRegistry()
    x = registry.add("Nowhere", "X")
    model = TableIILatencyModel()
    with pytest.raises(KeyError):
        model.one_way_delay_ms(x, x)


class TestSyntheticModel:
    def test_intra_site(self):
        from repro.net.site import SiteRegistry

        registry = SiteRegistry()
        sites = [registry.add(f"S{i}", "X") for i in range(6)]
        model = SyntheticLatencyModel(6, intra_site_ms=0.3, hop_ms=10.0)
        assert model.one_way_delay_ms(sites[2], sites[2]) == 0.3

    def test_ring_distance(self):
        from repro.net.site import SiteRegistry

        registry = SiteRegistry()
        sites = [registry.add(f"S{i}", "X") for i in range(6)]
        model = SyntheticLatencyModel(6, intra_site_ms=0.0, hop_ms=10.0)
        assert model.one_way_delay_ms(sites[0], sites[1]) == 10.0
        # Wraps around: distance(0, 5) == 1.
        assert model.one_way_delay_ms(sites[0], sites[5]) == 10.0
        assert model.one_way_delay_ms(sites[0], sites[3]) == 30.0


# ----------------------------------------------------------------------
# Per-pair parameters: bit-exact against the per-call formula
# ----------------------------------------------------------------------
def _table2_reference(rng, jitter_cv, unstable_jitter_cv, src, dst):
    """The Table II draw as it was computed on every call."""
    base = EC2_RTT_MS[(src.name, dst.name)] / 2.0
    if rng is None:
        return base
    cv = (unstable_jitter_cv
          if src.region in UNSTABLE_REGIONS or dst.region in UNSTABLE_REGIONS
          else jitter_cv)
    if cv <= 0:
        return base
    sigma = math.sqrt(math.log(1.0 + cv * cv))
    mu = -0.5 * sigma * sigma
    return base * rng.lognormvariate(mu, sigma)


def _ring_reference(n, intra, hop, src, dst):
    if src.index == dst.index:
        return intra
    ring = min((src.index - dst.index) % n, (dst.index - src.index) % n)
    return intra + hop * ring


def _synthetic_reference(n, rng, jitter_cv, src, dst):
    base = _ring_reference(n, 0.25, 15.0, src, dst)
    if rng is None or jitter_cv <= 0:
        return base
    sigma = math.sqrt(math.log(1.0 + jitter_cv**2))
    mu = -0.5 * sigma * sigma
    return base * rng.lognormvariate(mu, sigma)


def _bits(values):
    return [struct.pack(">d", value) for value in values]


CVS = st.one_of(st.just(0.0), st.floats(0.0, 2.0))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), jitter=st.booleans(), jitter_cv=CVS,
       unstable_jitter_cv=CVS, rounds=st.integers(1, 3))
def test_table2_draws_equal_the_per_call_formula(seed, jitter, jitter_cv,
                                                 unstable_jitter_cv, rounds):
    sites = list(make_ec2_registry())
    pairs = [(a, b) for a in sites for b in sites] * rounds
    model = TableIILatencyModel(rng=random.Random(seed) if jitter else None,
                                jitter_cv=jitter_cv,
                                unstable_jitter_cv=unstable_jitter_cv)
    reference = random.Random(seed) if jitter else None
    assert _bits(model.one_way_delay_ms(a, b) for a, b in pairs) == _bits(
        _table2_reference(reference, jitter_cv, unstable_jitter_cv, a, b)
        for a, b in pairs)
    assert _bits(model.nominal_one_way_ms(a, b) for a, b in pairs) == _bits(
        _table2_reference(None, 0, 0, a, b) for a, b in pairs)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32),
       jitter=st.booleans(), jitter_cv=CVS)
def test_synthetic_draws_equal_the_per_call_formula(n, seed, jitter, jitter_cv):
    registry = SiteRegistry()
    for i in range(n):
        registry.add(f"Site{i:03d}", "Synthetic")
    sites = list(registry)
    pairs = [(a, b) for a in sites for b in sites]
    model = SyntheticLatencyModel(n, rng=random.Random(seed) if jitter else None,
                                  jitter_cv=jitter_cv)
    reference = random.Random(seed) if jitter else None
    assert _bits(model.one_way_delay_ms(a, b) for a, b in pairs) == _bits(
        _synthetic_reference(n, reference, jitter_cv, a, b) for a, b in pairs)
    assert _bits(model.nominal_one_way_ms(a, b) for a, b in pairs) == _bits(
        _ring_reference(n, 0.25, 15.0, a, b) for a, b in pairs)


def test_synthetic_nominal_delays_equal_the_ring_formula():
    """Every n from 1 to 40, every pair, and sites outside ``0..n-1``
    (the ring arithmetic is modular), with non-default delays."""
    for n in range(1, 41):
        model = SyntheticLatencyModel(n, intra_site_ms=0.3, hop_ms=7.1)
        sites = [Site(f"S{i}", "r", i) for i in range(-n - 2, 2 * n + 2)]
        for a in sites:
            for b in sites:
                assert (struct.pack(">d", model.nominal_one_way_ms(a, b))
                        == struct.pack(">d", _ring_reference(n, 0.3, 7.1, a, b)))


def test_an_unknown_site_still_fails_on_every_call():
    model = TableIILatencyModel(rng=random.Random(1))
    virginia = make_ec2_registry()[0]
    stranger = Site("Mars", "US", 0)
    for _ in range(2):
        with pytest.raises(KeyError, match="Table II covers"):
            model.one_way_delay_ms(virginia, stranger)
