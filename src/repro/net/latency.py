"""Latency models, including the paper's Table II EC2 RTT matrix.

Table II of the paper reports average round-trip latencies between the eight
Amazon EC2 sites used in the evaluation.  We embed that matrix verbatim and
derive one-way message delays from it (RTT/2), optionally perturbed by
lognormal jitter.  The paper attributes its Fig. 11 latency fluctuations to
"unstable networks" at the Asia and South America sites, which we model as a
higher jitter coefficient for those regions.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Optional, Sequence, Tuple

from repro.net.site import Site, SiteRegistry

#: (name, region) of the paper's eight sites, in Table II order.
EC2_SITES: Tuple[Tuple[str, str], ...] = (
    ("Virginia", "US"),
    ("Oregon", "US"),
    ("California", "US"),
    ("Ireland", "EU"),
    ("Singapore", "Asia"),
    ("Tokyo", "Asia"),
    ("Sydney", "Asia"),
    ("SaoPaulo", "SA"),
)

#: Average round-trip latency in milliseconds between pairs of Amazon sites
#: (paper Table II).  Symmetric; diagonal entries are intra-site RTTs.
EC2_RTT_MS: Dict[Tuple[str, str], float] = {}


def _fill_table2() -> None:
    rows = {
        "Virginia": [0.559, 60.018, 83.407, 87.407, 275.549, 191.601, 239.897, 123.966],
        "Oregon": [None, 0.576, 20.441, 166.223, 200.296, 133.825, 190.985, 205.493],
        "California": [None, None, 0.489, 163.944, 174.701, 132.695, 186.027, 195.109],
        "Ireland": [None, None, None, 0.513, 194.371, 274.962, 322.284, 325.274],
        "Singapore": [None, None, None, None, 0.540, 92.850, 184.894, 396.856],
        "Tokyo": [None, None, None, None, None, 0.435, 127.156, 374.363],
        "Sydney": [None, None, None, None, None, None, 0.565, 323.613],
        "SaoPaulo": [None, None, None, None, None, None, None, 0.436],
    }
    names = [name for name, _ in EC2_SITES]
    for i, src in enumerate(names):
        for j, dst in enumerate(names):
            if j < i:
                continue
            value = rows[src][j]
            assert value is not None
            EC2_RTT_MS[(src, dst)] = value
            EC2_RTT_MS[(dst, src)] = value


_fill_table2()

#: Regions the paper singles out as having unstable networks (§IV-D).
UNSTABLE_REGIONS = frozenset({"Asia", "SA"})


def make_ec2_registry() -> SiteRegistry:
    """Build a :class:`SiteRegistry` holding the paper's eight EC2 sites."""
    registry = SiteRegistry()
    for name, region in EC2_SITES:
        registry.add(name, region)
    return registry


class LatencyModel:
    """Base class: maps (src site, dst site) to a one-way delay in ms."""

    def one_way_delay_ms(self, src: Site, dst: Site) -> float:
        raise NotImplementedError

    def nominal_one_way_ms(self, src: Site, dst: Site) -> float:
        """Jitter-free delay estimate, used for proximity-aware route setup."""
        return self.one_way_delay_ms(src, dst)

    def rtt_ms(self, src: Site, dst: Site) -> float:
        """Round-trip estimate: two independent one-way draws."""
        return self.one_way_delay_ms(src, dst) + self.one_way_delay_ms(dst, src)


class UniformLatencyModel(LatencyModel):
    """Constant one-way delay everywhere — for unit tests and microbenchmarks."""

    def __init__(self, delay_ms: float = 0.25):
        if delay_ms < 0:
            raise ValueError("delay must be non-negative")
        self.delay_ms = delay_ms

    def one_way_delay_ms(self, src: Site, dst: Site) -> float:
        return self.delay_ms


class TableIILatencyModel(LatencyModel):
    """One-way delay = RTT/2 from Table II, plus optional lognormal jitter.

    Parameters
    ----------
    rng:
        Jitter randomness source.  ``None`` disables jitter entirely, making
        delays fully deterministic.
    jitter_cv:
        Coefficient of variation of the multiplicative lognormal jitter for
        stable regions.
    unstable_jitter_cv:
        Jitter CV applied when either endpoint is in an unstable region
        (Asia / SA per the paper's §IV-D observation).
    """

    def __init__(
        self,
        rng: Optional[random.Random] = None,
        jitter_cv: float = 0.05,
        unstable_jitter_cv: float = 0.25,
    ):
        self._rng = rng
        self._jitter_cv = jitter_cv
        self._unstable_jitter_cv = unstable_jitter_cv
        #: ``(base, mu, sigma)`` per site pair, keyed by both sites' names
        #: and regions (all a draw depends on); ``sigma`` None = no jitter.
        self._pairs: Dict[Tuple[str, str, str, str],
                          Tuple[float, float, Optional[float]]] = {}

    def base_rtt_ms(self, src: Site, dst: Site) -> float:
        """The jitter-free Table II RTT for a site pair."""
        try:
            return EC2_RTT_MS[(src.name, dst.name)]
        except KeyError:
            raise KeyError(
                f"no RTT entry for ({src.name}, {dst.name}): Table II covers "
                "only the eight EC2 sites; use SyntheticLatencyModel for "
                "other site sets"
            ) from None

    def nominal_one_way_ms(self, src: Site, dst: Site) -> float:
        """Half the Table II RTT: the deterministic one-way estimate."""
        return self.base_rtt_ms(src, dst) / 2.0

    def _pair(self, src: Site, dst: Site) -> Tuple[float, float, Optional[float]]:
        """A pair's one-way base and the lognormal's ``mu`` / ``sigma``
        (mean 1, coefficient of variation the pair's region CV)."""
        base = self.nominal_one_way_ms(src, dst)
        cv = (
            self._unstable_jitter_cv
            if src.region in UNSTABLE_REGIONS or dst.region in UNSTABLE_REGIONS
            else self._jitter_cv
        )
        if self._rng is None or cv <= 0:
            return base, 0.0, None
        sigma = math.sqrt(math.log(1.0 + cv * cv))
        return base, -0.5 * sigma * sigma, sigma

    def one_way_delay_ms(self, src: Site, dst: Site) -> float:
        """RTT/2 with region-dependent lognormal jitter applied."""
        key = (src.name, src.region, dst.name, dst.region)
        params = self._pairs.get(key)
        if params is None:
            params = self._pairs[key] = self._pair(src, dst)
        base, mu, sigma = params
        if sigma is None:
            return base
        return base * self._rng.lognormvariate(mu, sigma)


class SyntheticLatencyModel(LatencyModel):
    """Latency matrix for arbitrary synthetic site sets (scaling experiments).

    Intra-site delay is constant; inter-site delay is a deterministic function
    of site distance on a ring, emulating geographic spread without requiring
    a measured matrix.
    """

    def __init__(
        self,
        n_sites: int,
        intra_site_ms: float = 0.25,
        hop_ms: float = 15.0,
        rng: Optional[random.Random] = None,
        jitter_cv: float = 0.0,
    ):
        self._n = n_sites
        self._intra = intra_site_ms
        self._hop = hop_ms
        self._rng = rng
        self._jitter_cv = jitter_cv
        #: Nominal delay by ``(src.index - dst.index) % n``: the n×n delay
        #: table is circulant (a function of that offset alone), so this
        #: one row of it is the whole table.
        self._by_offset = [self._ring_delay(offset, 0)
                           for offset in range(n_sites)]
        #: The lognormal's ``mu`` / ``sigma`` (mean 1, CV ``jitter_cv``),
        #: the same for every pair; ``sigma`` None = no jitter.
        self._sigma: Optional[float] = None
        self._mu = 0.0
        if rng is not None and jitter_cv > 0:
            self._sigma = math.sqrt(math.log(1.0 + jitter_cv**2))
            self._mu = -0.5 * self._sigma * self._sigma

    def _ring_delay(self, src_index: int, dst_index: int) -> float:
        """Intra-site delay, plus ``hop_ms`` per step of ring distance."""
        if src_index == dst_index:
            return self._intra
        ring = min(
            (src_index - dst_index) % self._n,
            (dst_index - src_index) % self._n,
        )
        return self._intra + self._hop * ring

    def nominal_one_way_ms(self, src: Site, dst: Site) -> float:
        """Deterministic one-way delay from ring distance between sites."""
        return self._by_offset[(src.index - dst.index) % self._n]

    def one_way_delay_ms(self, src: Site, dst: Site) -> float:
        """One-way delay, with optional lognormal jitter applied."""
        base = self._by_offset[(src.index - dst.index) % self._n]
        if self._sigma is None:
            return base
        return base * self._rng.lognormvariate(self._mu, self._sigma)


def mean_rtt_ms(model: LatencyModel, sites: Sequence[Site], samples: int = 32) -> Dict[Tuple[str, str], float]:
    """Empirically estimate the model's RTT for every site pair (validation)."""
    out: Dict[Tuple[str, str], float] = {}
    for src in sites:
        for dst in sites:
            total = 0.0
            for _ in range(samples):
                total += model.rtt_ms(src, dst)
            out[(src.name, dst.name)] = total / samples
    return out
