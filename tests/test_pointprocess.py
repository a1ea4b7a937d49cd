import math

import numpy as np
import pytest
from scipy.stats import kstest

from hyperperc.hypgeo import CapExceeded, ball_area
from hyperperc.percolation import voronoi_sample
from hyperperc.pointprocess import (
    ColoredPointSet,
    replica_rng,
    sample_poisson_ball,
)


def test_tiny_ball_usually_empty():
    rng = replica_rng(0, "empty", 0)
    counts = [len(sample_poisson_ball(1.0, 0.01, rng)[0]) for _ in range(500)]
    # mean count = ball_area(0.01) ~ 3e-4, so ~all samples are empty
    assert np.mean(np.array(counts) == 0) > 0.99


def test_mean_count_matches_intensity_times_area():
    mean_target = ball_area(5.0)  # lam = 1
    counts = []
    for i in range(200):
        rng = replica_rng(7, "mean-count", i)
        counts.append(len(sample_poisson_ball(1.0, 5.0, rng)[0]))
    m = np.mean(counts)
    sigma = math.sqrt(mean_target / 200.0)
    assert abs(m - mean_target) < 3 * sigma
    assert mean_target == pytest.approx(2 * math.pi * (math.cosh(5) - 1))


def test_radial_cdf_kolmogorov_smirnov():
    pooled = []
    i = 0
    while sum(len(x) for x in pooled) < 10**5:
        rng = replica_rng(11, "radial-ks", i)
        pooled.append(sample_poisson_ball(1.0, 5.0, rng)[0])
        i += 1
    rho = np.concatenate(pooled)
    cdf = lambda r: (np.cosh(r) - 1.0) / (math.cosh(5.0) - 1.0)
    stat = kstest(rho, cdf).statistic
    assert stat < 0.01


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        sample_poisson_ball(1.0, 13.0, replica_rng(0, "cap", 0))


def test_nuclei_budget_refuses_before_drawing():
    rng = replica_rng(0, "budget", 0)
    with pytest.raises(CapExceeded, match="nuclei budget"):
        sample_poisson_ball(1e9, 12.0, rng)
    # nothing was drawn: the stream still starts where a fresh one does
    assert rng.random() == replica_rng(0, "budget", 0).random()


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
def test_voronoi_sample_whites_are_the_uniforms_below_p(p):
    pts, u = voronoi_sample(1.0, 9.0, 5, "color-frac", 0, p)
    assert len(u) == len(pts) > 10**4
    assert np.array_equal(pts.white, u < p)
    assert pts.p == p
    # the marks are independent uniforms, so the white share concentrates
    assert abs(pts.white.mean() - p) <= 3 * math.sqrt(p * (1 - p) / len(u))
    # every p reads the same nuclei and uniforms
    same, v = voronoi_sample(1.0, 9.0, 5, "color-frac", 0)
    assert np.array_equal(same.rho, pts.rho) and np.array_equal(v, u)


def test_voronoi_sample_refuses_p_outside_unit_interval():
    with pytest.raises(ValueError, match="p must lie"):
        voronoi_sample(1.0, 4.0, 5, "color-frac", 0, 1.5)


def test_determinism_byte_identical():
    a, _ = voronoi_sample(1.0, 5.0, 42, "det", 3, 0.4)
    b, _ = voronoi_sample(1.0, 5.0, 42, "det", 3, 0.4)
    assert a.serialize() == b.serialize()
    c, _ = voronoi_sample(1.0, 5.0, 42, "det", 4, 0.4)
    assert a.serialize() != c.serialize()


def test_serialize_roundtrip():
    a, _ = voronoi_sample(0.7, 4.0, 9, "ser", 0, 0.3)
    b = ColoredPointSet.deserialize(a.serialize())
    assert np.array_equal(a.rho, b.rho)
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.white, b.white)
    assert (b.lam, b.p, b.R, b.seed) == (a.lam, a.p, a.R, a.seed)


def test_thinning_consistency():
    # Keeping the white points of a p-colored sample at intensity lam
    # matches direct sampling at intensity p*lam: compare mean counts and
    # pooled radial distributions over 200 replicas.
    lam, p, R = 1.0, 0.35, 5.0
    thinned_counts, direct_counts = [], []
    thinned_rho, direct_rho = [], []
    for i in range(200):
        cps, _ = voronoi_sample(lam, R, 123, "thin-a", i, p)
        thinned_counts.append(int(cps.white.sum()))
        thinned_rho.append(cps.rho[cps.white])
        rng = replica_rng(123, "thin-b", i)
        rho, _ = sample_poisson_ball(p * lam, R, rng)
        direct_counts.append(len(rho))
        direct_rho.append(rho)
    mean_target = p * lam * ball_area(R)
    sigma = math.sqrt(mean_target / 200.0)
    assert abs(np.mean(thinned_counts) - mean_target) < 3 * sigma
    assert abs(np.mean(direct_counts) - mean_target) < 3 * sigma
    ks = kstest(np.concatenate(thinned_rho), np.concatenate(direct_rho)).statistic
    assert ks < 0.015


def test_nucleus_inside_ball_invariant():
    cps, _ = voronoi_sample(1.0, 6.0, 1, "inv", 0, 0.5)
    assert np.all(cps.rho <= 6.0)
