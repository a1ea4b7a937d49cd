import math

import numpy as np
import pytest
from scipy.stats import kstest

from hyperperc.hypgeo import CapExceeded, ball_area
from hyperperc.pointprocess import (
    ColoredPointSet,
    color,
    replica_rng,
    sample_colored,
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


def test_color_extremes():
    rng = replica_rng(3, "color", 0)
    rho, theta = sample_poisson_ball(1.0, 4.0, rng)
    all_white = color(rho, theta, 1.0, rng, lam=1.0, R=4.0)
    assert all_white.white.all()
    all_black = color(rho, theta, 0.0, rng, lam=1.0, R=4.0)
    assert not all_black.white.any()


def test_color_binomial_concentration():
    n = 10**5
    rng = replica_rng(5, "color-frac", 0)
    cps = color(np.zeros(n), np.zeros(n), 0.5, rng, lam=1.0, R=1.0)
    frac = cps.white.mean()
    assert abs(frac - 0.5) < 3 * 0.5 / math.sqrt(n)


def test_determinism_byte_identical():
    a = sample_colored(1.0, 0.4, 5.0, master_seed=42, experiment="det", replica=3)
    b = sample_colored(1.0, 0.4, 5.0, master_seed=42, experiment="det", replica=3)
    assert a.serialize() == b.serialize()
    c = sample_colored(1.0, 0.4, 5.0, master_seed=42, experiment="det", replica=4)
    assert a.serialize() != c.serialize()


def test_serialize_roundtrip():
    a = sample_colored(0.7, 0.3, 4.0, master_seed=9, experiment="ser", replica=0)
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
        cps = sample_colored(lam, p, R, master_seed=123, experiment="thin-a", replica=i)
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
    cps = sample_colored(1.0, 0.5, 6.0, master_seed=1, experiment="inv", replica=0)
    assert np.all(cps.rho <= 6.0)
