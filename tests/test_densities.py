import math

import numpy as np
import pytest

from hyperperc.cli import make_mapper
from hyperperc.densities import (
    DensityEstimate,
    OriginNotInterior,
    density_experiment,
    origin_cell_area,
)
from hyperperc.hypgeo import HPoint
from hyperperc.hypvoronoi import Window, delaunay
from hyperperc.pointprocess import ColoredPointSet, replica_rng, sample_poisson_ball

from oracle_geo import Isometry, apply


def test_exact_identity_algebra():
    # with the closed-form densities the combination is exactly -1
    for lam in (0.3, 1.0, 2.5):
        DF = lam
        DV = 2 * lam + 1 / math.pi
        DE = 3 * lam + 3 / (2 * math.pi)
        assert 2 * math.pi * (DF - DE + DV) == pytest.approx(-1.0, abs=1e-12)


def test_origin_not_interior():
    pts = ColoredPointSet(
        rho=np.array([1.0, 1.0, 1.0]),
        theta=np.array([0.0, 2 * math.pi / 3, 4 * math.pi / 3]),
        white=np.ones(3, dtype=bool),
        lam=1.0, p=1.0, R=3.0, seed=0,
    )
    V = delaunay(pts)
    with pytest.raises(OriginNotInterior):
        origin_cell_area(V)


def test_one_replica_is_refused_before_sampling(monkeypatch):
    def refuse(*args):
        raise AssertionError("sampled a replica")

    monkeypatch.setattr("hyperperc.densities.voronoi_replica", refuse)
    with pytest.raises(ValueError, match="at least 2 replicas"):
        density_experiment(1.0, Window.with_margin(3.0), 1, 5)


@pytest.fixture(scope="module")
def est():
    return density_experiment(1.0, Window.with_margin(4.5), 40, 2024)


class TestEstimates:
    def test_edge_density_is_exactly_three_halves(self, est):
        assert est.D_E_hat == pytest.approx(1.5 * est.D_V_hat, rel=1e-12)

    def test_vertex_density_identity(self, est):
        target = 2 * 1.0 + 1 / math.pi
        assert abs(est.D_V_hat - target) < 4 * est.D_V_se

    def test_face_density_both_estimators(self, est):
        assert abs(est.D_F_hat_count - 1.0) < 4 * est.D_F_count_se
        assert abs(est.D_F_hat_inverse_area - 1.0) < 4 * est.D_F_inv_se
        est.validate()

    def test_euler_combination(self, est):
        assert abs(est.euler - (-1.0)) < 4 * est.euler_se
        assert np.isfinite(est.euler_se)

    def test_thread_pool_reproduces_the_serial_estimate(self, est):
        threaded = density_experiment(1.0, Window.with_margin(4.5), 40, 2024,
                                      mapper=make_mapper(2))
        assert threaded.to_csv() == est.to_csv()

    def test_low_intensity_euler(self):
        est = density_experiment(0.3, Window.with_margin(5.0), 40, 77)
        assert abs(est.euler - (-1.0)) < 4 * est.euler_se

    def test_csv_shape(self, est):
        lines = est.to_csv().splitlines()
        assert lines[0].startswith("lambda,R,Rw,")
        assert len(lines) == 2
        assert len(lines[1].split(",")) == len(lines[0].split(","))


def test_isometry_invariance_of_vertex_density():
    # push every sample by a fixed hyperbolic translation before
    # tessellating; stationarity keeps the windowed density unchanged
    g = Isometry.translation_to(HPoint(1.0, 0.7))
    window = Window.with_margin(4.0)

    def run(move):
        vals = []
        for rep in range(30):
            rng = replica_rng(55, "iso-check", rep)
            rho, theta = sample_poisson_ball(1.0, window.R_sample + 2.0, rng)
            if move:
                pts = [apply(g, HPoint(float(r), float(t))) for r, t in zip(rho, theta)]
                rho = np.array([p.rho for p in pts])
                theta = np.array([p.theta for p in pts])
            keep = rho <= window.R_sample
            cps = ColoredPointSet(
                rho=rho[keep], theta=theta[keep],
                white=np.ones(int(keep.sum()), dtype=bool),
                lam=1.0, p=1.0, R=window.R_sample, seed=55,
            )
            V = delaunay(cps)
            vals.append(np.count_nonzero(V.vor_rho <= window.R_window))
        return np.asarray(vals, dtype=float)

    a, b = run(False), run(True)
    se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(len(a))
    assert abs(a.mean() - b.mean()) < 4 * se


def test_euler_bias_shrinks_with_window():
    biases = []
    ses = []
    for Rw in (3.0, 4.0, 5.0):
        est = density_experiment(1.0, Window.with_margin(Rw), 40, 99)
        biases.append(abs(est.euler + 1.0))
        ses.append(est.euler_se)
    assert biases[2] <= biases[0] + 2 * math.hypot(ses[0], ses[2])
