"""Vertex, edge, and face densities of the Poisson-Voronoi tessellation.

Densities are per unit hyperbolic area, estimated by counting inside a
window ball of radius R_window strictly inside the sampling ball.  The
face density is estimated twice, by counting nuclei and by the mean
inverse area of the cell containing the origin; the two must agree (the
origin lands in a cell with probability proportional to its area, so the
inverse-area mean undoes exactly that size bias).  That cell is the one
of the nucleus nearest the origin; its area is the Gauss-Bonnet area of
its outline (hypvoronoi.cell_outline), the polygon of its Voronoi
vertices.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .hypgeo import InvalidInput, NumericFailure, ball_area, polygon_area
from .hypvoronoi import VoronoiComplex, Window, cell_outline
from .percolation import voronoi_replica
from .pointprocess import check_sample_size


class OriginNotInterior(NumericFailure):
    """Raised when the cell containing the origin is boundary-masked."""


@dataclass
class DensityEstimate:
    """Windowed density estimates with per-replica standard errors."""

    lam: float
    window: Window
    replicas_used: int
    replicas_discarded: int
    D_V_hat: float
    D_V_se: float
    D_E_hat: float
    D_E_se: float
    D_F_hat_count: float
    D_F_count_se: float
    D_F_hat_inverse_area: float
    D_F_inv_se: float
    euler: float               # 2*pi*(D_F - D_E + D_V): exactly -1 for any lam
    euler_se: float
    seed: int = 0

    def cross_check_sigma(self) -> float:
        """Distance between the two face-density estimators in sigmas."""
        se = math.hypot(self.D_F_count_se, self.D_F_inv_se)
        return abs(self.D_F_hat_count - self.D_F_hat_inverse_area) / se

    def validate(self) -> None:
        """Raise when the two face-density estimators differ by over 4 sigma."""
        s = self.cross_check_sigma()
        if s > 4.0:
            raise NumericFailure(
                f"face-density estimators disagree by {s:.1f} sigma"
            )

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("lambda,R,Rw,replicas,DV,DV_se,DE,DF_count,DF_inv,"
                  "euler,euler_se,seed\n")
        buf.write(
            "%g,%g,%g,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%d\n"
            % (
                self.lam, self.window.R_sample, self.window.R_window,
                self.replicas_used, self.D_V_hat, self.D_V_se, self.D_E_hat,
                self.D_F_hat_count, self.D_F_hat_inverse_area, self.euler,
                self.euler_se, self.seed,
            )
        )
        return buf.getvalue()


def origin_cell_area(V: VoronoiComplex) -> float:
    """Area of the Voronoi cell containing the origin.

    The origin lies in the cell of its nearest nucleus; raises
    OriginNotInterior when that cell is boundary-masked.
    """
    i = int(np.argmin(V.points.rho))
    if not V.interior_mask[i]:
        raise OriginNotInterior("origin cell is boundary-masked")
    return polygon_area(cell_outline(V, V.points.disk_xy, i))


def density_experiment(lam: float, window: Window, replicas: int,
                       master_seed: int, mapper=map) -> DensityEstimate:
    """Sample `replicas` tessellations and estimate their densities.

    Counting uses nucleus/vertex positions only; replicas whose origin
    cell is boundary-masked contribute counts but no inverse-area sample
    and are flagged as discarded for that estimator.  mapper is any
    order-preserving map over the replica indices.  The replica count
    and the sample are checked before the first replica.
    """
    if replicas < 2:
        raise InvalidInput(f"densities need at least 2 replicas for their "
                           f"standard errors, got {replicas}")
    check_sample_size(lam, window.R_sample)

    def one(rep):
        V, _ = voronoi_replica(lam, window, master_seed,
                               f"densities-lam{lam:g}", rep)
        n_vv = int(np.count_nonzero(V.vor_rho <= window.R_window))
        n_nuclei = int(np.count_nonzero(V.points.rho <= window.R_window))
        try:
            return n_vv, n_nuclei, 1.0 / origin_cell_area(V)
        except OriginNotInterior:
            return n_vv, n_nuclei, None

    area = ball_area(window.R_window)
    dv, de, df, inv_a = [], [], [], []
    discarded = 0
    for n_vv, n_nuclei, inv in mapper(one, range(replicas)):
        dv.append(n_vv / area)
        # every Voronoi vertex of a generic Poisson sample has degree 3
        de.append(3 * n_vv / (2 * area))
        df.append(n_nuclei / area)
        if inv is None:
            discarded += 1
        else:
            inv_a.append(inv)
    if len(inv_a) < 2:
        raise OriginNotInterior(
            f"origin cell interior in {len(inv_a)} of {replicas} replicas; "
            f"the inverse-area estimate needs 2")
    dv = np.asarray(dv)
    de = np.asarray(de)
    df = np.asarray(df)
    inv_a = np.asarray(inv_a)
    euler_per_rep = 2.0 * math.pi * (df - de + dv)

    def se(x):
        return float(x.std(ddof=1) / math.sqrt(len(x)))

    return DensityEstimate(
        lam=lam,
        window=window,
        replicas_used=len(dv),
        replicas_discarded=discarded,
        D_V_hat=float(dv.mean()),
        D_V_se=se(dv),
        D_E_hat=float(de.mean()),
        D_E_se=se(de),
        D_F_hat_count=float(df.mean()),
        D_F_count_se=se(df),
        D_F_hat_inverse_area=float(inv_a.mean()),
        D_F_inv_se=se(inv_a),
        euler=float(euler_per_rep.mean()),
        euler_se=se(euler_per_rep),
        seed=master_seed,
    )
