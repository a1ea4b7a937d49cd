"""Poisson point processes with hyperbolic area measure, and the point-set
container that carries a sample's colours.

Every replica draws from its own counter-based Philox stream derived from
(master seed, experiment id, replica index), so sweeps can be farmed out
to workers in any order without losing reproducibility.  The colours are
drawn by percolation.voronoi_sample, from the same stream right after
the nuclei.
"""

from __future__ import annotations

import hashlib
import io
import math
from dataclasses import dataclass

import numpy as np

from .hypgeo import WORKING_RADIUS, CapExceeded, ball_area

# Nuclei budget of one sample, checked on the mean lam * area(R) before
# anything is drawn.  A Voronoi threshold replica peaks at about 0.8 KB
# per nucleus, so a sample at the budget needs about 1.6 GB; that is four
# times lam = 1 at the working radius (5.1e5 nuclei).
MAX_NUCLEI = 2 * 10**6


def _experiment_tag(experiment: str) -> int:
    digest = hashlib.blake2b(experiment.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def replica_rng(master_seed: int, experiment: str, replica: int) -> np.random.Generator:
    """Philox stream for one replica of one experiment.

    The stream key hashes (master seed, experiment id, replica index);
    streams for distinct replicas are independent and order-free.
    """
    ss = np.random.SeedSequence(
        entropy=[int(master_seed) & (2**64 - 1), _experiment_tag(experiment), int(replica)]
    )
    return np.random.Generator(np.random.Philox(ss))


@dataclass
class ColoredPointSet:
    """A Bernoulli-colored Poisson sample in a hyperbolic ball.

    White nuclei have intensity p*lam, black ones (1-p)*lam.
    """

    rho: np.ndarray
    theta: np.ndarray
    white: np.ndarray
    lam: float
    p: float
    R: float
    seed: int

    def __post_init__(self):
        if len(self.rho) != len(self.theta) or len(self.rho) != len(self.white):
            raise ValueError("coordinate/color arrays must have equal length")
        if self.lam <= 0:
            raise ValueError("intensity must be positive")
        if np.any(self.rho > self.R + 1e-12):
            raise ValueError("nucleus outside the sampling ball")

    def __len__(self) -> int:
        return len(self.rho)

    @property
    def disk_xy(self) -> np.ndarray:
        """Poincare disk coordinates, shape (n, 2)."""
        r = np.tanh(self.rho / 2.0)
        return np.column_stack([r * np.cos(self.theta), r * np.sin(self.theta)])

    def serialize(self) -> str:
        """Line-oriented text format: header then one `rho theta color` per line."""
        buf = io.StringIO()
        buf.write(
            "#hpp v1 lambda=%.17g p=%.17g R=%.17g seed=%d\n"
            % (self.lam, self.p, self.R, self.seed)
        )
        # %.17g of a Python float equals that of its np.float64
        rows = zip(self.rho.tolist(), self.theta.tolist(), self.white.tolist())
        buf.writelines("%.17g %.17g %s\n" % (r, t, "W" if w else "B")
                       for r, t, w in rows)
        return buf.getvalue()

    @staticmethod
    def deserialize(text: str) -> "ColoredPointSet":
        lines = text.strip().splitlines()
        head = lines[0] if lines else ""
        if not head.startswith("#hpp v1 "):
            raise ValueError("not a #hpp v1 stream")
        kv = dict(item.split("=") for item in head[len("#hpp v1 ") :].split())
        rho, theta, white = [], [], []
        for line in lines[1:]:
            r, t, c = line.split()
            rho.append(float(r))
            theta.append(float(t))
            white.append(c == "W")
        return ColoredPointSet(
            rho=np.asarray(rho),
            theta=np.asarray(theta),
            white=np.asarray(white, dtype=bool),
            lam=float(kv["lambda"]),
            p=float(kv["p"]),
            R=float(kv["R"]),
            seed=int(kv["seed"]),
        )


def check_sample_size(lam: float, R: float) -> None:
    """Refuse a sample whose mean count lam * area(R) exceeds MAX_NUCLEI."""
    mean = lam * ball_area(R)
    if not mean <= MAX_NUCLEI:
        raise CapExceeded(
            f"nuclei budget {MAX_NUCLEI} exceeded: lambda={lam:g} in a ball "
            f"of radius R={R:g} has a mean of {mean:.3g} nuclei")


def sample_poisson_ball(lam: float, R: float, rng: np.random.Generator):
    """Sample a Poisson(lam * area) point set in the hyperbolic ball of radius R.

    Radial coordinates use the exact inverse CDF
    rho = arcosh(1 + U (cosh R - 1)); angles are independent uniforms.
    Returns (rho, theta) arrays.
    """
    if lam <= 0:
        raise ValueError("intensity must be positive")
    if not 0 < R <= WORKING_RADIUS:
        raise CapExceeded(f"R must lie in (0, {WORKING_RADIUS}]")
    check_sample_size(lam, R)
    n = rng.poisson(lam * ball_area(R))
    u = rng.random(n)
    rho = np.arccosh(1.0 + u * (math.cosh(R) - 1.0))
    theta = rng.random(n) * 2.0 * math.pi
    return rho, theta
