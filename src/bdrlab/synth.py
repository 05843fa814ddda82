"""Synthetic 1D signal generation: signed distance fields, kernel features, noise.

Everything here is pure given (inputs, seed). Positions live on a uniform
grid t_i = i * stride (frames); all widths and distances are in frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid: T positions spaced stride frames apart."""

    stride: float
    num_positions: int

    def __post_init__(self):
        if not (np.isfinite(self.stride) and self.stride > 0):
            raise ValueError("stride must be finite and positive")
        if self.num_positions < 2:
            raise ValueError("num_positions must be >= 2")

    def times(self) -> np.ndarray:
        return np.arange(self.num_positions) * self.stride

    @property
    def duration(self) -> float:
        return self.num_positions * self.stride


@dataclass(frozen=True)
class NoiseSpec:
    """Marginal noise family plus optional AR(1) temporal correlation.

    family: "laplace" (scale b), "gaussian" (sigma), "student_t" (nu, scale).
    The AR(1) recursion is variance preserving, so rho only changes the
    dependence structure, not the marginal power.
    """

    family: str = "laplace"
    scale: float = 0.5
    rho: float = 0.0
    nu: float = 3.0

    def __post_init__(self):
        if self.family not in ("laplace", "gaussian", "student_t"):
            raise ValueError(f"unknown noise family: {self.family}")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must be in [0, 1)")
        if not (np.isfinite(self.scale) and self.scale >= 0):
            raise ValueError("scale must be finite and >= 0")
        if not (np.isfinite(self.nu) and self.nu > 0):
            raise ValueError("nu must be finite and positive")


def make_distance_field(grid: TimeGrid, boundaries) -> np.ndarray:
    """Signed distance d(t_i) = t_i - (nearest boundary).

    Ties at equidistant points resolve to the earlier boundary.
    """
    b = np.sort(np.asarray(boundaries, dtype=float))
    if b.size == 0:
        raise ValueError("no boundaries")
    if not np.all(np.isfinite(b)):
        raise ValueError("boundaries must be finite")
    t = grid.times()
    # argmin returns the first minimal index; with boundaries sorted this
    # realises the earlier-boundary tie rule.
    idx = np.abs(t[:, None] - b[None, :]).argmin(axis=1)
    return t - b[idx]


def make_kernel_features(grid: TimeGrid, center, kappa: float) -> np.ndarray:
    """Gaussian bump exp(-(t-center)^2 / (2 kappa^2)), peak 1 at the center.

    A scalar center gives one row of T values; an array of centers gives
    one row per center.
    """
    if not (np.isfinite(kappa) and kappa > 0):
        raise ValueError("kappa must be finite and positive")
    c = np.asarray(center, dtype=float)[..., None]
    if not np.all(np.isfinite(c)):
        raise ValueError("centers must be finite")
    t = grid.times()
    return np.exp(-((t - c) ** 2) / (2.0 * kappa**2))


def _apply_ar1(eta: np.ndarray, rho: float) -> np.ndarray:
    """Variance-preserving AR(1) along the last axis:
    x[0] = eta[0], x[i] = rho x[i-1] + sqrt(1 - rho^2) eta[i]."""
    if rho == 0.0:
        return eta
    rho = float(rho)
    c = float(np.sqrt(1.0 - rho**2))
    if eta.ndim == 1 or len(eta) == 1:
        # one series: step through a memoryview, which reads and writes plain
        # Python floats; indexing the array builds a numpy scalar or view per
        # step, which costs far more than the arithmetic, and a list of
        # floats would hold four times the array's memory
        out = np.array(eta, dtype=float)
        x = memoryview(out.reshape(-1))
        prev = x[0] if len(x) else 0.0
        for i in range(1, len(x)):
            prev = x[i] = rho * prev + c * x[i]
        return out
    out = np.empty_like(eta)
    out[..., 0] = eta[..., 0]
    for i in range(1, eta.shape[-1]):
        out[..., i] = rho * out[..., i - 1] + c * eta[..., i]
    return out


def sample_noise_matrix(spec: NoiseSpec, seed, rows: int, count: int) -> np.ndarray:
    """`rows` independent noise rows of `count` values, drawn row-major in one
    call by np.random.default_rng(seed) before AR(1) runs along each row.

    Row k is the k-th row of the seed's stream, so fewer rows are a prefix of
    more; a row cannot be drawn without the rows before it.
    """
    rng, shape = np.random.default_rng(seed), (rows, count)
    if spec.family == "laplace":
        eta = rng.laplace(0.0, spec.scale, size=shape)
    elif spec.family == "gaussian":
        eta = rng.normal(0.0, spec.scale, size=shape)
    else:
        eta = spec.scale * rng.standard_t(spec.nu, size=shape)
    return _apply_ar1(eta, spec.rho)
