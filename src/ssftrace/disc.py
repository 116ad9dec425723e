"""Harmonic extension to the unit disc and the Jacobian trace pairing.

A two-sided coefficient table extends into the disc as
f~(z) = c_0 + sum c_(-n) zbar^n + sum c_n z^n.  The Jacobian pairing of
two such extensions integrates over discs of radius R < 1 (measure
convention dz ^ dzbar = -2i dx dy) and converges, as R -> 1, to
2*pi*i * sum n psi_hat(n) xi_hat(-n) -- the same number as the trace of
the two-sided functional-calculus difference, within ``disc_tail_bound`` at R.
At R = sqrt(r) the closed form is the circle pairing's Abel mean at radius r,
which the circle quadrature sums on its grid.

The quadrature sums the Jacobian on a polar grid of K radial x
``angular_nodes(order)`` angular nodes per radius, never from the coefficients
(Parseval): that is the closed form.  It is one batched pass: every Gauss ring
goes on the batch axis of ``ssf.uniform_trig_values``, so xi's two ring
derivatives and the stacked tables' two are one inverse FFT each per chunk of
radii, a chunk holding at most CHUNK_POINTS grid points per transform.
Against tables of order <= K only xi's modes |n| <= K survive a ring's angular
sum, each as r^(2|n| - 2), so ``stack_tables`` cuts xi to order K; both rules
then depend on K alone.  The angular rule sums each ring exactly, and r times a
ring sum is a polynomial of degree 2K - 1 in r, which K Gauss-Legendre nodes
integrate exactly (Davis & Rabinowitz, Methods of Numerical Integration, 2.7).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import ClassVar

import numpy as np

from .errors import InvalidRadiusError
from .ssf import stack_tables, uniform_trig_values

# grid points of one batched ring transform: a table of order 127 gets one radius per chunk
CHUNK_POINTS = 127 * 1024


@dataclass(frozen=True)
class DiscQuadratureConfig:
    """Radius schedule for the disc integrals; both rules are sized to the tables,
    ``radial_nodes(order)`` and ``angular_nodes(order)``."""

    # allocation cap on a table's order, checked before a --psi table is built
    max_order: ClassVar[int] = 127
    radius_schedule: tuple[float, ...] = (0.5, 0.8, 0.9, 0.99, 1.0 - 1e-3)

    def __post_init__(self):
        rs = self.radius_schedule
        if not rs or any(b <= a for a, b in zip(rs, rs[1:])):
            raise ValueError("radius_schedule must be strictly increasing")
        if not all(0.0 < r < 1.0 for r in rs):
            raise ValueError("radius_schedule must stay inside (0, 1)")


@cache
def legendre_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per node count."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def radial_nodes(order: int) -> int:
    """Gauss-Legendre nodes per radius against tables of order <= K = ``order``: K
    nodes are exact to degree 2K - 1, the degree of r times a ring sum; at least one."""
    return max(1, order)


def angular_nodes(order: int) -> int:
    """Trapezoid nodes per disc ring and on the circle grid, against tables and xi cut to
    ``order``: 4 (2 order + 1), more than 2 order, the degree of a ring's Jacobian and of
    phi' xi_r, so the rule sums both exactly (Trefethen & Weideman, SIAM Rev. 56, 2014)."""
    return 4 * (2 * order + 1)


def _ring_wirtinger(coeffs: np.ndarray, r: np.ndarray, M: int):
    """(d/dz, d/dzbar) of the extensions of the centered tables ``coeffs``, (..., 2K + 1),
    on the rings r * e^(2*pi*i*j/M), j < M, as two distinct (..., len(r), M) arrays:
    d/dz = sum n c_n r^(n-1) e^(i(n-1)t) on the modes n - 1, and d/dzbar, with c_(-n),
    on the modes 1 - n."""
    K = (coeffs.shape[-1] - 1) // 2
    n = np.arange(1, K + 1)
    scale = n * r[:, None] ** (n - 1)
    return (uniform_trig_values(n - 1, coeffs[..., None, K + n] * scale, M),
            uniform_trig_values(1 - n, coeffs[..., None, K - n] * scale, M))


def _ring_sums(xi_grids, psi_grids) -> np.ndarray:
    """Per-ring sums of J = xz * dpsi/dzbar - dpsi/dz * xzb, (tables, rings), from xi's
    (rings, M) grids and the stacked tables' (tables, rings, M) grids."""
    (xz, xzb), (pz, pzb) = xi_grids, psi_grids
    # the row dot products as one batched matmul each
    return (pzb[..., None, :] @ xz[..., None] - pz[..., None, :] @ xzb[..., None])[..., 0, 0]


def quadrature(xi, psis, radii) -> np.ndarray:
    """Jacobian quadrature of xi against each of ``psis`` at each of ``radii``, a (tables,
    radii) array: Gauss-Legendre radially and trapezoid angularly, both sized to the
    tables, -2i for dz ^ dzbar.  ``stack_tables`` pads and stacks the tables and cuts xi
    to their largest order (InsufficientCoefficientsError if xi holds fewer modes)."""
    stacked, xi = stack_tables(psis, xi)
    x, w = legendre_rule(radial_nodes(xi.order))
    M = angular_nodes(xi.order)
    R = np.asarray(radii, dtype=float)[:, None]
    r = (R * (x + 1.0) / 2.0).ravel()  # the rings, radius-major
    weights = (w * R / 2.0).ravel() * r * (2.0 * np.pi / M)
    step = len(x) * max(1, CHUNK_POINTS // (len(psis) * len(x) * M))
    sums = np.concatenate([
        _ring_sums(_ring_wirtinger(xi.coeffs, r[i:i + step], M),
                   _ring_wirtinger(stacked, r[i:i + step], M))
        for i in range(0, len(r), step)], axis=1)
    return -2j * (sums * weights).reshape(len(psis), len(R), len(x)).sum(axis=-1)


def _paired_modes(xi, psi):
    """(n, psi_hat(n), xi_hat(-n)) as arrays over the nonzero modes n of psi that xi holds."""
    k = np.arange(1, min(psi.order, xi.order) + 1)
    n = np.concatenate([k, -k])
    return n, psi.coeffs[psi.order + n], xi.coeffs[xi.order - n]


def disc_integral_closed_form(xi, psi, R):
    """2*pi*i * sum_{n != 0} n psi_hat(n) xi_hat(-n) R^(2|n|), R = 1 the limit value, as a
    complex array of R's shape: one value per radius of an array, 0-d for a float."""
    R = np.asarray(R, dtype=float)
    if not np.all((0.0 < R) & (R <= 1.0)):
        raise InvalidRadiusError(f"R must lie in (0, 1], got {R}")
    n, p, x = _paired_modes(xi, psi)
    return 2j * np.pi * np.sum(n * p * x * R[..., None] ** (2 * np.abs(n)), axis=-1)


def disc_tail_bound(xi, psi, R: float) -> float:
    """2*pi * sum |n psi_hat(n) xi_hat(-n)| (1 - R^(2|n|)): a bound on closed(R) - closed(1)."""
    n, p, x = _paired_modes(xi, psi)
    return 2.0 * np.pi * float(np.sum(np.abs(np.abs(n) * p * x) * (1.0 - R ** (2 * np.abs(n)))))

