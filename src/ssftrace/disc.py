"""Harmonic extension to the unit disc and the Jacobian trace pairing.

A two-sided coefficient table extends into the disc as
f~(z) = c_0 + sum c_(-n) zbar^n + sum c_n z^n.  The Jacobian pairing of
two such extensions integrates over discs of radius R < 1 (measure
convention dz ^ dzbar = -2i dx dy) and converges, as R -> 1, to
2*pi*i * sum n psi_hat(n) xi_hat(-n) -- the same number as the trace of
the two-sided functional-calculus difference.

The quadrature takes xi's ring derivatives once per radius for every table,
each ring derivative an inverse FFT of its scaled coefficients by
``ssf.uniform_trig_values``, and sums the Jacobian on the grid, never from
the coefficients (Parseval): that is the closed form.
The angular rule sums each ring exactly, and against tables of order <= K
only xi's modes |n| <= K survive the sum, each as r^(2|n| - 2); so r times a
ring sum is a polynomial of degree 2K - 1 in r, which K Gauss-Legendre nodes
integrate exactly (Davis & Rabinowitz, Methods of Numerical Integration, 2.7).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import ClassVar

import numpy as np

from .calculus import laurent_difference_trace
from .errors import InsufficientCoefficientsError, InvalidRadiusError
from .linops import ContractionPair
from .ssf import LaurentSeries, uniform_trig_values


@dataclass(frozen=True)
class DiscQuadratureConfig:
    """Angular rule and radius schedule for the disc integrals.  The angular rule is
    fixed; the radial rule is sized to the tables, ``radial_nodes(order)``."""

    angular_nodes: ClassVar[int] = 1024
    radius_schedule: tuple[float, ...] = (0.5, 0.8, 0.9, 0.99, 1.0 - 1e-3)

    def __post_init__(self):
        rs = self.radius_schedule
        if not rs or any(b <= a for a, b in zip(rs, rs[1:])):
            raise ValueError("radius_schedule must be strictly increasing")
        if not all(0.0 < r < 1.0 for r in rs):
            raise ValueError("radius_schedule must stay inside (0, 1)")

    @property
    def max_order(self) -> int:
        """Largest table order the angular rule resolves: 4 (2 order + 1) <= angular_nodes."""
        return (self.angular_nodes // 4 - 1) // 2

    def check_resolves(self, order: int):
        """Angular rule 4x the table length, 4 (2 order + 1) <= angular_nodes, kills aliasing."""
        if order > self.max_order:
            raise ValueError(f"{self.angular_nodes} angular nodes cannot resolve "
                             f"a table of order {order}")


@dataclass(frozen=True)
class DiscPairingReport:
    per_radius: tuple[tuple[float, complex, complex], ...]
    lhs_trace: complex
    tail_bound: float

    def final_gap(self) -> float:
        return abs(self.per_radius[-1][2] - self.lhs_trace)


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


def _ring_wirtinger(table: LaurentSeries, r: np.ndarray, M: int):
    """(d/dz, d/dzbar) of the extension on the rings r * e^(2*pi*i*j/M), j < M, as two
    distinct (len(r), M) arrays: d/dz = sum n c_n r^(n-1) e^(i(n-1)t) on the modes
    n - 1, and d/dzbar, with c_(-n), on the modes 1 - n."""
    n = np.arange(1, table.order + 1)
    scale = n * r[:, None] ** (n - 1)
    return (uniform_trig_values(n - 1, scale * table.coeffs[table.order + n], M),
            uniform_trig_values(1 - n, scale * table.coeffs[table.order - n], M))


def _ring_sums(xz, xzb, psi, r, M) -> np.ndarray:
    """Per-ring sums of J = xz * dpsi/dzbar - dpsi/dz * xzb; psi's grids are freed on return."""
    pz, pzb = _ring_wirtinger(psi, r, M)
    # the row dot products as one batched matmul each
    return (xz[:, None, :] @ pzb[:, :, None] - pz[:, None, :] @ xzb[:, :, None])[:, 0, 0]


def _quadratures(xi, psis, radii, cfg: DiscQuadratureConfig) -> list[list[complex]]:
    """Jacobian quadrature of xi against each of ``psis``, a row per radius: Gauss-Legendre
    radially, sized to the largest table, trapezoid angularly, -2i for dz ^ dzbar.  xi's
    ring derivatives are taken once per radius for every table."""
    cfg.check_resolves(max(table.order for table in [xi, *psis]))
    x, w = legendre_rule(radial_nodes(max(psi.order for psi in psis)))
    M = cfg.angular_nodes
    dt = 2.0 * np.pi / M
    rows = []
    for R in radii:
        r, wr = R * (x + 1.0) / 2.0, w * R / 2.0
        xz, xzb = _ring_wirtinger(xi, r, M)
        rows.append([complex(-2j * np.sum(wr * r * (_ring_sums(xz, xzb, psi, r, M) * dt)))
                     for psi in psis])
    return rows


def _paired_modes(xi, psi):
    """(n, psi_hat(n), xi_hat(-n)) as arrays over the nonzero modes n of psi that xi holds."""
    k = np.arange(1, min(psi.order, xi.order) + 1)
    n = np.concatenate([k, -k])
    return n, psi.coeffs[psi.order + n], xi.coeffs[xi.order - n]


def disc_integral_closed_form(xi, psi, R: float) -> complex:
    """2*pi*i * sum_{n != 0} n psi_hat(n) xi_hat(-n) R^(2|n|); R = 1 is the limit value."""
    if not 0.0 < R <= 1.0:
        raise InvalidRadiusError(f"R must lie in (0, 1], got {R}")
    n, p, x = _paired_modes(xi, psi)
    return complex(2j * np.pi * np.sum(n * p * x * R ** (2 * np.abs(n))))


def disc_tail_bound(xi, psi, R: float) -> float:
    """2*pi * sum |n psi_hat(n) xi_hat(-n)| (1 - R^(2|n|)): gap to the R -> 1 limit."""
    n, p, x = _paired_modes(xi, psi)
    return 2.0 * np.pi * float(np.sum(np.abs(np.abs(n) * p * x) * (1.0 - R ** (2 * np.abs(n)))))


def verify_disc_trace_formula(pair: ContractionPair, xi: LaurentSeries, psis: list[LaurentSeries],
                              cfg: DiscQuadratureConfig) -> list[DiscPairingReport]:
    """Both routes of the disc trace formula on one pair, one report per table of ``psis``;
    ``xi`` is the shift function of ``pair``, its order reaching every table's."""
    order = max((psi.order for psi in psis), default=0)
    if order > xi.order:
        raise InsufficientCoefficientsError(
            f"table order {order} exceeds coefficient table order {xi.order}")
    radii = cfg.radius_schedule
    per_table = zip(*_quadratures(xi, psis, radii, cfg))
    return [DiscPairingReport(
        per_radius=tuple((float(R), q, disc_integral_closed_form(xi, psi, R))
                         for R, q in zip(radii, quads)),
        lhs_trace=laurent_difference_trace(pair, psi),
        tail_bound=disc_tail_bound(xi, psi, radii[-1])) for psi, quads in zip(psis, per_table)]
