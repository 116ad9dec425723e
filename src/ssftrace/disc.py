"""Harmonic extension to the unit disc and the Jacobian trace pairing.

A two-sided coefficient table extends into the disc as
f~(z) = c_0 + sum c_(-n) zbar^n + sum c_n z^n.  The Jacobian pairing of
two such extensions integrates over discs of radius R < 1 (measure
convention dz ^ dzbar = -2i dx dy) and converges, as R -> 1, to
2*pi*i * sum n psi_hat(n) xi_hat(-n) -- the same number as the trace of
the two-sided functional-calculus difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

from .calculus import laurent_difference_trace
from .errors import (InsufficientCoefficientsError, InvalidRadiusError,
                     OutsideOpenDiscError, RequiresStrictContractionError)
from .linops import ContractionPair, DELTA_MIN
from .ssf import LaurentSeries

BOUNDARY_GUARD = 1e-6


@dataclass(frozen=True)
class DiscQuadratureConfig:
    """Polar grid and radius schedule for the disc integrals."""

    radial_nodes: int = 64
    angular_nodes: int = 1024
    radius_schedule: tuple[float, ...] = (0.5, 0.8, 0.9, 0.99, 1.0 - 1e-3)

    def __post_init__(self):
        if self.radial_nodes < 1:
            raise ValueError("radial_nodes must be >= 1")
        m = self.angular_nodes
        if m < 4 or (m & (m - 1)) != 0:
            raise ValueError(f"angular_nodes must be a power of two >= 4, got {m}")
        rs = self.radius_schedule
        if not rs or any(b <= a for a, b in zip(rs, rs[1:])):
            raise ValueError("radius_schedule must be strictly increasing")
        if not (0.0 < rs[0] and rs[-1] < 1.0):
            raise ValueError("radius_schedule must stay inside (0, 1)")

    @cached_property
    def radial_rule(self) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Legendre nodes and weights on [-1, 1], built once per config."""
        x, w = np.polynomial.legendre.leggauss(self.radial_nodes)
        x.flags.writeable = w.flags.writeable = False
        return x, w

    @property
    def max_order(self) -> int:
        """Largest table order the angular rule resolves: 4 (2 order + 1) <= angular_nodes."""
        return (self.angular_nodes // 4 - 1) // 2

    def check_resolves(self, order: int):
        """Angular rule must be at least 4x the table length to kill aliasing.

        It also keeps the zero-padded ring FFT of the quadrature from
        truncating: ``fft(..., n=angular_nodes)`` drops modes beyond
        ``angular_nodes`` without an error.
        """
        if order > self.max_order:
            raise ValueError(
                f"{self.angular_nodes} angular nodes cannot resolve a table "
                f"of order {order}")


@dataclass(frozen=True)
class DiscPairingReport:
    per_radius: tuple[tuple[float, complex, complex], ...]
    lhs_trace: complex
    tail_bound: float

    def final_gap(self) -> float:
        _, _, closed = self.per_radius[-1]
        return abs(closed - self.lhs_trace)


@dataclass(frozen=True)
class FatouReport:
    radii: tuple[float, ...]
    sup_differences: tuple[float, ...]
    fitted_constants: tuple[float, ...]
    coefficient_bound: float  # sum |n c_n|, the Lipschitz constant in (1 - r)


def poisson_extend(table: LaurentSeries, z: complex) -> complex:
    """Harmonic extension c_0 + sum c_(-n) zbar^n + sum c_n z^n at |z| < 1."""
    order, c = table.order, table.coeffs
    z = complex(z)
    if abs(z) > 1.0 - BOUNDARY_GUARD:
        raise OutsideOpenDiscError(f"|z| = {abs(z)} is outside the guarded disc")
    pos = c[order + 1:]
    neg = c[order - 1::-1]  # index n-1 holds c_(-n)
    val = c[order]
    if order >= 1:
        val = val + z * npoly.polyval(z, pos) + np.conj(z) * npoly.polyval(np.conj(z), neg)
    return complex(val)


def kernel_expansion_check(z: complex, t_grid, n_trunc: int) -> float:
    """Max error of the truncated geometric expansion of the Poisson kernel."""
    z = complex(z)
    if abs(z) > 0.95:
        raise ValueError(f"|z| = {abs(z)} exceeds 0.95")
    t = np.asarray(t_grid, dtype=float)
    direct = (1.0 - abs(z) ** 2) / np.abs(np.exp(1j * t) - z) ** 2
    w = np.conj(z) * np.exp(1j * t)
    partial = np.ones_like(t, dtype=complex)
    wp = np.ones_like(t, dtype=complex)
    for _ in range(n_trunc):
        wp = wp * w
        partial = partial + wp
    expansion = 2.0 * partial.real - 1.0  # 1 + 2 Re sum_{n>=1} (zbar e^{it})^n
    return float(np.abs(direct - expansion).max())


def fatou_check(s: LaurentSeries, r_schedule, t_grid,
                strictness_margin: float) -> FatouReport:
    """Radial convergence of the extension toward the boundary series.

    Requires a strict-strict pair (caller passes the smaller of the two
    strictness margins): only then do the coefficients decay
    geometrically and the boundary series define a continuous function.
    """
    if strictness_margin < DELTA_MIN:
        raise RequiresStrictContractionError(
            f"strictness margin {strictness_margin} below {DELTA_MIN}; no "
            "continuous boundary representative is guaranteed")
    t = np.asarray(t_grid, dtype=float)
    n = np.arange(-s.order, s.order + 1)
    modes = np.exp(1j * np.outer(t, n))
    boundary = modes @ s.coeffs
    sups = []
    cs = []
    for r in r_schedule:
        if not 0.0 < r < 1.0:
            raise ValueError(f"radii must lie in (0, 1), got {r}")
        sup = float(np.abs(modes @ (s.coeffs * r ** np.abs(n)) - boundary).max())
        sups.append(sup)
        cs.append(sup / (1.0 - r))
    return FatouReport(radii=tuple(float(r) for r in r_schedule),
                       sup_differences=tuple(sups),
                       fitted_constants=tuple(cs),
                       coefficient_bound=s.weighted_norm)


def _wirtinger(table: LaurentSeries, z, conjugate: bool):
    """d/dz (conjugate=False) or d/dzbar (True) of the extension; z may be an array."""
    order, c = table.order, table.coeffs
    if order < 1:
        return np.zeros_like(np.asarray(z, dtype=complex))
    n = np.arange(1, order + 1)
    if conjugate:
        coef = n * c[order - 1::-1]
        return npoly.polyval(np.conj(np.asarray(z, dtype=complex)), coef)
    coef = n * c[order + 1:]
    return npoly.polyval(np.asarray(z, dtype=complex), coef)


def _ring_wirtinger(table: LaurentSeries, r: np.ndarray, M: int):
    """(d/dz, d/dzbar) of the extension on the rings r * e^(2*pi*i*j/M), j < M.

    On each ring both derivatives are trigonometric polynomials in the
    angle: d/dz = sum n c_n r^(n-1) e^(i(n-1)t) is one inverse FFT and
    d/dzbar = sum n c_(-n) r^(n-1) e^(-i(n-1)t) one forward FFT of the
    scaled coefficients, each of shape (len(r), M).  Needs order <= M.
    """
    order, c = table.order, table.coeffs
    if order < 1:
        zero = np.zeros((len(r), M), dtype=complex)
        return zero, zero
    n = np.arange(1, order + 1)
    scale = r[:, None] ** (n - 1)
    dz = M * np.fft.ifft(scale * (n * c[order + 1:]), n=M, axis=1)
    dzbar = np.fft.fft(scale * (n * c[order - 1::-1]), n=M, axis=1)
    return dz, dzbar


def jacobian_at(xi, psi, z: complex) -> complex:
    """J = (d xi/dz)(d psi/dzbar) - (d psi/dz)(d xi/dzbar) at a point of the disc."""
    z = complex(z)
    if abs(z) > 1.0 - BOUNDARY_GUARD:
        raise OutsideOpenDiscError(f"|z| = {abs(z)} is outside the guarded disc")
    return complex(_wirtinger(xi, z, False) * _wirtinger(psi, z, True)
                   - _wirtinger(psi, z, False) * _wirtinger(xi, z, True))


def disc_integral_quadrature(xi, psi, R: float,
                             cfg: DiscQuadratureConfig | None = None) -> complex:
    """Quadrature of the Jacobian over the disc of radius R.

    Gauss-Legendre radially, uniform trapezoid angularly; the -2i factor
    converts dz ^ dzbar to the planar measure.  The derivatives come from
    one FFT per ring, but the Jacobian is formed and summed pointwise on
    the grid, never paired coefficient by coefficient: that pairing is
    ``disc_integral_closed_form``, the route this one checks.
    """
    if not 0.0 < R < 1.0:
        raise InvalidRadiusError(f"R must lie in (0, 1), got {R}")
    cfg = cfg or DiscQuadratureConfig()
    cfg.check_resolves(max(xi.order, psi.order))

    x, w = cfg.radial_rule
    r = R * (x + 1.0) / 2.0
    wr = w * R / 2.0
    xz, xzb = _ring_wirtinger(xi, r, cfg.angular_nodes)
    pz, pzb = _ring_wirtinger(psi, r, cfg.angular_nodes)

    J = xz * pzb - pz * xzb
    angular = J.sum(axis=1) * (2.0 * np.pi / cfg.angular_nodes)
    return complex(-2j * np.sum(wr * r * angular))


def _paired_modes(xi, psi):
    """(n, psi_hat(n), xi_hat(-n)) for each nonzero mode n of psi that xi holds."""
    for k in range(1, min(psi.order, xi.order) + 1):
        for n in (k, -k):
            yield n, psi.coeffs[psi.order + n], xi.coeffs[xi.order - n]


def disc_integral_closed_form(xi, psi, R: float) -> complex:
    """2*pi*i * sum_{n != 0} n psi_hat(n) xi_hat(-n) R^(2|n|); R = 1 is the limit value."""
    if not 0.0 < R <= 1.0:
        raise InvalidRadiusError(f"R must lie in (0, 1], got {R}")
    total = 0.0 + 0.0j
    for n, p, x in _paired_modes(xi, psi):
        total += n * p * x * R ** (2 * abs(n))
    return complex(2j * np.pi * total)


def disc_tail_bound(xi, psi, R: float) -> float:
    """2*pi * sum |n psi_hat(n) xi_hat(-n)| (1 - R^(2|n|)): gap to the R -> 1 limit."""
    total = 0.0
    for n, p, x in _paired_modes(xi, psi):
        total += abs(abs(n) * p * x) * (1.0 - R ** (2 * abs(n)))
    return 2.0 * np.pi * total


def verify_disc_trace_formula(pair: ContractionPair, xi: LaurentSeries, psi: LaurentSeries,
                              cfg: DiscQuadratureConfig | None = None) -> DiscPairingReport:
    """Both routes of the disc trace formula on one pair and one table.

    ``xi`` is the shift function of ``pair``; its order must reach psi's.
    """
    if psi.order > xi.order:
        raise InsufficientCoefficientsError(
            f"table order {psi.order} exceeds coefficient table order {xi.order}")
    cfg = cfg or DiscQuadratureConfig()
    lhs = laurent_difference_trace(pair, psi)
    rows = []
    for R in cfg.radius_schedule:
        rows.append((float(R),
                     disc_integral_quadrature(xi, psi, R, cfg),
                     disc_integral_closed_form(xi, psi, R)))
    tail = disc_tail_bound(xi, psi, cfg.radius_schedule[-1])
    return DiscPairingReport(per_radius=tuple(rows),
                             lhs_trace=lhs,
                             tail_bound=tail)
