"""Wrong implementations that the verify suites must catch.

Each mutant replaces one layer function with a plausible mistake, and the
suites that touch that layer must then fail at least one row.  A mutant
that no row catches points to a row that measures only roundoff.  Pairs
are built after patching, because ``pair.defects`` is cached on the pair.
"""

import dataclasses

import numpy as np
import pytest

from ssftrace import checks, dilation, disc, kernel_integral, linops, ssf

TOL = checks.DEFAULT_TOLERANCES
N_MAX = 64
exact_moments = ssf.moments
exact_ring_sums = disc._ring_sums
exact_ring_wirtinger = disc._ring_wirtinger
exact_window = dilation.build_window_dilation
exact_eig = kernel_integral._positive_contraction_eig
QUAD_ROWS = {f"disc/quad_vs_closed_{name}" for name in checks.DISC_TABLES}


def defects_one_minus_s(M):
    """linops.defects with r = 1 - s in place of sqrt((1 - s)(1 + s))."""
    U, s, Vh = np.linalg.svd(linops.as_operator(M))
    r = 1.0 - s
    return (Vh.conj().T * r) @ Vh, (U * r) @ U.conj().T


def eig_reversed(M):
    """kernel_integral._positive_contraction_eig with the eigenvalues in reverse order
    against their eigenvectors."""
    H, w, V = exact_eig(M)
    return H, w[::-1], V


def moments_shifted(pair, n_max):
    """ssf.moments one power off: Tr(T^(n+1) - T0^(n+1)) in place of m_n."""
    return exact_moments(pair, n_max + 1)[1:]


def ring_sums_negated(xz, xzb, psi, r, M):
    """disc._ring_sums with the Jacobian's sign flipped."""
    return -exact_ring_sums(xz, xzb, psi, r, M)


def ring_wirtinger_extra_power(table, r, M):
    """disc._ring_wirtinger with both derivatives one power of r too high."""
    dz, dzbar = exact_ring_wirtinger(table, r, M)
    return r[:, None] * dz, r[:, None] * dzbar


def ring_wirtinger_dzbar_sign_slip(table, r, M):
    """disc._ring_wirtinger with d/dzbar on the modes n - 1, not 1 - n: the FFT's
    sign convention slipped."""
    n = np.arange(1, table.order + 1)
    dz, _ = exact_ring_wirtinger(table, r, M)
    scale = n * r[:, None] ** (n - 1)
    return dz, ssf.uniform_trig_values(n - 1, scale * table.coeffs[table.order - n], M)


def window_transposed_block(T, N):
    """dilation.build_window_dilation with -T in place of -T* at block (-1, 1)."""
    W = exact_window(T, N)
    return dataclasses.replace(W, blocks={**W.blocks, (-1, 1): -linops.as_operator(T)})


def window_shift_reversed(T, N):
    """dilation.build_window_dilation with the shift at (2, 3) moved to (3, 2)."""
    W = exact_window(T, N)
    return dataclasses.replace(W, shifts=W.shifts - {(2, 3)} | {(3, 2)})


def window_without_shifts(T, N):
    """dilation.build_window_dilation holding no shifts."""
    return dataclasses.replace(exact_window(T, N), shifts=frozenset())


def failed_rows(suites):
    pair = linops.random_pair(16, 0.25, 0.1, seed=1)
    results, _ = checks.run(pair, suites, TOL, N_MAX)
    return {c.name for c in results if not c.passed}


def test_wrong_defect_fails_lemma(monkeypatch):
    assert not failed_rows(("lemma",))
    monkeypatch.setattr(linops, "defects", defects_one_minus_s)
    assert {"lemma/identity_left", "lemma/identity_right"} <= failed_rows(("lemma",))


def test_reversed_eigenvalues_fail_semigroup(monkeypatch):
    # the trace norms and the defect identity never read the eigenpairs
    monkeypatch.setattr(kernel_integral, "_positive_contraction_eig", eig_reversed)
    assert failed_rows(("lemma",)) == {"lemma/semigroup_left", "lemma/semigroup_right"}


def test_shifted_moments_fail_circle_and_disc(monkeypatch):
    # these rows catch a wrong moment sequence through xi, so a pairing of the
    # moments with a symbol, term for term the closed form, adds no detection
    assert not failed_rows(("circle", "disc"))
    monkeypatch.setattr(ssf, "moments", moments_shifted)
    failed = failed_rows(("circle", "disc"))
    assert any(name.startswith("circle/formula_") for name in failed)
    assert any(name.startswith("disc/limit_gap_") for name in failed)


@pytest.mark.parametrize("name, mutant", [("_ring_sums", ring_sums_negated),
                                          ("_ring_wirtinger", ring_wirtinger_extra_power),
                                          ("_ring_wirtinger", ring_wirtinger_dzbar_sign_slip)])
def test_wrong_jacobian_fails_disc_quadrature(monkeypatch, name, mutant):
    assert not failed_rows(("disc",))
    monkeypatch.setattr(disc, name, mutant)
    assert QUAD_ROWS <= failed_rows(("disc",))


def test_transposed_block_fails_dilation(monkeypatch):
    assert not failed_rows(("dilation",))
    monkeypatch.setattr(dilation, "build_window_dilation", window_transposed_block)
    assert {"dilation/orthonormal_T", "dilation/orthonormal_T0",
            "dilation/four_blocks"} <= failed_rows(("dilation",))


@pytest.mark.parametrize("mutant", [window_shift_reversed, window_without_shifts])
def test_wrong_shifts_fail_orthonormality(monkeypatch, mutant):
    # on the documented pattern every cycle of the window runs through block (0, 0),
    # so Tr W^n = Tr T^n and [W^n]_00 = T^n whatever the shifts are: only the column
    # Gram sees them
    monkeypatch.setattr(dilation, "build_window_dilation", mutant)
    assert failed_rows(("dilation",)) == {"dilation/orthonormal_T", "dilation/orthonormal_T0"}
