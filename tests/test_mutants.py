"""Wrong implementations that the verify suites must catch.

Each mutant replaces one layer function with a plausible mistake, and the
suites that touch that layer must then fail at least one row.  A mutant
that no row catches points to a row that measures only roundoff.  Pairs
are built after patching, because ``pair.defect_factors`` and ``pair.defects``
are cached on the pair.
"""

import dataclasses

import numpy as np
import pytest

from ssftrace import checks, dilation, disc, kernel_integral, linops, ssf

N_MAX = 64
exact_moments = ssf.moments
exact_ring_sums = disc._ring_sums
exact_ring_wirtinger = disc._ring_wirtinger
exact_window = dilation.build_window_dilation
exact_integral = kernel_integral.semigroup_integral
QUAD_ROWS = {f"disc/quad_vs_closed_{name}" for name in checks.DISC_TABLES}


def factors_one_minus_s(M):
    """linops.defect_factors with r = 1 - s in place of sqrt((1 - s)(1 + s)): both the
    pair's defects and the lemma's eigenpairs read it."""
    U, s, Vh = np.linalg.svd(linops.as_operator(M))
    return U, 1.0 - s, Vh


def integral_eigenvalues_reversed(A, B, eig_A, eig_B):
    """kernel_integral.semigroup_integral handed eigenpairs whose eigenvalues run in
    reverse order against their eigenvectors."""
    (a, Va), (b, Vb) = eig_A, eig_B
    return exact_integral(A, B, (a[::-1], Va), (b[::-1], Vb))


def moments_shifted(pair, n_max):
    """ssf.moments one power off: Tr(T^(n+1) - T0^(n+1)) in place of m_n."""
    return exact_moments(pair, n_max + 1)[1:]


def ring_sums_negated(xi_grids, psi_grids):
    """disc._ring_sums with the Jacobian's sign flipped."""
    return -exact_ring_sums(xi_grids, psi_grids)


def ring_wirtinger_extra_power(coeffs, r, M):
    """disc._ring_wirtinger with both derivatives one power of r too high."""
    dz, dzbar = exact_ring_wirtinger(coeffs, r, M)
    return r[:, None] * dz, r[:, None] * dzbar


def ring_wirtinger_dzbar_sign_slip(coeffs, r, M):
    """disc._ring_wirtinger with d/dzbar on the modes n - 1, not 1 - n: the FFT's
    sign convention slipped."""
    K = (coeffs.shape[-1] - 1) // 2
    n = np.arange(1, K + 1)
    dz, _ = exact_ring_wirtinger(coeffs, r, M)
    scale = n * r[:, None] ** (n - 1)
    return dz, ssf.uniform_trig_values(n - 1, coeffs[..., None, K - n] * scale, M)


def window_transposed_block(T, defects, N):
    """dilation.build_window_dilation with -T in place of -T* at block (-1, 1)."""
    W = exact_window(T, defects, N)
    return dataclasses.replace(W, held={**W.held, (-1, 1): -linops.as_operator(T)})


def moved(W, old, new):
    """W with what it holds at ``old`` held at ``new``, in the same place in its order."""
    return dataclasses.replace(W, held={new if ij == old else ij: b for ij, b in W.held.items()})


def window_shift_reversed(T, defects, N):
    """dilation.build_window_dilation with the shift at (2, 3) moved to (3, 2)."""
    return moved(exact_window(T, defects, N), (2, 3), (3, 2))


def window_without_shifts(T, defects, N):
    """dilation.build_window_dilation holding no shifts."""
    W = exact_window(T, defects, N)
    return dataclasses.replace(W, held={ij: b for ij, b in W.held.items() if b is not dilation._I})


def window_defect_below_diagonal(T, defects, N):
    """dilation.build_window_dilation with D_T* at block (1, 0), below the diagonal, not (0, 1)."""
    return moved(exact_window(T, defects, N), (0, 1), (1, 0))


def failed_rows(suites):
    pair = linops.random_pair(16, 0.25, 0.1, seed=1)
    results, _ = checks.run(pair, suites, N_MAX)
    return {c.name for c in results if not c.passed}


def test_wrong_defect_fails_lemma(monkeypatch):
    assert not failed_rows(("lemma",))
    monkeypatch.setattr(linops, "defect_factors", factors_one_minus_s)
    assert {"lemma/identity_left", "lemma/identity_right"} <= failed_rows(("lemma",))


def test_reversed_eigenvalues_fail_semigroup(monkeypatch):
    # the trace norms and the defect identity never read the eigenpairs
    monkeypatch.setattr(kernel_integral, "semigroup_integral", integral_eigenvalues_reversed)
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


def test_defect_below_diagonal_fails_dilation(monkeypatch):
    # block row 0 now holds T alone, so no walk leaves row 0 and none through (1, 0)
    # returns: [W^n]_00 = T^n and Tr W^n = Tr T^n, and only the column Gram and the
    # four-block residual see the move
    monkeypatch.setattr(dilation, "build_window_dilation", window_defect_below_diagonal)
    assert failed_rows(("dilation",)) == {"dilation/orthonormal_T", "dilation/orthonormal_T0",
                                          "dilation/four_blocks"}


@pytest.mark.parametrize("mutant", [window_shift_reversed, window_without_shifts])
def test_wrong_shifts_fail_orthonormality(monkeypatch, mutant):
    # on the documented pattern every cycle of the window runs through block (0, 0),
    # so Tr W^n = Tr T^n and [W^n]_00 = T^n whatever the shifts are: only the column
    # Gram sees them
    monkeypatch.setattr(dilation, "build_window_dilation", mutant)
    assert failed_rows(("dilation",)) == {"dilation/orthonormal_T", "dilation/orthonormal_T0"}
