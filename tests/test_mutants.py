"""Wrong implementations that the verify suites must catch.

Each mutant replaces one layer function with a plausible mistake, and the
suites that touch that layer must then fail at least one row.  A mutant
that no row catches points to a row that measures only roundoff.  Pairs
are built after patching, because ``pair.defects`` is cached on the pair.
"""

import numpy as np

from ssftrace import checks, linops, ssf

TOL = checks.DEFAULT_TOLERANCES
N_MAX = 64
exact_moments = ssf.moments


def defects_one_minus_s(M):
    """linops.defects with r = 1 - s in place of sqrt((1 - s)(1 + s))."""
    U, s, Vh = np.linalg.svd(linops.as_operator(M))
    r = 1.0 - s
    return (Vh.conj().T * r) @ Vh, (U * r) @ U.conj().T


def moments_shifted(pair, n_max):
    """ssf.moments one power off: Tr(T^(n+1) - T0^(n+1)) in place of m_n."""
    return exact_moments(pair, n_max + 1)[1:]


def failed_rows(suites):
    pair = linops.random_pair(16, 0.25, 0.1, seed=1)
    results, _ = checks.run(pair, suites, TOL, N_MAX)
    return {c.name for c in results if not c.passed}


def test_wrong_defect_fails_lemma(monkeypatch):
    assert not failed_rows(("lemma",))
    monkeypatch.setattr(linops, "defects", defects_one_minus_s)
    assert {"lemma/identity_left", "lemma/identity_right"} <= failed_rows(("lemma",))


def test_shifted_moments_fail_circle_and_disc(monkeypatch):
    # these rows catch a wrong moment sequence through xi, so a pairing of the
    # moments with a symbol, term for term the closed form, adds no detection
    assert not failed_rows(("circle", "disc"))
    monkeypatch.setattr(ssf, "moments", moments_shifted)
    failed = failed_rows(("circle", "disc"))
    assert any(name.startswith("circle/formula_") for name in failed)
    assert any(name.startswith("disc/limit_gap_") for name in failed)
