"""Every pair of the drawn pair space passes every verify row, or is refused by name."""

from hypothesis import given, settings

from pairs import pair_space
from ssftrace import checks, linops
from ssftrace.errors import SsftraceError


@settings(derandomize=True, max_examples=400, deadline=None)
@given(pair_space())
def test_every_row_passes_or_make_pair_refuses(matrices):
    try:
        pair = linops.make_pair(*matrices)
    except SsftraceError:
        return
    results, _ = checks.run(pair, checks.SUITES)
    assert [(c.name, c.measured, c.threshold) for c in results if not c.passed] == []
