"""The command line on hostile matrix files: ``verify``, ``ssf`` and ``disc-report``
each return 0 or 1, or exit 2 on a usage error, and no exception escapes
``cli.main``, for malformed JSON and for well-formed pairs at d <= 5 with
extreme entries."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ssftrace import cli, linops, serialize
from ssftrace.errors import SsftraceError

FUZZ = settings(derandomize=True, max_examples=50, deadline=None)

SCALARS = (st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70)
           | st.sampled_from([10 ** 400, -10 ** 400, 5e-324, 1e300])
           | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=3))
JSON_VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4)
                           | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                           max_leaves=10)
SIZES = st.integers(-2, 4) | st.sampled_from([True, 2.0, "2", None, 10 ** 400])


@st.composite
def malformed_matrix(draw) -> str:
    """Matrix JSON text with wrong types, bools, NaN or Infinity, huge ints, negative
    or mismatched sizes, or nesting too deep to parse, or a valid matrix of a size
    the other file may not share."""
    kind = draw(st.sampled_from(["shaped", "any", "deep", "text", "resized"]))
    if kind == "shaped":
        entry = st.lists(SCALARS, min_size=2, max_size=2) | JSON_VALUES
        doc = {"rows": draw(SIZES), "cols": draw(SIZES),
               "data": draw(st.lists(entry, max_size=6) | JSON_VALUES)}
        return json.dumps(doc)
    if kind == "any":
        return json.dumps(draw(JSON_VALUES))
    if kind == "deep":
        depth = draw(st.integers(500, 5000))
        return '{"rows": 1, "cols": 1, "data": ' + "[" * depth + "]" * depth + "}"
    if kind == "resized":
        return json.dumps(serialize.matrix_to_dict(0.5 * np.eye(draw(st.integers(1, 6)))))
    return draw(st.text(max_size=20))


KINDS = ("subnormal", "margin", "ginibre", "norm_one", "overshoot", "huge")


@st.composite
def extreme_side(draw, d: int, kinds=KINDS) -> np.ndarray:
    """A d x d matrix of subnormal entries, a margin near ``DELTA_MIN``, a Ginibre
    matrix at a norm in [0, 1], norm exactly 1, a norm overshoot within ``NORM_TOL``,
    or entries near 1e300, of the given ``kinds``."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # a signed permutation: every singular value exactly 1
    P = np.eye(d)[rng.permutation(d)] * rng.choice([-1.0, 1.0], d)
    kind = draw(st.sampled_from(kinds))
    if kind == "subnormal":
        return rng.integers(-3, 4, (d, d)) * 5e-324 + 1j * rng.integers(-3, 4, (d, d)) * 5e-324
    if kind == "norm_one":
        return P
    if kind == "overshoot":
        return (1.0 + draw(st.floats(0.0, linops.NORM_TOL))) * P
    if kind == "margin":
        return (1.0 - linops.DELTA_MIN * draw(st.sampled_from([0.5, 1.0, 1.0 + 1e-9, 2.0]))) * P
    if kind == "huge":
        return 1e300 * P
    G = linops.ginibre(rng, d)
    return G * (draw(st.floats(0.0, 1.0)) / np.linalg.norm(G, 2))


def run_commands(T_text: str, T0_text: str) -> list:
    """The exit code of each command on the two files, a usage error counted as 2."""
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        files = []
        for option, text in (("--t", T_text), ("--t0", T0_text)):
            path = Path(tmp) / f"{option[2:]}.json"
            path.write_text(text)
            files += [option, str(path)]
        for command in (["verify", "--suite", "all"], ["ssf"], ["disc-report"]):
            argv = [*command, *files, "--out", str(Path(tmp) / "out")]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    codes.append(cli.main(argv))
                except SystemExit as exc:
                    codes.append(exc.code)
    return codes


@FUZZ
@given(bad=malformed_matrix(), good=st.integers(1, 5), bad_first=st.booleans())
def test_malformed_matrix_json_is_a_clean_failure(bad, good, bad_first):
    good = json.dumps(serialize.matrix_to_dict(0.5 * np.eye(good)))
    codes = run_commands(*((bad, good) if bad_first else (good, bad)))
    assert set(codes) <= {0, 1, 2}


@FUZZ
@given(data=st.data(), d=st.integers(1, 5))
def test_extreme_pairs_give_a_verdict_or_a_named_refusal(data, d):
    # T0 of the kinds that may be strict, as the paper's T0 must be
    T, T0 = data.draw(extreme_side(d)), data.draw(extreme_side(d, KINDS[:3]))
    codes = run_commands(*(json.dumps(serialize.matrix_to_dict(M)) for M in (T, T0)))
    assert set(codes) <= {0, 1, 2}
    try:
        linops.make_pair(T, T0)
    except SsftraceError:
        assert codes == [1, 1, 1]
    else:
        # an accepted pair passes every row and exports both reports
        assert codes == [0, 0, 0]
