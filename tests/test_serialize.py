"""JSON/CSV round trips and malformed-input rejection."""

import csv
import dataclasses
import json

import numpy as np
import pytest

from pairs import random_pairs
from ssftrace import checks, cli, serialize, ssf


def read_series(doc):
    return serialize.series_from_dict(doc, checks.DISC_CONFIG.max_order)


def test_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(700)
    M = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    path = tmp_path / "m.json"
    serialize.save_matrix(path, M)
    np.testing.assert_array_equal(serialize.load_matrix(path), M)


def test_matrix_rejects_length_mismatch():
    with pytest.raises(ValueError):
        serialize.matrix_from_dict({"rows": 2, "cols": 2,
                                    "data": [[1.0, 0.0], [0.0, 0.0]]})


def test_matrix_rejects_vector():
    with pytest.raises(ValueError):
        serialize.matrix_to_dict(np.ones(4))


def test_save_is_deterministic(tmp_path):
    M = np.array([[0.5, 0.1j], [0.0, -0.2]])
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    serialize.save_matrix(p1, M)
    serialize.save_matrix(p2, M)
    assert p1.read_bytes() == p2.read_bytes()


def test_ssf_round_trip():
    # the shift-function JSON reads back as a two-sided series, as disc-report --psi does
    pair = random_pairs(1, seed=701, dims=(4,))[0]
    s = ssf.ssf_from_moments(ssf.moments(pair, 12))
    doc = json.loads(json.dumps(serialize.ssf_to_dict(s)))
    assert doc["n_max"] == 12
    assert [n for n, _, _ in doc["coeffs"]] == list(range(-12, 13))
    back = read_series(doc)
    assert back.order == s.order
    np.testing.assert_array_equal(back.coeffs, s.coeffs)


def test_readers_name_wrongly_shaped_values():
    def matrix(rows, cols):
        return {"rows": rows, "cols": cols, "data": [[0.5, 0.0]]}

    def series(*indices):
        return {"coeffs": [[k, 1.0, 0.0] for k in indices]}

    for read, doc, message in (
            (serialize.matrix_from_dict, [[1.0, 0.0]], "malformed matrix"),
            (serialize.matrix_from_dict, {"rows": 1, "cols": 1, "data": [[None, 0]]},
             "malformed matrix"),
            (read_series, {"coeffs": 5}, "malformed series"),
            # sizes and indices are JSON integers, each index given once
            (serialize.matrix_from_dict, matrix(1.9, 1), "rows must be an integer"),
            (serialize.matrix_from_dict, matrix(True, 1), "rows must be an integer"),
            (serialize.matrix_from_dict, matrix(1, "1"), "cols must be an integer"),
            (serialize.matrix_from_dict, matrix(1, 1.0), "cols must be an integer"),
            (read_series, series(1.7), "coeffs index must be an integer"),
            (read_series, series(True), "coeffs index must be an integer"),
            (read_series, series("1"), "coeffs index must be an integer"),
            (read_series, series(1, 1), "coeffs index 1 appears twice"),
            # an index beyond the caller's order is refused before the table is allocated
            (read_series, series(-128), "coeffs index -128 is beyond order 127"),
            (read_series, series(10 ** 12), f"coeffs index {10 ** 12} is beyond order 127")):
        with pytest.raises(ValueError, match=message):
            read(doc)


@pytest.mark.parametrize("read, doc, message", [
    # a bool is not a number, although Python's complex() takes it as one
    (serialize.matrix_from_dict, {"rows": 1, "cols": 1, "data": [[True, False]]},
     "data row must be 2 values, re and im numbers"),
    (read_series, {"coeffs": [[1, True, 0]]},
     "coeffs row must be 3 values, re and im numbers"),
    (serialize.matrix_from_dict, {"rows": -1, "cols": -1, "data": [[0.5, 0.0]]},
     "rows -1 and cols -1 must be >= 0"),
    (read_series, {"coeffs": [[1, 1.0]]},
     "coeffs row must be 3 values"),
    # Python's json reads NaN and Infinity
    (read_series, {"coeffs": [[1, float("nan"), 0]]}, "coeffs row must hold a finite re and im"),
    (read_series, {"coeffs": [[1, 0, float("inf")]]}, "coeffs row must hold a finite re and im"),
    (serialize.matrix_from_dict, {"rows": 1, "cols": 1, "data": [[float("-inf"), 0]]},
     "data row must hold a finite re and im"),
    # an integer beyond the float range, which complex() cannot take
    (read_series, {"coeffs": [[1, 10 ** 400, 0]]}, "coeffs row must hold a finite re and im"),
], ids=["matrix-bool-entry", "series-bool-coefficient", "matrix-negative-size",
        "series-short-row", "series-nan", "series-infinity", "matrix-infinity",
        "series-huge-integer"])
def test_readers_reject_nonsense_entries(read, doc, message):
    with pytest.raises(ValueError, match=message):
        read(doc)


@pytest.mark.parametrize("entry, message", [
    (True, "data row must be 2 values, re and im numbers"),
    (float("nan"), "data row must hold a finite re and im"),
    (10 ** 400, "data row must hold a finite re and im")], ids=["bool", "nan", "huge-integer"])
def test_matrix_names_a_refused_last_row(entry, message):
    # the whole-array checks refuse the matrix; the message still names the row
    doc = serialize.matrix_to_dict(np.zeros((64, 64)))
    doc["data"][-1] = [0.5, entry]
    with pytest.raises(ValueError, match=message) as err:
        serialize.matrix_from_dict(doc)
    assert repr(entry) in str(err.value)


def test_large_matrix_round_trips_bit_identically(tmp_path):
    rng = np.random.default_rng(702)
    M = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    M[0, :4] = [-0.0, 5e-324, 1.7976931348623157e308, -1j * 0.0]
    path = tmp_path / "m.json"
    serialize.save_matrix(path, M)
    back = serialize.load_matrix(path)
    assert back.shape == M.shape and back.tobytes() == M.tobytes()


def test_series_reads_json():
    psi = read_series({"coeffs": [[-2, 0.0, 0.3], [1, 1.0, 0.0]]})
    np.testing.assert_array_equal(psi.coeffs, [0.3j, 0.0, 0.0, 1.0, 0.0])


def test_ssf_grid_csv_exact_values(tmp_path):
    t = np.array([0.0, 1.5, 3.0])
    v = np.array([0.125, -0.0625, 0.3])
    path = tmp_path / "grid.csv"
    serialize.write_ssf_grid_csv(path, t, v)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "xi_r"]
    for row, (ti, vi) in zip(rows[1:], zip(t, v)):
        assert float(row[0]) == ti and float(row[1]) == vi


def test_ssf_grid_csv_bytes_equal_the_csv_writer(tmp_path):
    t = np.array([0.0, -0.0, 5e-324, 1e300, np.pi, 2.5])
    v = np.array([-0.0, 1e300, 5e-324, -1e-300, 0.1, -7.0])
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "xi_r"])
        for ti, vi in zip(t, v):
            writer.writerow([repr(float(ti)), repr(float(vi))])
    path = tmp_path / "grid.csv"
    serialize.write_ssf_grid_csv(path, t, v)
    assert path.read_bytes() == ref.read_bytes()
    assert b"\r\n-0.0,1e+300\r\n" in path.read_bytes()


def test_ssf_coeffs_json_bytes_equal_the_per_coefficient_writer():
    s = ssf.ssf_from_moments(ssf.moments(random_pairs(1, seed=703, dims=(5,))[0], 16))
    coeffs = [[n, float(s.coeff(n).real), float(s.coeff(n).imag)]
              for n in range(-s.order, s.order + 1)]
    assert json.dumps(serialize.ssf_to_dict(s), sort_keys=True) == \
        json.dumps({"n_max": s.order, "coeffs": coeffs}, sort_keys=True)


def test_summary_json_bytes_equal_the_asdict_writer(tmp_path):
    pair = random_pairs(1, seed=704, dims=(4,))[0]
    results, timings = checks.run(pair, ("circle", "disc"), 64)
    config = checks.config(("circle", "disc"), 64)
    cli._write_verify_reports(tmp_path, results, ["load: none"], timings, config)
    summary = {
        "passed": False,
        "num_checks": len(results),
        "failures": ["load: none"] + [c.name for c in results if not c.passed],
        "checks": [dataclasses.asdict(c) for c in results],
        "timings_s": timings,
        "config": config,
    }
    assert (tmp_path / "summary.json").read_text() == \
        json.dumps(summary, sort_keys=True, indent=2) + "\n"


def test_matrix_json_schema(tmp_path):
    path = tmp_path / "m.json"
    serialize.save_matrix(path, np.eye(2))
    doc = json.loads(path.read_text())
    assert set(doc) == {"rows", "cols", "data"}
    assert doc["data"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]


def test_matrix_json_bytes_equal_the_per_entry_writer():
    # the rows come from one float view of the matrix: the same floats, signed zeros
    # included, for complex, real and non-contiguous input alike
    M = random_pairs(1, seed=705, dims=(6,))[0].T.copy()
    M[0, 0], M[1, 2] = complex(-0.0, 0.0), complex(0.0, -0.0)
    for A in (M, M.T, M.real, np.eye(3)):
        rows = [[float(v.real), float(v.imag)] for v in np.asarray(A, dtype=complex).ravel()]
        assert json.dumps(serialize.matrix_to_dict(A), sort_keys=True) == \
            json.dumps({"rows": A.shape[0], "cols": A.shape[1], "data": rows}, sort_keys=True)
