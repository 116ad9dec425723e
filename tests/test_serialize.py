"""JSON/CSV round trips and malformed-input rejection."""

import csv
import json

import numpy as np
import pytest

from pairs import random_pairs
from ssftrace import serialize, ssf
from ssftrace.calculus import CoefficientSeries, LaurentSeries


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
    pair = random_pairs(1, seed=701, dims=(4,))[0]
    s = ssf.ssf_from_moments(ssf.moments(pair, 12))
    back = serialize.ssf_from_dict(serialize.ssf_to_dict(s))
    assert back.order == s.order
    np.testing.assert_array_equal(back.coeffs, s.coeffs)


def test_ssf_rejects_out_of_range_index():
    with pytest.raises(ValueError):
        serialize.ssf_from_dict({"n_max": 1, "coeffs": [[3, 0.0, 0.0]]})


def test_readers_name_wrongly_shaped_values():
    def two_sided(d):
        return serialize.series_from_dict(d, two_sided=True)

    for read, doc in ((serialize.matrix_from_dict, [[1.0, 0.0]]),
                      (serialize.matrix_from_dict, {"rows": 1, "cols": 1, "data": [[None, 0]]}),
                      (serialize.ssf_from_dict, {"n_max": None, "coeffs": []}),
                      (two_sided, {"coeffs": 5})):
        with pytest.raises(ValueError, match="malformed"):
            read(doc)


def test_series_round_trips():
    phi = CoefficientSeries.from_terms({0: 1.0, 3: -0.5})
    back = serialize.series_from_dict(serialize.series_to_dict(phi),
                                      two_sided=False)
    np.testing.assert_array_equal(back.coeffs, phi.coeffs)

    psi = LaurentSeries.from_terms({-2: 0.3j, 1: 1.0})
    back2 = serialize.series_from_dict(serialize.series_to_dict(psi),
                                       two_sided=True)
    np.testing.assert_array_equal(back2.coeffs, psi.coeffs)


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


def test_matrix_json_schema(tmp_path):
    path = tmp_path / "m.json"
    serialize.save_matrix(path, np.eye(2))
    doc = json.loads(path.read_text())
    assert set(doc) == {"rows", "cols", "data"}
    assert doc["data"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
