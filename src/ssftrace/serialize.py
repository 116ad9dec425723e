"""File formats: matrix JSON, coefficient-table JSON, CSV reports.

Matrix JSON: {"rows": int, "cols": int, "data": [[re, im], ...]} in
row-major order.  Shift-function JSON, written by ``ssf``: {"n_max": int,
"coeffs": [[n, re, im], ...]}.  Series JSON, read by ``disc-report --psi``:
{"coeffs": [[k, re, im], ...]}, k of either sign, so a shift-function file
reads as a two-sided series.  Readers raise ValueError on a length mismatch,
a wrongly shaped value or row, a bool, non-number or non-finite entry, a negative
size, a repeated index, a series index beyond ``max_order`` (before allocating), or
a file nested too deeply to parse.
"""

from __future__ import annotations

import csv
import itertools
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .ssf import LaurentSeries


def matrix_to_dict(M) -> dict:
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim {A.ndim}")
    # [re, im] rows from the interleaved float view: the same floats, -0.0 included
    data = np.ascontiguousarray(A).view(float).reshape(-1, 2).tolist()
    return {"rows": A.shape[0], "cols": A.shape[1], "data": data}


@contextmanager
def _reading(what: str):
    """Turn the TypeError of a wrongly shaped or typed JSON value into a named ValueError."""
    try:
        yield
    except TypeError as exc:
        raise ValueError(f"malformed {what} JSON: {exc}") from None


def _integer(value, field: str) -> int:
    """``value`` if it is a JSON integer; TypeError for a float, string or bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{field} must be an integer, got {value!r}")
    return value


def _row(row, width: int, field: str) -> list:
    """``row`` if it is a JSON list of ``width`` values whose last two, re and im, are
    numbers a float holds; ValueError for NaN, Infinity (Python's json reads both) or
    an integer beyond the float range."""
    if not isinstance(row, list) or len(row) != width or any(
            isinstance(v, bool) or not isinstance(v, (int, float)) for v in row[-2:]):
        raise TypeError(f"{field} row must be {width} values, re and im numbers, got {row!r}")
    if not all(abs(v) <= sys.float_info.max for v in row[-2:]):
        raise ValueError(f"{field} row must hold a finite re and im, got {row!r}")
    return row


def _data(data) -> np.ndarray:
    """The [re, im] rows as complex values, checked as arrays; ``_row`` names a refused row."""
    try:
        if (type(data) is list and set(map(type, data)) <= {list} and set(map(len, data)) <= {2}
                and set(map(type, itertools.chain.from_iterable(data))) <= {int, float}):
            values = np.fromiter(itertools.chain.from_iterable(data), dtype=float,
                                 count=2 * len(data))
            if np.isfinite(values).all():
                return values.view(complex)
    except OverflowError:  # an integer beyond the float range
        pass
    for row in data:
        _row(row, 2, "data")
    raise TypeError(f"data must be a list of rows, got {data!r}")


def matrix_from_dict(d: dict) -> np.ndarray:
    with _reading("matrix"):
        rows, cols = _integer(d["rows"], "rows"), _integer(d["cols"], "cols")
        if rows < 0 or cols < 0:
            raise ValueError(f"malformed matrix JSON: rows {rows} and cols {cols} must be >= 0")
        flat = _data(d["data"])
    if len(flat) != rows * cols:
        raise ValueError(f"data length {len(flat)} does not match {rows}x{cols}")
    return flat.reshape(rows, cols)


def save_matrix(path, M):
    Path(path).write_text(json.dumps(matrix_to_dict(M), sort_keys=True) + "\n")


def _load_json(path, what: str):
    try:
        return json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError(f"malformed {what} JSON: {path} is nested too deeply") from None


def load_matrix(path) -> np.ndarray:
    return matrix_from_dict(_load_json(path, "matrix"))


def ssf_to_dict(s: LaurentSeries) -> dict:
    coeffs = [[n, re, im] for n, re, im in zip(range(-s.order, s.order + 1),
                                               s.coeffs.real.tolist(), s.coeffs.imag.tolist())]
    return {"n_max": s.order, "coeffs": coeffs}


def series_from_dict(d: dict, max_order: int) -> LaurentSeries:
    terms = {}
    with _reading("series"):
        for row in d["coeffs"]:
            k, re, im = _row(row, 3, "coeffs")
            k = _integer(k, "coeffs index")
            if k in terms:
                raise ValueError(f"malformed series JSON: coeffs index {k} appears twice")
            if abs(k) > max_order:
                raise ValueError(f"series JSON: coeffs index {k} is beyond order {max_order}")
            terms[k] = complex(re, im)
    return LaurentSeries.from_terms(terms)


def load_series(path, max_order: int) -> LaurentSeries:
    return series_from_dict(_load_json(path, "series"), max_order)


def write_ssf_grid_csv(path, t_grid, values):
    """The rows ``csv.writer`` would write, as one string: a float's repr needs no quoting."""
    rows = zip(np.asarray(t_grid, dtype=float).tolist(), np.asarray(values, dtype=float).tolist())
    with open(path, "w", newline="") as fh:
        fh.write("t,xi_r\r\n" + "".join(f"{t!r},{v!r}\r\n" for t, v in rows))


def write_disc_report_csv(path, radii, quads, closed, lhs: complex):
    """One row per radius: R, the quadrature and closed form there (arrays over ``radii``)
    and the trace ``lhs``, each written from a Python float."""
    rows = zip(map(float, radii), quads.tolist(), closed.tolist())
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([
            ["R", "quad_re", "quad_im", "closed_re", "closed_im", "lhs_re", "lhs_im"],
            *([repr(R), repr(q.real), repr(q.imag), repr(c.real), repr(c.imag),
               repr(lhs.real), repr(lhs.imag)] for R, q, c in rows)])
