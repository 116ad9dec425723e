"""End-to-end coverage of the ssftrace command-line interface."""

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ssftrace
from oracles import evaluate_ssf_grid
from pairs import NORM_ONE_IDS, ROW_COUNT, norm_one_pairs
from ssftrace import calculus, checks, cli, disc, linops, serialize, ssf


def run(argv):
    return cli.main(argv)


def gen_pair(tmp_path, seed=11, dim=4, delta=0.25):
    out = tmp_path / f"pair{seed}"
    assert run(["gen", "--dim", str(dim), "--delta", str(delta),
                "--seed", str(seed), "--out", str(out)]) == 0
    return out


class TestGen:
    def test_outputs_exist(self, tmp_path):
        out = gen_pair(tmp_path)
        for name in ("T.json", "T0.json", "manifest.json"):
            assert (out / name).is_file()

    def test_byte_identical_reruns(self, tmp_path):
        a = gen_pair(tmp_path, seed=42)
        b = tmp_path / "again"
        run(["gen", "--dim", "4", "--delta", "0.25", "--seed", "42",
             "--out", str(b)])
        for name in ("T.json", "T0.json", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_manifest_certificates_match_pair(self, tmp_path):
        out = gen_pair(tmp_path, seed=7)
        manifest = json.loads((out / "manifest.json").read_text())
        pair = linops.make_pair(serialize.load_matrix(out / "T.json"),
                                serialize.load_matrix(out / "T0.json"))
        c0 = manifest["certificates"]["T0"]
        assert c0["is_strict"] is True
        assert c0["operator_norm"] == pytest.approx(
            pair.cert_T0.operator_norm, abs=1e-12)
        assert c0["strictness_margin_delta"] >= 0.25 - 1e-9

    @pytest.mark.parametrize("option", [["--dim", "0"], ["--delta", "1.5"],
                                        ["--perturbation", "0"], ["--perturbation", "nan"],
                                        ["--perturbation", "inf"]])
    def test_bad_option_is_error(self, tmp_path, capsys, option):
        # the later of two repeated options wins
        assert run(["gen", "--dim", "4", "--delta", "0.25", "--seed", "1", *option,
                    "--out", str(tmp_path / "g")]) == 1
        assert "Error" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    def test_module_run_without_runtime_warning(self, tmp_path):
        # the package must not import cli itself, or ``-m ssftrace.cli`` warns
        src = str(Path(ssftrace.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "ssftrace.cli", "gen",
             "--dim", "2", "--delta", "0.5", "--seed", "1", "--out", str(tmp_path / "g")],
            env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "g" / "T.json").is_file()


class TestVerify:
    def test_all_suites_pass(self, tmp_path):
        pair_dir = gen_pair(tmp_path, seed=3)
        out = tmp_path / "verify"
        code = run(["verify", "--t", str(pair_dir / "T.json"),
                    "--t0", str(pair_dir / "T0.json"),
                    "--suite", "all", "--n-max", "48", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is True
        assert summary["failures"] == []
        with open(out / "report.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["name", "passed", "measured", "threshold"]
        assert len(rows) - 1 == summary["num_checks"]
        prefixes = {r[0].split("/")[0] for r in rows[1:]}
        assert prefixes == {"lemma", "dilation", "circle", "disc"}
        timings = summary["timings_s"]
        assert set(timings) == {"lemma", "dilation", "xi", "powers", "circle", "disc"}
        assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())
        assert summary["config"] == {
            "tolerances": checks.TOLERANCES,
            "xi_order": {"circle": 30, "disc": 3},
            "window_n": 8,
            "abel_radius": 0.999,
            "quadrature_points": 244,
            "disc_grid": {"radial_nodes": 3, "angular_nodes": 28,
                          "radius_schedule": [0.5, 0.8, 0.9, 0.99, 0.999]},
        }

    def test_recorded_grids_are_the_grids_in_use(self, monkeypatch):
        # every uniform grid a full run evaluates on is one that summary.json records
        sizes = set()
        exact = ssf.uniform_trig_values

        def recorded(n, c, M):
            sizes.add(M)
            return exact(n, c, M)

        for module in (ssf, calculus, disc):
            monkeypatch.setattr(module, "uniform_trig_values", recorded)
        checks.run(linops.random_pair(8, 0.25, 0.1, seed=1), checks.SUITES)
        config = checks.config(checks.SUITES)
        assert sizes == {config["quadrature_points"], config["disc_grid"]["angular_nodes"]}

    @pytest.mark.parametrize("suites", [("lemma",), ("dilation",), ("circle",), ("disc",),
                                        checks.SUITES], ids="-".join)
    def test_power_table_is_built_once_and_timed_apart(self, monkeypatch, suites):
        # the circle left sides read one table of their babies, built once and timed
        # as "powers", never inside the suite's own timing; the disc suite builds none
        built = []
        exact = calculus.power_table

        def counted(S, s):
            built.append(s)
            return exact(S, s)

        monkeypatch.setattr(calculus, "power_table", counted)
        _, timings = checks.run(linops.random_pair(8, 0.25, 0.1, seed=1), suites)
        circle = "circle" in suites
        assert checks.TABLE_ORDER == math.isqrt(checks.CIRCLE_ORDER) == 5
        assert built == [checks.TABLE_ORDER] * circle
        expected = set(suites) | ({"xi"} if {"circle", "disc"} & set(suites) else set())
        assert set(timings) == expected | ({"powers"} if circle else set())

    def test_single_suite(self, tmp_path):
        pair_dir = gen_pair(tmp_path, seed=5)
        out = tmp_path / "verify-lemma"
        code = run(["verify", "--t", str(pair_dir / "T.json"),
                    "--t0", str(pair_dir / "T0.json"),
                    "--suite", "lemma", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert all(c["name"].startswith("lemma/") for c in summary["checks"])
        assert list(summary["timings_s"]) == ["lemma"]
        assert summary["timings_s"]["lemma"] >= 0.0
        assert summary["config"]["tolerances"] == checks.TOLERANCES
        assert summary["config"]["xi_order"] == {}

    def test_non_contraction_is_load_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        ok = tmp_path / "ok.json"
        serialize.save_matrix(bad, 1.5 * np.eye(2))
        serialize.save_matrix(ok, 0.5 * np.eye(2))
        out = tmp_path / "verify-bad"
        code = run(["verify", "--t", str(bad), "--t0", str(ok),
                    "--out", str(out)])
        assert code == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is False
        assert any("NotAContraction" in f for f in summary["failures"])
        assert summary["timings_s"] == {}
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert printed["passed"] is False

    def test_corrupt_matrix_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]}))
        ok = tmp_path / "ok.json"
        serialize.save_matrix(ok, 0.5 * np.eye(2))
        out = tmp_path / "verify-corrupt"
        assert run(["verify", "--t", str(bad), "--t0", str(ok),
                    "--out", str(out)]) == 1
        # wrongly shaped values: a null entry, a number for data, a top-level list
        for i, doc in enumerate(({"rows": 2, "cols": 2,
                                  "data": [[None, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]},
                                 {"rows": 2, "cols": 2, "data": 5},
                                 [[1.0, 0.0]])):
            bad.write_text(json.dumps(doc))
            shaped = tmp_path / f"verify-shape{i}"
            assert run(["verify", "--t", str(bad), "--t0", str(ok),
                        "--out", str(shaped)]) == 1
            summary = json.loads((shaped / "summary.json").read_text())
            assert any(f.startswith("load: ValueError: malformed matrix JSON")
                       for f in summary["failures"])
        missing = tmp_path / "verify-missing"
        assert run(["verify", "--t", str(tmp_path / "none.json"), "--t0", str(ok),
                    "--out", str(missing)]) == 1
        summary = json.loads((missing / "summary.json").read_text())
        assert any("FileNotFoundError" in f for f in summary["failures"])
        empty = tmp_path / "empty.json"
        serialize.save_matrix(empty, np.zeros((0, 0)))
        assert run(["verify", "--t", str(empty), "--t0", str(empty),
                    "--out", str(tmp_path / "verify-empty")]) == 1
        summary = json.loads((tmp_path / "verify-empty" / "summary.json").read_text())
        assert summary["failures"] == ["load: ValueError: matrix is empty (0x0)"]
        with open(tmp_path / "verify-empty" / "report.csv", newline="") as fh:
            assert list(csv.reader(fh)) == [["name", "passed", "measured", "threshold"]]

    def test_wrong_layer_fails_with_full_report(self, tmp_path, monkeypatch):
        # ssf.moments one power off: the circle formula rows fail, and the report
        # still holds every row of every suite
        pair_dir = gen_pair(tmp_path, seed=9)
        argv = ["verify", "--t", str(pair_dir / "T.json"), "--t0", str(pair_dir / "T0.json"),
                "--n-max", "48"]
        assert run([*argv, "--out", str(tmp_path / "exact")]) == 0
        exact_moments = ssf.moments
        monkeypatch.setattr(ssf, "moments",
                            lambda pair, n_max: exact_moments(pair, n_max + 1)[1:])
        out = tmp_path / "shifted"
        assert run([*argv, "--out", str(out)]) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is False
        assert any(f.startswith("circle/formula_") for f in summary["failures"])
        names = []
        for d in (tmp_path / "exact", out):
            with open(d / "report.csv", newline="") as fh:
                names.append([row[0] for row in csv.reader(fh)])
        assert names[1] == names[0] and len(names[1]) - 1 == summary["num_checks"]

    def test_tol_option_is_usage_error(self, tmp_path, capsys):
        # the thresholds are checks.TOLERANCES; no option redefines them
        pair_dir = gen_pair(tmp_path, seed=9)
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--t", str(pair_dir / "T.json"), "--t0", str(pair_dir / "T0.json"),
                 "--tol", "circle_tol=1e-8", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()
        with pytest.raises(TypeError):
            checks.TOLERANCES["circle_tol"] = 1e-8

    def test_deeply_nested_json_is_load_failure(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200000 + "]" * 200000)
        ok = tmp_path / "ok.json"
        serialize.save_matrix(ok, 0.5 * np.eye(2))
        out = tmp_path / "verify-deep"
        assert run(["verify", "--t", str(deep), "--t0", str(ok), "--out", str(out)]) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failures"] == [
            f"load: ValueError: malformed matrix JSON: {deep} is nested too deeply"]
        with open(out / "report.csv", newline="") as fh:
            assert list(csv.reader(fh)) == [["name", "passed", "measured", "threshold"]]
        assert not capsys.readouterr().err

    def test_negative_n_max_rejected(self, tmp_path, capsys):
        pair_dir = gen_pair(tmp_path, seed=9)
        for suite in ("lemma", "dilation", "disc", "circle", "all"):
            out = tmp_path / f"neg-{suite}"
            assert run(["verify", "--t", str(pair_dir / "T.json"),
                        "--t0", str(pair_dir / "T0.json"), "--suite", suite,
                        "--n-max", "-1", "--out", str(out)]) == 2
            assert "--n-max" in capsys.readouterr().err
            assert not out.exists()

    def assert_n_max_sets_nothing(self, tmp_path, pair_dir, suites, values):
        # xi is built to the order of the symbols, so no --n-max, too large to
        # allocate included, moves a byte of the report or of the recorded settings
        argv = ["verify", "--t", str(pair_dir / "T.json"), "--t0", str(pair_dir / "T0.json")]
        options = [[], *(["--n-max", str(n)] for n in values)]
        for suite in suites:
            outputs = set()
            for i, option in enumerate(options):
                out = tmp_path / f"{suite}{i}"
                assert run([*argv, "--suite", suite, *option, "--out", str(out)]) == 0
                config = json.loads((out / "summary.json").read_text())["config"]
                outputs.add(((out / "report.csv").read_bytes(), json.dumps(config)))
            assert len(outputs) == 1, suite
        return config

    def test_circle_n_max_below_symbol_degree(self, tmp_path):
        # the circle suite reads xi to the largest degree of its symbols whatever --n-max is
        config = self.assert_n_max_sets_nothing(
            tmp_path, gen_pair(tmp_path, seed=9), ("all", "circle"), (0, 10, 64, 10 ** 16))
        assert config["xi_order"] == {"circle": checks.CIRCLE_ORDER}

    def test_disc_n_max_above_quadrature_order(self, tmp_path):
        # the disc suite reads xi to the order of its tables whatever --n-max is
        high = checks.DISC_CONFIG.max_order + 1
        config = self.assert_n_max_sets_nothing(
            tmp_path, gen_pair(tmp_path, seed=9), ("all", "disc"), (0, high, 200, 10 ** 16))
        assert config["xi_order"] == {"disc": checks.DISC_MAX_ORDER}

    @pytest.mark.parametrize("index", [None, 0], ids=["random_d16", NORM_ONE_IDS[0]])
    def test_n_max_moves_no_verdict(self, tmp_path, index):
        # the circle and disc pairings read xi_hat(-n) only at their symbols' modes, so
        # no order moves a verdict, nor a byte of any row
        pair = linops.random_pair(16, 0.25, 0.1, seed=1) if index is None \
            else norm_one_pairs()[index]
        serialize.save_matrix(tmp_path / "T.json", pair.T)
        serialize.save_matrix(tmp_path / "T0.json", pair.T0)
        config = self.assert_n_max_sets_nothing(
            tmp_path, tmp_path, ("all",), (0, 30, 64, 127, 10 ** 16))
        assert config["xi_order"] == {"circle": checks.CIRCLE_ORDER, "disc": checks.DISC_MAX_ORDER}

    def verify_saved(self, tmp_path, pair):
        """verify --suite all on ``pair`` written to JSON; the output directory."""
        serialize.save_matrix(tmp_path / "T.json", pair.T)
        serialize.save_matrix(tmp_path / "T0.json", pair.T0)
        out = tmp_path / "verify"
        assert run(["verify", "--t", str(tmp_path / "T.json"), "--t0", str(tmp_path / "T0.json"),
                    "--suite", "all", "--out", str(out)]) == 0
        return out

    @pytest.mark.parametrize("index", range(3), ids=NORM_ONE_IDS)
    def test_norm_one_pair_passes(self, tmp_path, index):
        # only T0 need be strict: a valid pair with ||T|| = 1 passes every check
        out = self.verify_saved(tmp_path, norm_one_pairs()[index])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is True
        assert summary["num_checks"] == ROW_COUNT
        with open(out / "report.csv", newline="") as fh:
            assert all(row["passed"] == "True" for row in csv.DictReader(fh))

    @pytest.mark.parametrize("index", range(3), ids=NORM_ONE_IDS)
    def test_norm_one_rows_are_the_rows_in_process(self, tmp_path, index):
        # the files of a pair load as the pair itself, so checks.run on a pair in memory
        # computes the bytes verify writes for it
        pair = norm_one_pairs()[index]
        with open(self.verify_saved(tmp_path, pair) / "report.csv", newline="") as fh:
            written = [(row["name"], float(row["measured"]).hex(), float(row["threshold"]).hex())
                       for row in csv.DictReader(fh)]
        results, _ = checks.run(pair, checks.SUITES)
        assert written == [(c.name, c.measured.hex(), c.threshold.hex()) for c in results]


class TestSsfCommand:
    def test_matches_in_process(self, tmp_path):
        pair_dir = gen_pair(tmp_path, seed=21)
        out = tmp_path / "ssf"
        assert run(["ssf", "--t", str(pair_dir / "T.json"),
                    "--t0", str(pair_dir / "T0.json"), "--n-max", "32",
                    "--grid", "64", "--out", str(out)]) == 0
        pair = linops.make_pair(serialize.load_matrix(pair_dir / "T.json"),
                                serialize.load_matrix(pair_dir / "T0.json"))
        table = ssf.ssf_from_moments(ssf.moments(pair, 32))
        expected = ssf.evaluate_ssf_uniform(table, 64, 0.99)
        with open(out / "ssf.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        got = np.array([float(r[1]) for r in rows])
        np.testing.assert_array_equal(got, expected)
        doc = json.loads((out / "ssf_coeffs.json").read_text())
        assert doc["n_max"] == 32
        back = serialize.series_from_dict(doc, checks.DISC_CONFIG.max_order)
        np.testing.assert_allclose(back.coeffs, table.coeffs, atol=1e-15)

    @pytest.mark.parametrize("grid, n_max", [(4, 64), (100, 64), (100, 32)])
    def test_folded_and_odd_grids_match_point_values(self, tmp_path, grid, n_max):
        # 129 modes on 4 or 100 points take the scatter-add fold, 65 on 100 the
        # assignment; 100 is no power of two
        pair_dir = gen_pair(tmp_path, seed=22)
        out = tmp_path / "ssf"
        assert run(["ssf", "--t", str(pair_dir / "T.json"), "--t0", str(pair_dir / "T0.json"),
                    "--n-max", str(n_max), "--grid", str(grid), "--out", str(out)]) == 0
        with open(out / "ssf.csv", newline="") as fh:
            rows = np.array([[float(x) for x in row] for row in list(csv.reader(fh))[1:]])
        pair = linops.make_pair(serialize.load_matrix(pair_dir / "T.json"),
                                serialize.load_matrix(pair_dir / "T0.json"))
        table = ssf.ssf_from_moments(ssf.moments(pair, n_max))
        assert len(rows) == grid
        np.testing.assert_allclose(rows[:, 1], evaluate_ssf_grid(table, rows[:, 0], 0.99),
                                   rtol=0, atol=1e-13)

    def test_fine_grid_memory(self, tmp_path):
        # a dense grid-by-modes matrix here would be 4096 x 4001 complex, 250 MiB
        pair_dir = gen_pair(tmp_path, seed=21)
        tracemalloc.start()
        try:
            assert run(["ssf", "--t", str(pair_dir / "T.json"),
                        "--t0", str(pair_dir / "T0.json"), "--n-max", "2000",
                        "--grid", "4096", "--out", str(tmp_path / "fine")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("option", [["--n-max", "0"], ["--abel-radius", "1.5"],
                                        ["--grid", "0"]])
    def test_bad_option_is_error(self, tmp_path, capsys, option):
        pair_dir = gen_pair(tmp_path, seed=21)
        assert run(["ssf", "--t", str(pair_dir / "T.json"),
                    "--t0", str(pair_dir / "T0.json"), *option,
                    "--out", str(tmp_path / "s")]) == 1
        assert "ValueError" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("radius", ["2", "nan", "0", "1"])
    def test_radius_checked_before_moments(self, tmp_path, capsys, radius, monkeypatch):
        # the Abel radius is refused before the pair loads and its moments run
        pair_dir = gen_pair(tmp_path, seed=21)
        calls = []
        monkeypatch.setattr(ssf, "moments", lambda *args: calls.append(args))
        assert run(["ssf", "--t", str(pair_dir / "T.json"), "--t0", str(pair_dir / "T0.json"),
                    "--abel-radius", radius, "--out", str(tmp_path / "s")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ValueError: abel_radius") and err.count("\n") == 1
        assert not calls
        assert not (tmp_path / "s").exists()

    def test_load_error(self, tmp_path, capsys):
        missingish = tmp_path / "bad.json"
        missingish.write_text("{}")
        ok = tmp_path / "ok.json"
        serialize.save_matrix(ok, 0.5 * np.eye(2))
        empty = tmp_path / "empty.json"
        serialize.save_matrix(empty, np.zeros((0, 0)))
        for t, t0 in ((missingish, ok), (tmp_path / "none.json", ok), (empty, empty)):
            assert run(["ssf", "--t", str(t), "--t0", str(t0),
                        "--out", str(tmp_path / "s")]) == 1
            assert capsys.readouterr().err.count("\n") == 1
            assert not (tmp_path / "s").exists()


class TestDiscReport:
    def test_default_table(self, tmp_path):
        pair_dir = gen_pair(tmp_path, seed=31)
        out = tmp_path / "disc"
        assert run(["disc-report", "--t", str(pair_dir / "T.json"),
                    "--t0", str(pair_dir / "T0.json"),
                    "--radii", "0.5", "0.9", "0.999",
                    "--out", str(out)]) == 0
        with open(out / "disc.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "R"
        assert [float(r[0]) for r in rows[1:]] == [0.5, 0.9, 0.999]
        for r in rows[1:]:
            assert float(r[1]) == pytest.approx(float(r[3]), abs=1e-7)

    def test_custom_psi(self, tmp_path):
        pair_dir = gen_pair(tmp_path, seed=33)
        psi_path = tmp_path / "psi.json"
        psi_path.write_text(json.dumps(
            {"coeffs": [[1, 1.0, 0.0], [-1, 0.5, 0.0]]}))
        out = tmp_path / "disc-psi"
        assert run(["disc-report", "--t", str(pair_dir / "T.json"),
                    "--t0", str(pair_dir / "T0.json"), "--psi", str(psi_path),
                    "--out", str(out)]) == 0
        assert (out / "disc.csv").is_file()

    def test_order_cap_table_over_long_radius_list(self, tmp_path):
        # a table at the order cap fills a quadrature chunk with one radius, so 50 radii
        # take 50 chunks
        pair_dir = gen_pair(tmp_path, seed=35)
        order = checks.DISC_CONFIG.max_order
        psi_path = tmp_path / "psi.json"
        psi_path.write_text(json.dumps({"coeffs": [[n, 0.5 ** abs(n), 0.0]
                                                   for n in range(-order, order + 1)]}))
        radii = [f"{R:.4f}" for R in np.linspace(0.3, 0.995, 50)]
        out = tmp_path / "disc-long"
        assert run(["disc-report", "--t", str(pair_dir / "T.json"),
                    "--t0", str(pair_dir / "T0.json"), "--psi", str(psi_path),
                    "--radii", *radii, "--out", str(out)]) == 0
        with open(out / "disc.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["R"] for r in rows] == [str(float(R)) for R in radii]
        for r in rows:
            assert abs(complex(float(r["quad_re"]), float(r["quad_im"]))
                       - complex(float(r["closed_re"]), float(r["closed_im"]))) <= 1e-12

    def test_deeply_nested_psi_is_error(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200000 + "]" * 200000)
        pair_dir = gen_pair(tmp_path, seed=31)
        assert run(["disc-report", "--t", str(pair_dir / "T.json"),
                    "--t0", str(pair_dir / "T0.json"), "--psi", str(deep),
                    "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert err == f"ValueError: malformed series JSON: {deep} is nested too deeply\n"
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("option", [["--radii", "0.9", "0.5"], ["--radii", "1.5"],
                                        ["--psi", "no-such-table.json"],
                                        ["--psi", "coeffs-number.json"],
                                        ["--t", "empty.json", "--t0", "empty.json"],
                                        ["--psi", "index-1.7.json"],
                                        ["--psi", "index-true.json"],
                                        ["--psi", "index-repeated.json"],
                                        ["--t", "rows-1.9.json", "--t0", "rows-1.9.json"],
                                        ["--t", "rows-true.json", "--t0", "rows-true.json"],
                                        ["--t", "rows-str.json", "--t0", "rows-str.json"],
                                        ["--t", "entry-true.json", "--t0", "entry-true.json"],
                                        ["--t", "rows-neg.json", "--t0", "rows-neg.json"],
                                        ["--psi", "coeff-true.json"],
                                        ["--psi", "row-short.json"],
                                        ["--psi", "coeff-nan.json"],
                                        ["--psi", "coeff-inf.json"]])
    def test_bad_option_is_error(self, tmp_path, capsys, option, monkeypatch):
        # the later of two repeated options wins, so the --t cases load their own pair;
        # the index-* and rows-* files once read as index 1 and as a 1x1 matrix
        monkeypatch.chdir(tmp_path)
        (tmp_path / "coeffs-number.json").write_text(json.dumps({"coeffs": 5}))
        serialize.save_matrix(tmp_path / "empty.json", np.zeros((0, 0)))
        for name, index in (("1.7", 1.7), ("true", True)):
            (tmp_path / f"index-{name}.json").write_text(json.dumps({"coeffs": [[index, 1, 0]]}))
        (tmp_path / "index-repeated.json").write_text(
            json.dumps({"coeffs": [[1, 1, 0], [1, 2, 0]]}))
        for name, size in (("1.9", 1.9), ("true", True), ("str", "1"), ("neg", -1)):
            (tmp_path / f"rows-{name}.json").write_text(
                json.dumps({"rows": size, "cols": size, "data": [[0.5, 0.0]]}))
        (tmp_path / "entry-true.json").write_text(
            json.dumps({"rows": 1, "cols": 1, "data": [[True, False]]}))
        (tmp_path / "coeff-true.json").write_text(json.dumps({"coeffs": [[1, True, 0]]}))
        (tmp_path / "row-short.json").write_text(json.dumps({"coeffs": [[1, 1.0]]}))
        # Python's json writes and reads NaN and Infinity
        for name, value in (("nan", float("nan")), ("inf", float("inf"))):
            (tmp_path / f"coeff-{name}.json").write_text(json.dumps({"coeffs": [[1, value, 0]]}))
        pair_dir = gen_pair(tmp_path, seed=31)
        assert run(["disc-report", "--t", str(pair_dir / "T.json"),
                    "--t0", str(pair_dir / "T0.json"), *option,
                    "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert "Error: " in err and err.count("\n") == 1
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("option", [["--psi", "order-128.json"], ["--radii", "0.5", "1.0"],
                                        ["--psi", "order-200000.json"],
                                        ["--psi", "order-1e12.json"],
                                        ["--radii", "0.5", "nan", "0.9"]])
    def test_bounds_checked_before_moments(self, tmp_path, capsys, option, monkeypatch):
        # ssf.moments walks T^n up to the table's order, seconds of work at order 200000,
        # so a table above the allocation cap, from one past it up, or a radius outside
        # (0, 1), is refused before it runs
        monkeypatch.chdir(tmp_path)
        (tmp_path / "order-128.json").write_text(json.dumps(
            {"coeffs": [[checks.DISC_CONFIG.max_order + 1, 1, 0]]}))
        (tmp_path / "order-200000.json").write_text(json.dumps({"coeffs": [[200000, 1, 0]]}))
        # a dense table of this order would take 32 TB
        (tmp_path / "order-1e12.json").write_text(json.dumps({"coeffs": [[10 ** 12, 1, 0]]}))
        pair_dir = gen_pair(tmp_path, seed=31)
        calls = []
        monkeypatch.setattr(ssf, "moments", lambda *args: calls.append(args))
        assert run(["disc-report", "--t", str(pair_dir / "T.json"),
                    "--t0", str(pair_dir / "T0.json"), *option,
                    "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ValueError: ") and err.count("\n") == 1
        assert not calls
        assert not (tmp_path / "d").exists()

    def test_n_max_is_usage_error(self, tmp_path, capsys):
        # xi is built to the table's order, so no option sets it
        pair_dir = gen_pair(tmp_path, seed=31)
        with pytest.raises(SystemExit) as exc:
            run(["disc-report", "--t", str(pair_dir / "T.json"), "--t0", str(pair_dir / "T0.json"),
                 "--n-max", "5", "--out", str(tmp_path / "d")])
        assert exc.value.code == 2
        assert "--n-max" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()


# 10^16 entries are petabytes, more than any overcommit setting grants
TOO_LARGE = str(10 ** 16)


@pytest.mark.parametrize("option", [["ssf", "--grid", TOO_LARGE], ["ssf", "--n-max", TOO_LARGE]])
def test_allocation_too_large_is_error(tmp_path, capsys, option):
    pair_dir = gen_pair(tmp_path, seed=41)
    command, *rest = option
    assert run([command, "--t", str(pair_dir / "T.json"), "--t0", str(pair_dir / "T0.json"),
                *rest, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("MemoryError: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
