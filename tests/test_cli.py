"""CLI surface: subcommands, formats, exit codes, determinism."""

import json

import numpy as np
import pytest

from hgeom import cli, hyperbolic_distance, isometry_apply
from hgeom.core import poincare_coords

from util import drifting_far_fit, random_isometry


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDist:
    def test_hyperbolic_value(self, capsys):
        code, out, _ = run(capsys, ["dist", "--metric", "hyperbolic", "[1]", "[0]"])
        assert code == 0
        assert out.strip() == "0.881373587019543"

    def test_zero_distance(self, capsys):
        code, out, _ = run(capsys, ["dist", "--metric", "hyperbolic", "[0]", "[0]"])
        assert code == 0
        assert float(out) == 0.0

    def test_sphere_value(self, capsys):
        code, out, _ = run(capsys, ["dist", "--metric", "sphere", "[1,0]", "[0,1]"])
        assert code == 0
        assert float(out) == 0.5

    def test_sphere_and_projective_take_any_nonzero_vector(self, capsys):
        code, out, _ = run(capsys, ["dist", "--metric", "sphere", "[2,0]", "[0,3]"])
        assert (code, out) == (0, "0.5\n")
        code, out, _ = run(capsys, ["dist", "--metric", "projective", "[1,0]", "[-3,0]"])
        assert (code, out) == (0, "0\n")
        code, _, err = run(capsys, ["dist", "--metric", "sphere", "[0,0]", "[1,0]"])
        assert code == 2
        assert "zero vector" in err

    def test_euclidean(self, capsys):
        code, out, _ = run(capsys, ["dist", "--metric", "euclidean", "[3,4]", "[0,0]"])
        assert code == 0
        assert float(out) == 5.0

    def test_projective(self, capsys):
        code, out, _ = run(capsys, ["dist", "--metric", "projective", "[1,0]", "[-1,0]"])
        assert code == 0
        assert float(out) == 0.0

    def test_dimension_mismatch_exits_2(self, capsys):
        code, _, err = run(capsys, ["dist", "[1]", "[1,2]"])
        assert code == 2
        assert "dimension" in err

    def test_bad_point_exits_2(self, capsys):
        code, _, err = run(capsys, ["dist", "[1]", "[nope]"])
        assert code == 2

    def test_dim_flag_validated(self, capsys):
        code, _, err = run(capsys, ["dist", "--dim", "3", "[1,2]", "[0,1]"])
        assert code == 2

    def test_exact_digits(self, capsys):
        _, out15, _ = run(capsys, ["dist", "[1]", "[0]"])
        _, out17, _ = run(capsys, ["dist", "--exact", "[1]", "[0]"])
        assert float(out17) == hyperbolic_distance([1.0], [0.0])  # lossless
        assert len(out17.strip()) >= len(out15.strip())


class TestGeodesic:
    def test_csv_shape_and_endpoints(self, capsys):
        code, out, _ = run(capsys, ["geodesic", "[0,0]", "[2,0]", "--samples", "9"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,x1,x2,p1,p2"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert rows.shape == (9, 5)
        assert np.allclose(rows[0, 1:3], [0.0, 0.0], atol=1e-12)
        assert np.allclose(rows[-1, 1:3], [2.0, 0.0], atol=1e-9)

    def test_rows_equidistant(self, capsys):
        _, out, _ = run(capsys, ["geodesic", "[0.5,1]", "[-2,0.25]", "--samples", "12",
                                 "--exact"])
        lines = out.strip().splitlines()[1:]
        rows = np.array([[float(v) for v in line.split(",")] for line in lines])
        pts = rows[:, 1:3]
        steps = hyperbolic_distance(pts[:-1], pts[1:])
        assert np.max(np.abs(steps - steps[0])) <= 1e-9

    def test_poincare_columns(self, capsys):
        _, out, _ = run(capsys, ["geodesic", "[0,0]", "[5,1]", "--samples", "6",
                                 "--exact"])
        lines = out.strip().splitlines()[1:]
        rows = np.array([[float(v) for v in line.split(",")] for line in lines])
        disk = rows[:, 3:5]
        assert np.all(np.linalg.norm(disk, axis=-1) < 1.0)
        assert np.allclose(disk, poincare_coords(rows[:, 1:3]), atol=1e-12)

    def test_coincident_endpoints_exit_2(self, capsys):
        code, _, err = run(capsys, ["geodesic", "[1,1]", "[1,1]"])
        assert code == 2

    def test_too_few_samples_exit_2(self, capsys):
        code, _, _ = run(capsys, ["geodesic", "[0,0]", "[1,0]", "--samples", "1"])
        assert code == 2

    def test_huge_samples_exit_2(self, capsys):
        # exited 1 with numpy's ValueError from np.linspace
        code, _, err = run(capsys, ["geodesic", "[0,0]", "[1,0]", "--samples", str(10**400)])
        assert code == 2 and "samples" in err


class TestFit:
    def test_random_isometry_pairs(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        g = random_isometry(rng, 3)
        src = rng.uniform(-4, 4, (6, 3))
        tgt = isometry_apply(g, src)
        payload = {"source": src.tolist(), "target": tgt.tolist()}
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, ["fit", str(path), "--exact"])
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"a", "U", "unique", "max_residual"}
        assert doc["unique"] is True
        assert doc["max_residual"] <= 1e-7
        assert np.allclose(doc["a"], g.a, atol=1e-7)

    def test_identity_pairs_not_unique(self, capsys, tmp_path):
        pts = [[0.0, 0.0], [1.0, 0.0]]
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"source": pts, "target": pts}))
        code, out, _ = run(capsys, ["fit", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["unique"] is False
        assert np.allclose(doc["U"], np.eye(2), atol=1e-9)

    def test_corrupted_pair_exits_3(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        src = rng.uniform(-3, 3, (4, 2))
        tgt = src.copy()
        tgt[2, 0] += 0.1
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"source": src.tolist(), "target": tgt.tolist()}))
        code, _, err = run(capsys, ["fit", str(path)])
        assert code == 3
        assert "pair" in err

    def test_decomposition_drift_exits_3(self, capsys, tmp_path):
        src, tgt = drifting_far_fit()
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"source": src.tolist(), "target": tgt.tolist()}))
        code, out, err = run(capsys, ["fit", str(path)])
        assert code == 3
        assert out == ""
        assert "drifts from orthogonal" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tolerance_exits_2(self, capsys, tmp_path, tol):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"source": [[0.0], [1.0]],
                                    "target": [[0.0], [2.5]]}))
        code, _, err = run(capsys, ["fit", str(path), "--tol", tol])
        assert code == 2
        assert "tolerance" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, ["fit", "/does/not/exist.json"])
        assert code == 2

    def test_json_round_trip_bytes(self, capsys, tmp_path):
        rng = np.random.default_rng(2)
        g = random_isometry(rng, 2)
        src = rng.uniform(-2, 2, (5, 2))
        payload = {"source": src.tolist(),
                   "target": isometry_apply(g, src).tolist()}
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(payload))
        _, out1, _ = run(capsys, ["fit", str(path), "--exact"])
        _, out2, _ = run(capsys, ["fit", str(path), "--exact"])
        assert out1 == out2
        doc = json.loads(out1)
        assert json.dumps(json.loads(out1), sort_keys=True, indent=2) + "\n" == out1


class TestParallel:
    def test_direction_and_gaps(self, capsys):
        code, out, _ = run(capsys, ["parallel", "[1,0]", "[0,1]", "--mu", "2",
                                    "--samples", "400", "--exact"])
        assert code == 0
        doc = json.loads(out)
        assert np.allclose(doc["lines"][0]["direction"],
                           np.array([2.0, 1.0]) / np.sqrt(5.0), atol=1e-12)
        assert all(gap > 1e-4 for gap in doc["min_gaps"])

    def test_mu_gate_exits_2(self, capsys):
        code, _, _ = run(capsys, ["parallel", "[1,0]", "[0,1]", "--mu", "1"])
        assert code == 2

    def test_no_mu_exits_2(self, capsys):
        code, _, _ = run(capsys, ["parallel", "[1,0]", "[0,1]"])
        assert code == 2

    # -5 and 10**400 exited 1 with a traceback from math.sqrt; 0 scanned a
    # 2x2 grid
    @pytest.mark.parametrize("samples", ["-5", "0", pytest.param(str(10**400), id="1e400")])
    def test_bad_samples_exits_2(self, capsys, samples):
        code, out, err = run(capsys, ["parallel", "[1,0]", "[0,1]", "--mu", "2",
                                      "--samples", samples])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "samples" in err


class TestRigidity:
    def test_table(self, capsys):
        code, out, _ = run(capsys, ["rigidity", "--c", "0.5", "--c", "1", "--c", "2",
                                    "--t", "1.01", "--t", "2", "--t", "5"])
        assert code == 0
        doc = json.loads(out)
        assert doc["compatible"] == [False, True, False]
        i, j = doc["c_values"].index(2.0), doc["t_grid"].index(2.0)
        assert doc["residuals"][i][j] == pytest.approx(18.0, abs=1e-9)

    def test_bad_t_exits_2(self, capsys):
        code, _, _ = run(capsys, ["rigidity", "--t", "0.5"])
        assert code == 2

    # --t 1e300 exited 1 with a traceback; nan printed nan
    @pytest.mark.parametrize("argv", [
        ["--t", "1e300"], ["--t", "nan"], ["--c", "inf"],
    ])
    def test_overflow_and_non_finite_exit_2(self, capsys, argv):
        code, _, err = run(capsys, ["rigidity", *argv])
        assert code == 2
        assert err.startswith("error:")


class TestOmega:
    def test_sqrt_passes(self, capsys):
        code, out, _ = run(capsys, ["omega", "--gauge", "sqrt"])
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_square_fails(self, capsys):
        code, out, _ = run(capsys, ["omega", "--gauge", "square"])
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is False
        assert doc["violation"]["condition"] == "subadditive"

    def test_identity_passes(self, capsys):
        code, out, _ = run(capsys, ["omega", "--gauge", "identity"])
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_unknown_gauge_exits_2(self, capsys):
        code, _, _ = run(capsys, ["omega", "--gauge", "cubic"])
        assert code == 2

    def test_table_file(self, capsys, tmp_path):
        path = tmp_path / "gauge.json"
        path.write_text(json.dumps([[0.0, 0.0], [1.0, 0.7], [2.0, 1.0]]))
        code, out, _ = run(capsys, ["omega", "--table", str(path)])
        assert code == 0
        assert json.loads(out)["passed"] is True

    # a NaN knot was accepted
    @pytest.mark.parametrize("knot", [float("nan"), float("inf")])
    def test_non_finite_knot_exits_2(self, capsys, tmp_path, knot):
        path = tmp_path / "gauge.json"
        path.write_text(json.dumps([[0.0, 0.0], [knot, 0.7], [2.0, 1.0]]))
        code, out, err = run(capsys, ["omega", "--table", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestCounterexampleAndSphereRadius:
    def test_counterexample(self, capsys):
        code, out, _ = run(capsys, ["counterexample", "--exact"])
        assert code == 0
        doc = json.loads(out)
        assert doc["verified"] is True
        assert doc["gram_margin"] >= 0.1
        assert doc["inner_products"]["x_z1"] == 0.25

    def test_counterexample_higher_dim(self, capsys):
        code, out, _ = run(capsys, ["counterexample", "--dim", "5"])
        assert code == 0
        assert len(json.loads(out)["x"]) == 6

    # only dist, geodesic, parallel (point dimension) and counterexample
    # (sphere dimension) read --dim; the others accepted and ignored it
    @pytest.mark.parametrize("argv", [["omega"], ["rigidity"], ["sphere-radius", "1"]])
    def test_dim_rejected_where_unused(self, capsys, argv):
        code, _, _ = run(capsys, [*argv, "--dim", "3"])
        assert code == 2

    def test_sphere_radius(self, capsys):
        code, out, _ = run(capsys, ["sphere-radius", "0"])
        assert code == 0
        assert float(out) == 0.0

    def test_sphere_radius_negative_exits_2(self, capsys):
        code, _, _ = run(capsys, ["sphere-radius", "--", "-1"])
        assert code == 2

    # 1000 exited 1 with a traceback; nan exited 0 and printed nan
    @pytest.mark.parametrize("r", ["1000", "nan", "inf"])
    def test_sphere_radius_overflow_and_non_finite_exit_2(self, capsys, r):
        code, _, err = run(capsys, ["sphere-radius", r])
        assert code == 2
        assert err.startswith("error:")


class TestDeterminism:
    def test_repeat_runs_identical(self, capsys):
        _, out1, _ = run(capsys, ["parallel", "[1,0]", "[0,1]", "--mu", "1.5",
                                  "--samples", "400"])
        _, out2, _ = run(capsys, ["parallel", "[1,0]", "[0,1]", "--mu", "1.5",
                                  "--samples", "400"])
        assert out1 == out2
