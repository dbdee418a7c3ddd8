"""Command-line surface: exit codes, artifacts, and the verification suites.

Everything drives main(argv) in process; artifacts land in tmp_path.
"""

import csv
import json

import numpy as np
import pytest

import pdekit.spectral_system as spectral_system
from pdekit.cli import EXAMPLES, SUITES, main
from pdekit.golden import GOLDEN_NAMES, generate_golden
from pdekit.matrixio import read_coordinate


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestEntryPoints:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_help_exits_clean(self, capsys):
        assert main(["--help"]) == 0
        assert "pdekit" in capsys.readouterr().out

    def test_suite_names_pinned(self):
        assert SUITES == ("fdm_kappa", "svd_fourier", "svd_chebyshev",
                          "kappa_poisson", "kappa_general", "stencil",
                          "transforms")
        assert "poisson-2d-cheb" in EXAMPLES

    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["verify-bounds", "--suite", "nonsense"]) == 2
        capsys.readouterr()


class TestReproduceGoldens:
    def test_exit_zero_and_table(self, capsys):
        assert main(["reproduce-goldens"]) == 0
        out = capsys.readouterr().out
        for name in GOLDEN_NAMES:
            assert name in out
        assert "mismatch" not in out

    def test_out_writes_parseable_copies(self, tmp_path, capsys):
        assert main(["reproduce-goldens", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        for name in GOLDEN_NAMES:
            path = tmp_path / f"{name}.mtx"
            assert path.exists()
            back = read_coordinate(path).toarray()
            ref = np.asarray(generate_golden(name), dtype=complex)
            assert back.shape == ref.shape
            assert np.array_equal(back, ref)


class TestVerifyBounds:
    @pytest.mark.parametrize("suite,rows", [
        ("stencil", 30),
        ("transforms", 63),
        ("fdm_kappa", 45),
        ("svd_fourier", 61),
        ("svd_chebyshev", 61),
    ])
    def test_passing_suites(self, suite, rows, tmp_path, capsys):
        assert main(["verify-bounds", "--suite", suite,
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"{suite}: {rows}/{rows} checks passed" in out
        table = read_csv(tmp_path / f"{suite}.csv")
        assert len(table) == rows
        assert all(r["pass"] == "True" for r in table)

    def test_kappa_poisson_fails_honestly(self, tmp_path, capsys):
        # the fourth-power bound holds for every Fourier system and is
        # violated by Chebyshev ones; the suite reports that and exits 1
        assert main(["verify-bounds", "--suite", "kappa_poisson",
                     "--out", str(tmp_path)]) == 1
        capsys.readouterr()
        table = read_csv(tmp_path / "kappa_poisson.csv")
        assert len(table) == 42
        fourier = [r for r in table if r["basis"] == "fourier"]
        cheb = [r for r in table if r["basis"] == "chebyshev"]
        assert all(r["pass"] == "True" for r in fourier)
        assert any(r["pass"] == "False" for r in cheb)

    def test_kappa_general_fails_honestly(self, tmp_path, capsys):
        assert main(["verify-bounds", "--suite", "kappa_general",
                     "--seed", "0", "--out", str(tmp_path),
                     "--format", "json"]) == 1
        capsys.readouterr()
        rows = json.loads((tmp_path / "kappa_general.json").read_text())
        # 50 seeded draws, each assembled in both bases
        assert len(rows) == 100
        fourier = [r for r in rows if r["basis"] == "fourier"]
        cheb = [r for r in rows if r["basis"] == "chebyshev"]
        assert len(fourier) == len(cheb) == 50
        assert all(r["pass"] for r in fourier)
        assert any(not r["pass"] for r in cheb)
        # the operators the rows carry stay out of the file; bounds are numbers
        assert "L" not in rows[0] and isinstance(rows[0]["kappa_bound"], float)


class TestSolveSpectral:
    def test_example_artifacts(self, tmp_path, capsys):
        assert main(["solve", "--example", "poisson-2d-cheb",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["method"] == "spectral"
        assert meta["basis"] == "chebyshev" and meta["d"] == 2 and meta["n"] == 16
        assert meta["errors"]["l2_rel"] < 1e-8
        assert meta["residual"] < 1e-10
        assert meta["kappa"] > 1.0
        rows = read_csv(tmp_path / "solution.csv")
        assert len(rows) == 17 * 17
        assert list(rows[0]) == ["index", "re", "im"]
        assert all(np.isfinite(float(r["re"])) for r in rows)

    def test_json_format(self, tmp_path, capsys):
        assert main(["solve", "--example", "poisson-2d-cheb",
                     "--out", str(tmp_path), "--format", "json"]) == 0
        capsys.readouterr()
        payload = json.loads((tmp_path / "solution.json").read_text())
        assert payload["basis"] == "chebyshev"
        assert len(payload["values_re"]) == 17 * 17

    def test_auto_truncation_recorded(self, tmp_path, capsys):
        spec = {"method": "spectral", "basis": "fourier", "d": 1,
                "n": "auto", "auto": {"eps": 1e-6, "g": 1.0, "gprime": 1.0},
                "solution": "sin-pi"}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["solve", "--spec", str(path), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        meta = json.loads((tmp_path / "metadata.json").read_text())
        # solved at the certified order; the printed formula's order rides along
        assert meta["n"] == 8
        assert meta["auto"] == {"eps": 1e-6, "g": 1.0, "gprime": 1.0,
                                "n_certified": 8, "n_formula": 5}

    def test_source_path_with_boundary_data(self, tmp_path, capsys):
        spec = {"method": "spectral", "basis": "chebyshev", "d": 1,
                "n": 8, "f": "one", "gamma": 0.25}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["solve", "--spec", str(path), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["residual"] < 1e-10
        assert meta["q"] is not None

    def test_point_closure_without_gamma(self, tmp_path, capsys):
        spec = {"method": "spectral", "basis": "fourier", "d": 1,
                "n": 8, "f": "sin-pi", "closure": "point"}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["solve", "--spec", str(path), "--out", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_no_kappa_above_dense_limit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(spectral_system, "DENSE_LIMIT", 16)
        assert main(["solve", "--example", "poisson-2d-cheb",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert "kappa" not in meta
        assert meta["residual"] < 1e-10

    def test_singular_system_is_runtime_failure(self, tmp_path, capsys):
        spec = {"method": "spectral", "basis": "chebyshev", "d": 3,
                "n": 2, "solution": "exp-sin"}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["solve", "--spec", str(path), "--out", str(tmp_path)]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("spec", [
        {"method": "spectral", "basis": "chebyshev", "d": 1, "n": 8, "f": "one"},
        {"method": "spectral", "basis": "hermite", "d": 1, "n": 8, "f": "one"},
        {"method": "spectral", "basis": "fourier", "d": 1, "f": "sin-pi"},
        {"method": "spectral", "basis": "fourier", "d": 1, "n": "auto",
         "auto": {"eps": 1e-6}, "solution": "sin-pi"},
        {"method": "spectral", "basis": "fourier", "d": 0, "n": 8, "f": "sin-pi"},
        {"method": "spectral", "basis": "fourier", "d": 1, "n": 8},
        {"method": "carbon", "d": 1, "n": 8},
        {"basis": "fourier", "d": 1, "n": 8},
    ])
    def test_spec_validation_is_exit_2(self, spec, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["solve", "--spec", str(path), "--out", str(tmp_path)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("spec", [
        {"method": "fdm", "d": 1, "k": 1, "solution": "sin"},
        {"method": "fdm", "d": "two", "n": 16, "k": 1, "solution": "sin"},
        {"method": "spectral", "basis": "fourier", "d": 2, "n": 8,
         "A": [[1, 0], [0, "x"]], "solution": "exp-sin-pi"},
        {"method": "spectral", "basis": "chebyshev", "d": 2, "n": 8, "f": "one",
         "gamma": [[1]]},
        {"method": "fdm", "d": 1, "n": [], "k": 1, "solution": "sin"},
        {"method": "spectral", "basis": "fourier", "d": 1, "n": 8, "f": "sin-pi",
         "closure": "point", "gamma": "x"},
        {"method": "spectral", "basis": "fourier", "d": 1, "n": 8,
         "solution": "sin-pi", "closure": "pin"},
        {"method": "spectral", "basis": "chebyshev", "d": 2, "n": 8,
         "solution": "exp-sin", "closure": "bogus"},
        {"method": "spectral", "basis": "chebyshev", "d": 1, "n": 8, "f": "one",
         "gamma": 0.25, "closure": "point"},
        {"method": "spectral", "basis": "chebyshev", "d": 2, "n": 16.9, "solution": "exp-sin"},
        {"method": "spectral", "basis": "chebyshev", "d": 2, "n": "8", "solution": "exp-sin"},
        {"method": "spectral", "basis": "chebyshev", "d": True, "n": 8, "solution": "exp-sin"},
        {"method": "spectral", "basis": "chebyshev", "d": 1.7, "n": 8, "solution": "exp-sin"},
        {"method": "spectral", "basis": "fourier", "d": 1, "n": 8, "f": "sin-pi",
         "gamma": [[1.0, 5.0]]},
        {"method": "spectral", "basis": "chebyshev", "d": 1, "n": 8, "f": "one", "gamma": True},
        {"method": "spectral", "basis": "chebyshev", "d": 1, "n": 8, "f": "one",
         "gamma": [[1.0, False]]},
        {"method": "spectral", "basis": "fourier", "d": 1, "n": 8, "f": "sin-pi",
         "closure": "point", "gamma": False},
        {"method": "spectral", "basis": "chebyshev", "d": 1, "n": 8, "f": "one", "gamma": 1.0,
         "A": [[True]]},
        {"method": "spectral", "basis": "chebyshev", "d": 1, "n": 8, "f": "one", "gamma": 1.0,
         "A": [[1.0], [2.0, 3.0]]},
        {"method": "spectral", "basis": "chebyshev", "d": 1, "n": "auto", "solution": "exp-sin",
         "auto": {"eps": True, "g": 1.0, "gprime": 1.0}},
        {"method": "spectral", "basis": "chebyshev", "d": 1, "n": "auto", "solution": "exp-sin",
         "auto": {"eps": 1e-6, "g": True, "gprime": 1.0}},
        {"method": "spectral", "basis": "chebyshev", "d": 1, "n": "auto", "solution": "exp-sin",
         "auto": {"eps": 1e-6, "g": 1.0, "gprime": False}},
        {"method": "spectral", "basis": "chebyshev", "d": 1, "n": "auto", "solution": "exp-sin",
         "auto": {"eps": "1e-6", "g": 1.0, "gprime": 1.0}},
    ])
    def test_malformed_fields_are_spec_errors(self, spec, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["solve", "--spec", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("spec error:")

    def test_unreadable_specs(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        assert main(["solve", "--spec", str(bad)]) == 2
        assert main(["solve", "--spec", str(tmp_path / "missing.json")]) == 2
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        assert main(["solve", "--spec", str(arr)]) == 2
        assert main(["solve", "--example", "warp-core"]) == 2
        assert main(["solve"]) == 2
        capsys.readouterr()


class TestSolveFdm:
    def test_single_run(self, tmp_path, capsys):
        # an integral float is an integer field
        for d, n, k in [(1.0, 16.0, 2.0), (1, 16, 2)]:
            spec = {"method": "fdm", "d": d, "n": n, "k": k, "solution": "sin"}
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(spec))
            assert main(["solve", "--spec", str(path), "--out", str(tmp_path)]) == 0
            capsys.readouterr()
            meta = json.loads((tmp_path / "metadata.json").read_text())
            assert (meta["d"], meta["n"], meta["k"]) == (1, 16, 2)
        assert meta["method"] == "fdm" and meta["solver"] == "eigen"
        assert meta["errors"]["l2_rel"] == pytest.approx(1.646e-5, rel=0.05)
        assert meta["kappa"] > 1.0
        assert len(read_csv(tmp_path / "solution.csv")) == 32

    def test_sweep_writes_rows(self, tmp_path, capsys):
        spec = {"method": "fdm", "d": 1, "n": [8, 16], "k": 1, "solution": "sin"}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["solve", "--spec", str(path), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        rows = read_csv(tmp_path / "fdm_sweep.csv")
        assert [int(r["n"]) for r in rows] == [8, 16]
        assert float(rows[1]["l2_rel"]) < float(rows[0]["l2_rel"])

    @pytest.mark.parametrize("spec", [
        {"method": "fdm", "d": 1, "n": 16, "k": 1, "solution": "cubic"},
        {"method": "fdm", "d": 1, "n": 16, "k": 1, "solution": "sin",
         "bc": "dirichlet"},
        {"method": "fdm", "d": 0, "n": 16, "k": 1, "solution": "sin"},
        {"method": "fdm", "d": 1, "n": 1, "k": 1, "solution": "sin"},
        {"method": "fdm", "d": 1, "n": 16, "k": 0, "solution": "sin"},
        {"method": "fdm", "d": 2, "n": [8, 1], "k": 1, "solution": "sin"},
        {"method": "fdm", "d": 1, "n": 16, "k": 2.5, "solution": "sin"},
        {"method": "fdm", "d": 1, "n": 16.9, "k": 1, "solution": "sin"},
        {"method": "fdm", "d": True, "n": 16, "k": 1, "solution": "sin"},
        {"method": "fdm", "d": 1, "n": [8, 16.5], "k": 1, "solution": "sin"},
        {"method": "fdm", "d": 1, "n": 16, "k": "2", "solution": "sin"},
    ])
    def test_fdm_spec_validation(self, spec, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["solve", "--spec", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("spec error:")
