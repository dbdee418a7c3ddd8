"""Command-line surface: exit codes, artifacts, and the verification suites.

Everything drives main(argv) in process; artifacts land in tmp_path.
"""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pdekit.spectral_ops as spectral_ops
import pdekit.spectral_system as spectral_system
from pdekit.cli import EXAMPLES, SUITES, _write_solution, build_parser, main
from pdekit.golden import GOLDEN_NAMES, generate_golden
from pdekit.matrixio import read_coordinate
from pdekit.solver import manufactured_problem


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

    def test_module_runs_from_a_checkout(self):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-m", "pdekit", "--help"],
                              env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0
        assert "usage: pdekit" in proc.stdout

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
        assert meta["solution_file"] == "solution.npy"
        assert not (tmp_path / "solution.csv").exists()
        values = np.load(tmp_path / "solution.npy")
        assert values.shape == (17, 17)
        assert np.isfinite(values.real).all()
        # the text form stays one flag away
        assert main(["solve", "--example", "poisson-2d-cheb", "--out", str(tmp_path),
                     "--format", "csv"]) == 0
        capsys.readouterr()
        rows = read_csv(tmp_path / "solution.csv")
        assert len(rows) == 17 * 17
        assert list(rows[0]) == ["index", "re", "im"]
        assert all(np.isfinite(float(r["re"])) for r in rows)
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["solution_file"] == "solution.csv"

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
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["preconditioner"] == "substitution"
        assert meta["iterations"] == 0 and meta["restarts"] == 0

    def test_no_kappa_above_dense_limit(self, tmp_path, capsys, monkeypatch):
        # between B's 17 rows and L's 289: the report is refused, the indicator kept
        monkeypatch.setattr(spectral_system, "DENSE_LIMIT", 64)
        assert main(["solve", "--example", "poisson-2d-cheb",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert not {"kappa", "kappa_method", "kappa_lu_nnz", "kappa_applications"} & set(meta)
        assert meta["residual"] < 1e-10
        # the near-singularity indicator needs no condition report
        assert meta["min_eig_sum"] > 0.0

    @pytest.mark.parametrize("limit", [4096, 64, 16])
    def test_one_near_singularity_indicator_per_solve(self, tmp_path, capsys, monkeypatch,
                                                      limit):
        # min_eig_sum reads the spectrum of the solve's own eig form: one eig of B's 17 rows
        # per solve, no eigvals, and the key written with the report (4096) or without it
        monkeypatch.setattr(spectral_system, "DENSE_LIMIT", limit)
        calls = []
        eig, eigvals = np.linalg.eig, np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eig", lambda M: calls.append(("eig", M.shape)) or eig(M))
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda M: calls.append(("eigvals", M.shape)) or eigvals(M))
        assert main(["solve", "--example", "poisson-2d-cheb", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert calls == [("eig", (17, 17))]
        assert meta["min_eig_sum"] > 0.0 and meta["residual"] < 1e-10
        assert ("kappa" in meta) == (limit >= 289)

    @pytest.mark.parametrize("spec", [
        {"method": "spectral", "basis": "chebyshev", "d": 2, "n": 16, "solution": "exp-sin"},
        {"method": "spectral", "basis": "fourier", "d": 2, "n": 8,
         "A": [[1.0, 0.2], [0.2, 1.5]], "solution": "exp-sin-pi"}])
    def test_one_closed_block_per_solve(self, spec, tmp_path, capsys, monkeypatch):
        # assembly builds B; the preconditioner and min_eig_sum read it off the system
        calls = []
        original = spectral_ops.diff_matrix

        def counted(*args, **kwargs):
            calls.append(kwargs.get("with_boundary_rows", False))
            return original(*args, **kwargs)
        for module in list(sys.modules.values()):
            if getattr(module, "diff_matrix", None) is original:
                monkeypatch.setattr(module, "diff_matrix", counted)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["solve", "--spec", str(path), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert calls.count(True) == 1

    def test_solver_and_iterations_recorded(self, tmp_path, capsys):
        spec = {"method": "spectral", "basis": "chebyshev", "d": 2, "n": 12,
                "A": [[1.0, 0.3], [0.3, 1.0]], "solution": "exp-sin"}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["solve", "--spec", str(path), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        meta = json.loads((tmp_path / "metadata.json").read_text())
        keys = list(meta)
        assert keys[keys.index("residual") - 1:keys.index("residual") + 2] == [
            "solver", "residual", "iterations"]
        assert meta["solver"] == "gmres" and meta["iterations"] > 1
        assert keys[keys.index("iterations") + 1:keys.index("iterations") + 3] == [
            "preconditioner", "restarts"]
        assert meta["preconditioner"] == "eig" and meta["restarts"] == 0
        assert meta["residual"] <= 1e-12
        system, _ = manufactured_problem("exp-sin", np.array(spec["A"]), "chebyshev", 12)
        assert meta["min_eig_sum"] == spectral_system.min_eig_sum(system)
        report = spectral_system.condition_report(system)
        assert keys[keys.index("kappa"):keys.index("kappa") + 4] == [
            "kappa", "kappa_method", "kappa_lu_nnz", "kappa_applications"]
        assert meta["kappa"] == report["kappa"]
        assert meta["kappa_applications"] == report["applications"] > 0
        assert meta["kappa_method"] == "lanczos-splu"
        assert meta["kappa_lu_nnz"] == report["lu_nnz"] >= system.L.nnz

    def test_pure_part_kappa_comes_from_the_eigenbasis(self, tmp_path, capsys):
        spec = {"method": "spectral", "basis": "chebyshev", "d": 2, "n": 12,
                "A": [[1.0, 0.0], [0.0, 1.5]], "solution": "exp-sin"}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["solve", "--spec", str(path), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        meta = json.loads((tmp_path / "metadata.json").read_text())
        system, _ = manufactured_problem("exp-sin", np.array(spec["A"]), "chebyshev", 12)
        assert meta["kappa"] == spectral_system.condition_report(system)["kappa"]
        assert meta["kappa_method"] == "lanczos-eig" and meta["kappa_lu_nnz"] is None

    @pytest.mark.parametrize("spec", [
        {"method": "spectral", "basis": "chebyshev", "d": 2, "n": 12,
         "A": [[1.0, 0.3], [0.3, 1.0]], "solution": "exp-sin"},
        {"method": "spectral", "basis": "fourier", "d": 2, "n": 12, "solution": "exp-sin-pi"}])
    def test_kappa_applications_repeat_exactly(self, spec, tmp_path, capsys):
        # a count, not a time: two runs of one spec write the same kappa_applications
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        metas = []
        for run in ("a", "b"):
            assert main(["solve", "--spec", str(path), "--out", str(tmp_path / run)]) == 0
            capsys.readouterr()
            metas.append(json.loads((tmp_path / run / "metadata.json").read_text()))
        assert metas[0]["kappa_applications"] == metas[1]["kappa_applications"] > 1
        assert metas[0]["kappa"] == metas[1]["kappa"]

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


def csv_writer_bytes(values):
    """solution.csv as csv.writer writes [i, repr(re), repr(im)] for each complex value."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(["index", "re", "im"])
    for i in range(values.size):
        v = complex(values[i])
        writer.writerow([i, repr(v.real), repr(v.imag)])
    return fh.getvalue().encode()


EDGE_VALUES = [0.0, -0.0, 1.0, -1.5, 1 / 3, 5e-324, -2.2250738585072014e-308,
               1.7976931348623157e308, -1e300, 1e-5, 123456789.0, 1e16, np.inf, -np.inf, np.nan]
COMPLEX_EDGES = np.array(EDGE_VALUES, dtype=complex)
COMPLEX_EDGES.imag = -np.array(EDGE_VALUES[::-1])   # set apart: 1j * inf computes inf * 0


SOLUTION_CASES = [
    np.array(EDGE_VALUES),
    COMPLEX_EDGES,
    np.array([-0.0 - 0.0j, 0.0 - 0.0j, -0.0 + 0.0j]),
    np.arange(7),
    np.random.default_rng(5).normal(size=300) * 10.0 ** np.arange(-150, 150),
]
SOLUTION_IDS = ["real", "complex", "signed-zeros", "integers", "exponents"]


@pytest.mark.parametrize("values", SOLUTION_CASES, ids=SOLUTION_IDS)
def test_solution_csv_matches_csv_writer(values, tmp_path, capsys):
    _write_solution(tmp_path, "csv", "chebyshev", 2, 1, values, {})
    capsys.readouterr()
    assert (tmp_path / "solution.csv").read_bytes() == csv_writer_bytes(values)


def read_npy_header(path):
    """(shape, fortran_order, bytes before the data) of a version 1.0 .npy file."""
    with open(path, "rb") as fh:
        assert np.lib.format.read_magic(fh) == (1, 0)
        shape, fortran, _ = np.lib.format.read_array_header_1_0(fh)
        return shape, fortran, fh.tell()


@pytest.mark.parametrize("values", SOLUTION_CASES, ids=SOLUTION_IDS)
def test_solution_npy_round_trips(values, tmp_path, capsys):
    default = build_parser().parse_args(["solve"]).format
    npy, text = tmp_path / "npy", tmp_path / "csv"
    # one axis of n + 1 Chebyshev nodes holds every value
    _write_solution(npy, default, "chebyshev", values.size - 1, 1, values, {})
    _write_solution(text, "csv", "chebyshev", values.size - 1, 1, values, {})
    capsys.readouterr()
    assert not (npy / "solution.csv").exists()
    assert json.loads((npy / "metadata.json").read_text()) == {"solution_file": "solution.npy"}
    dtype = np.complex128 if np.iscomplexobj(values) else np.float64
    got = np.load(npy / "solution.npy")
    assert got.shape == (values.size,) and got.dtype == dtype
    assert got.tobytes() == np.asarray(values, dtype=dtype).tobytes()
    shape, fortran, offset = read_npy_header(npy / "solution.npy")
    assert shape == got.shape and not fortran
    assert (npy / "solution.npy").stat().st_size == offset + dtype().itemsize * values.size
    rows = read_csv(text / "solution.csv")
    assert [int(r["index"]) for r in rows] == list(range(values.size))
    for column, want in (("re", got.real), ("im", got.imag)):
        read = np.array([float(r[column]) for r in rows])
        assert np.array_equal(read, want, equal_nan=True)
        # the text keeps every sign, zeros included; a NaN's sign it drops
        assert np.array_equal(np.signbit(read) | np.isnan(read),
                              np.signbit(want) | np.isnan(want))


@pytest.mark.parametrize("basis, n, d, shape", [
    ("lattice", 4, 3, (8, 8, 8)), ("chebyshev", 4, 2, (5, 5)), ("fourier", 6, 1, (7,))])
def test_solution_npy_has_the_grid_shape(basis, n, d, shape, tmp_path, capsys):
    values = np.arange(math.prod(shape)) * (1 + 2j)
    _write_solution(tmp_path, "npy", basis, n, d, values, {})
    capsys.readouterr()
    got = np.load(tmp_path / "solution.npy")
    assert got.shape == shape and got.dtype == np.complex128
    # C order: flat index i is the text formats' row index = i
    assert np.array_equal(got.reshape(-1), values)


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
        assert meta["solution_file"] == "solution.npy"
        assert np.load(tmp_path / "solution.npy").shape == (32,)
        assert main(["solve", "--spec", str(path), "--out", str(tmp_path),
                     "--format", "csv"]) == 0
        capsys.readouterr()
        rows = read_csv(tmp_path / "solution.csv")
        assert len(rows) == 32 and list(rows[0]) == ["index", "re", "im"]

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
