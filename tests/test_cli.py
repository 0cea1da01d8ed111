import csv
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from protoqubo import InputError
from protoqubo.cli import build_parser, ingest_csv, main, parse_kernel, run

TWO_POINT_CSV = f"0\n{math.sqrt(2.0)!r}\n"
FAR_POINTS_CSV = "1e200,0\n-1e200,0\n0,1\n"  # coordinate differences whose squares overflow
NON_FINITE_DISTANCES = "protoqubo: input error: distance matrix contains non-finite entries\n"


@pytest.fixture
def two_point_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(TWO_POINT_CSV)
    return str(path)


@pytest.fixture
def blob_file(tmp_path):
    rng = np.random.default_rng(80)
    pts = np.vstack([rng.normal(0, 0.4, (6, 2)), rng.normal(4, 0.4, (6, 2))])
    path = tmp_path / "blobs.csv"
    path.write_text("\n".join(f"{float(a)!r},{float(b)!r}" for a, b in pts) + "\n")
    return str(path)


class TestIngest:
    def test_basic(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,0\n3,4\n")
        data = ingest_csv(str(f))
        assert data.n == 2 and data.d == 2

    def test_header(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\n0,0\n")
        data = ingest_csv(str(f), has_header=True)
        assert data.n == 1 and data.d == 2

    def test_ragged_rows_report_location(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,2\n3\n")
        with pytest.raises(InputError, match="row 2"):
            ingest_csv(str(f))

    def test_non_numeric_reports_location(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,2\n3,oops\n")
        with pytest.raises(InputError, match="row 2, column 2"):
            ingest_csv(str(f))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_reports_location(self, tmp_path, capsys, cell):
        data = tmp_path / "d.csv"
        data.write_text(f"1,2\n3,{cell}\n")
        assert main(["select", "--input", str(data), "--k", "1"]) == 1
        err = capsys.readouterr().err
        assert f"{data}: row 2, column 2: not a finite number: {cell!r}" in err
        assert "dataset" not in err

        kernel = tmp_path / "k.csv"
        kernel.write_text(f"1,{cell}\n{cell},1\n")
        points = tmp_path / "two.csv"
        points.write_text("0\n1\n")
        assert main(["select", "--input", str(points), "--k", "1",
                     "--kernel", f"precomputed:{kernel}"]) == 1
        err = capsys.readouterr().err
        assert f"{kernel}: row 1, column 2: not a finite number: {cell!r}" in err
        assert "dataset" not in err

    def test_leading_byte_order_mark_is_skipped(self, tmp_path, capsys):
        # spreadsheet exports start UTF-8 text with U+FEFF; only a leading one is dropped
        kernel = tmp_path / "k.csv"
        kernel.write_bytes("\ufeff1,0.5\n0.5,1\n".encode())
        data = tmp_path / "d.csv"
        data.write_bytes("\ufeff0,0\n3,4\n".encode())
        np.testing.assert_array_equal(ingest_csv(str(data)).points, [[0.0, 0.0], [3.0, 4.0]])
        np.testing.assert_array_equal(parse_kernel(f"precomputed:{kernel}").entries,
                                      [[1.0, 0.5], [0.5, 1.0]])
        assert main(["select", "--input", str(data), "--k", "1",
                     "--kernel", f"precomputed:{kernel}"]) == 0
        assert json.loads(capsys.readouterr().out)["selected_indices"] == [0]
        data.write_bytes("0,0\n\ufeff3,4\n".encode())
        with pytest.raises(InputError, match=r"row 2, column 1: not a number: '\\ufeff3'"):
            ingest_csv(str(data))

    def test_corpus_reads_as_float_reads_each_cell(self, tmp_path):
        spec = importlib.util.spec_from_file_location(
            "cli_diff", Path(__file__).resolve().parent.parent / "tools" / "cli_diff.py")
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        for name, text in tool.INGEST_VALID.items():
            header = name.startswith("header")
            rows = list(csv.reader(io.StringIO(text)))[header:]
            expected = np.array([[float(cell) for cell in row] for row in rows
                                 if any(cell.strip() for cell in row)])
            path = tmp_path / name
            path.write_text(text, encoding="utf-8")
            points = ingest_csv(str(path), has_header=header).points
            assert points.shape == expected.shape and points.tobytes() == expected.tobytes(), name

    def test_peak_memory_is_about_two_copies_of_the_data(self, tmp_path):
        # one buffer of doubles plus the dataset's validated copy, and no
        # Python float per cell held until the end
        n = d = 500
        path = tmp_path / "d.csv"
        path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n"
                                for row in np.random.default_rng(5).random((n, d))))
        ingest_csv(str(path))  # warm-up: imports and the csv module's caches
        tracemalloc.start()
        try:
            ingest_csv(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * d * 8, peak / (n * d * 8)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("")
        with pytest.raises(InputError):
            ingest_csv(str(f))

    def test_missing_file(self):
        with pytest.raises(InputError):
            ingest_csv("/nonexistent/nope.csv")


class TestKernelParsing:
    def test_spec_strings(self):
        from protoqubo import LaplacianKernel, RbfKernel

        assert parse_kernel("rbf:2.0") == RbfKernel(2.0)
        assert parse_kernel("laplacian:0.5") == LaplacianKernel(0.5)

    def test_bad_specs(self):
        for bad in ("rbf", "rbf:", "rbf:x", "huh:1"):
            with pytest.raises(InputError):
                parse_kernel(bad)

    def test_precomputed(self, tmp_path):
        f = tmp_path / "k.csv"
        f.write_text("1,0.5\n0.5,1\n")
        spec = parse_kernel(f"precomputed:{f}")
        np.testing.assert_array_equal(spec.entries, [[1.0, 0.5], [0.5, 1.0]])

    def test_precomputed_is_a_kernel_matrix_used_as_it_is(self, tmp_path):
        from protoqubo import Dataset, KernelMatrix, kernel_matrix

        f = tmp_path / "k.csv"
        f.write_text("1,0.5\n0.5000000000005,1\n")  # skew 5e-13: the upper triangle is kept
        K = parse_kernel(f"precomputed:{f}")
        assert type(K) is KernelMatrix and K.normalized
        np.testing.assert_array_equal(K.entries, [[1.0, 0.5], [0.5, 1.0]])
        assert kernel_matrix(K, Dataset(np.zeros((2, 1)))) is K

    @pytest.mark.parametrize("text, error", [
        ("1,0.5\n0.500000001,1\n", "precomputed kernel is not symmetric (max |M - M^T| = 1.000e-09)"),
        ("1,0,0\n0,1,0\n", "precomputed kernel must be a square 2-D matrix, got shape (2, 3)"),
        ("1,0,0\n0,1,0\n0,0,1\n", "precomputed kernel is 3x3 but the dataset has n=2"),
    ], ids=["skew", "not-square", "size"])
    def test_precomputed_errors(self, two_point_file, tmp_path, capsys, text, error):
        f = tmp_path / "k.csv"
        f.write_text(text)
        assert main(["select", "--input", two_point_file, "--k", "1",
                     "--kernel", f"precomputed:{f}"]) == 1
        assert capsys.readouterr() == ("", f"protoqubo: input error: {error}\n")


def select(*argv):
    """The report `run` builds from a parsed `select` command line."""
    return run(build_parser().parse_args(["select", *argv]))


class TestRun:
    def test_two_point_kde_constrained(self, two_point_file):
        result = select("--input", two_point_file, "--kernel", "rbf:2.0", "--k", "1",
                        "--formulation", "kde", "--solver", "constrained")
        assert result["selected_indices"] in ([0], [1])
        assert result["feasible"]
        expected = 0.5 * (1.0 - math.exp(-1.0))
        assert result["mmd_squared"] == pytest.approx(expected, rel=1e-12)

    def test_med_and_kde_agree_at_default_gamma(self, two_point_file):
        kde = select("--input", two_point_file, "--kernel", "rbf:2.0", "--k", "1",
                     "--formulation", "kde", "--solver", "constrained")
        med = select("--input", two_point_file, "--kernel", "rbf:2.0", "--k", "1",
                     "--formulation", "med", "--solver", "constrained")
        assert kde["selected_indices"] == med["selected_indices"]

    def test_select_everything_zero_mmd(self, two_point_file):
        result = select("--input", two_point_file, "--kernel", "rbf:2.0", "--k", "2",
                        "--formulation", "kde", "--solver", "constrained")
        assert result["selected_indices"] == [0, 1]
        assert result["mmd_squared"] == pytest.approx(0.0, abs=1e-12)

    def test_solver_paths_agree(self, blob_file):
        base = ("--input", blob_file, "--kernel", "rbf:2.0", "--k", "2", "--formulation", "kde")
        constrained = select(*base, "--solver", "constrained")
        exhaustive = select(*base, "--solver", "exhaustive")
        sa = select(*base, "--solver", "sa", "--seed", "3")
        assert exhaustive["selected_indices"] == constrained["selected_indices"]
        assert sa["selected_indices"] == constrained["selected_indices"]
        assert sa["feasible"] and exhaustive["feasible"]
        # penalized objectives drop the lam * k^2 constant relative to the QBP
        assert exhaustive["mmd_squared"] == pytest.approx(constrained["mmd_squared"], abs=1e-12)

    def test_gamma_only_with_med(self, two_point_file):
        with pytest.raises(InputError):
            select("--input", two_point_file, "--kernel", "rbf:2.0", "--k", "1",
                   "--formulation", "kde", "--gamma", "1.0")

    def test_precomputed_kernel_select(self, two_point_file, tmp_path):
        kfile = tmp_path / "k.csv"
        kfile.write_text("1,0.5\n0.5,1\n")
        result = select("--input", two_point_file, "--kernel", f"precomputed:{kfile}",
                        "--k", "1", "--formulation", "med", "--solver", "constrained")
        assert result["selected_indices"] in ([0], [1])
        assert result["mmd_squared"] == pytest.approx(0.25, rel=1e-12)

    def test_objective_reevaluates_from_echoed_config(self, blob_file):
        from protoqubo import (
            Selection,
            build_kde_qbp,
            kernel_matrix,
            qbp_energy,
            qbp_to_qubo,
            qubo_energy,
        )

        result = select("--input", blob_file, "--kernel", "rbf:2.0", "--k", "3",
                        "--formulation", "kde", "--solver", "exhaustive")
        cfg = result["provenance"]["config"]
        data = ingest_csv(cfg["input_path"], cfg["has_header"])
        K = kernel_matrix(parse_kernel(cfg["kernel"]), data)
        qbp = build_kde_qbp(K, cfg["k"])
        q = qbp_to_qubo(qbp, cfg["lambda"])
        sel = Selection.from_indices(data.n, result["selected_indices"])
        assert qubo_energy(q, sel) == pytest.approx(result["objective"], abs=1e-9)

    @pytest.mark.parametrize("argv, builds", [
        (["select", "--formulation", "med"], 0),
        (["select", "--formulation", "kde"], 0),
        (["export-qubo", "--formulation", "med"], 0),
        (["export-qubo", "--formulation", "kde"], 0),
    ], ids=["select-med", "select-kde", "export-med", "export-kde"])
    def test_complement_distance_is_built_at_most_once(self, blob_file, monkeypatch, capsys,
                                                      argv, builds):
        # select's med negates 1 - K in place for its program's -D, and the
        # export folds a block of rows of 1 - K at a time; both formulations
        # score the selection's scatter from the selected columns of K
        import protoqubo.cli as cli

        calls = []
        original = cli.kernel_to_distance

        def counted(K):
            calls.append(K)
            return original(K)

        monkeypatch.setattr(cli, "kernel_to_distance", counted)
        assert main([*argv, "--input", blob_file, "--k", "2"]) == 0
        capsys.readouterr()
        assert len(calls) == builds

    @pytest.mark.parametrize("solver", ["constrained", "exhaustive", "sa"])
    @pytest.mark.parametrize("form", ["med", "kde"])
    def test_scatter_is_that_of_the_whole_complement(self, tmp_path, form, solver):
        # six points, each twice, under a precomputed kernel with noise of
        # +-5e-13: diagonal entries off 1 and duplicate entries above 1, which
        # `kernel_to_distance` zeroes and clamps in D = 1 - K; both
        # formulations score the scatter from K's selected columns alone
        from protoqubo import Dataset, kernel_matrix, kernel_to_distance

        rng = np.random.default_rng(3)
        x = np.repeat(rng.normal(size=(6, 2)), 2, axis=0)
        gram = np.exp(-((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2) / 2.0)
        noisy = np.triu(gram + rng.uniform(-5e-13, 5e-13, size=gram.shape))
        points, kfile = tmp_path / "x.csv", tmp_path / "k.csv"
        np.savetxt(points, x, delimiter=",", fmt="%.17g")
        np.savetxt(kfile, noisy + np.triu(noisy, 1).T, delimiter=",", fmt="%.17g")
        K = kernel_matrix(parse_kernel(f"precomputed:{kfile}"), Dataset(x))
        D = kernel_to_distance(K).entries
        assert (np.diag(K.entries) != 1.0).all() and (1.0 - K.entries < 0.0).any()
        sa = ["--sweeps", "100", "--restarts", "2"] if solver == "sa" else []
        for k in (1, 3, 5):
            result = select("--input", str(points), "--kernel", f"precomputed:{kfile}",
                            "--k", str(k), "--formulation", form, "--solver", solver, *sa)
            idx = result["selected_indices"]
            assert result["within_scatter"] == float(D[:, idx].min(axis=1).sum())

    @pytest.mark.parametrize("solver", ["constrained", "exhaustive", "sa"])
    def test_scatter_of_a_kernel_that_is_not_normalized_is_null(self, tmp_path, solver):
        points, kfile = tmp_path / "x.csv", tmp_path / "k.csv"
        points.write_text("0\n1\n2\n")
        kfile.write_text("2,0.5,0.25\n0.5,2,0.5\n0.25,0.5,2\n")
        sa = ["--sweeps", "20", "--restarts", "1"] if solver == "sa" else []
        result = select("--input", str(points), "--kernel", f"precomputed:{kfile}", "--k", "1",
                        "--solver", solver, *sa)
        assert result["within_scatter"] is None
        assert result["selected_indices"] == [1] and result["mmd_squared"] > 0.0

    def test_kde_scatter_of_a_kernel_above_one_is_an_input_error(self, tmp_path, capsys):
        # med reads D = 1 - K before it solves and kde only for the scatter;
        # both refuse the entry 1 - 1.1 < 0 with the same line
        points, kfile = tmp_path / "x.csv", tmp_path / "k.csv"
        points.write_text("0\n1\n2\n")
        kfile.write_text("1,1.1,0.2\n1.1,1,0.2\n0.2,0.2,1\n")
        for form in ("med", "kde"):
            for k in ("1", "2"):
                assert main(["select", "--input", str(points), "--kernel",
                             f"precomputed:{kfile}", "--k", k, "--formulation", form,
                             "--solver", "constrained"]) == 1
                assert capsys.readouterr() == (
                    "", "protoqubo: input error: distance matrix has negative entry -1.000e-01\n")


@pytest.fixture
def validations(monkeypatch):
    """Calls of the one matrix validator, counted in every module that holds it."""
    import protoqubo.kernels as kernels
    import protoqubo.qubo as qubo

    names = []
    original = kernels._symmetric_matrix

    def counted(entries, name):
        names.append(name)
        return original(entries, name)

    for module in (kernels, qubo):
        monkeypatch.setattr(module, "_symmetric_matrix", counted)
    return names


def noisy_gram_files(tmp_path, n, seed):
    """Points and an RBF Gram matrix of them with seeded noise of +-2e-13 (within the
    symmetry tolerance) as a precomputed kernel file; returns (points path, kernel spec)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    gram = np.exp(-((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2) / 2.0)
    gram += rng.uniform(-2e-13, 2e-13, size=gram.shape)
    points, kernel = tmp_path / "x.csv", tmp_path / "k.csv"
    np.savetxt(points, x, delimiter=",", fmt="%.17g")
    np.savetxt(kernel, gram, delimiter=",", fmt="%.17g")
    return str(points), f"precomputed:{kernel}"


class TestValidateOnce:
    @pytest.mark.parametrize("argv", [
        ["select", "--formulation", "med"],
        ["select", "--formulation", "kde"],
        ["select", "--formulation", "kde", "--solver", "sa", "--sweeps", "5", "--restarts", "1"],
        ["export-qubo", "--formulation", "med"],
        ["export-qubo", "--formulation", "kde"],
        ["verify"],
        ["baseline"],
    ], ids=["select-med", "select-kde", "select-sa", "export-med", "export-kde", "verify",
            "baseline"])
    @pytest.mark.parametrize("kernel", ["rbf", "precomputed"])
    def test_one_validation_per_matrix_read(self, tmp_path, capsys, validations, argv, kernel):
        # a precomputed kernel is the one matrix that enters from outside; a
        # kernel computed from points, and everything derived from either, is
        # exactly symmetric by construction and is not checked
        points, spec = noisy_gram_files(tmp_path, 12, 0)
        if kernel == "rbf":
            spec = "rbf:2.0"
        assert main([*argv, "--input", points, "--kernel", spec, "--k", "2"]) == 0
        capsys.readouterr()
        assert len(validations) == (1 if kernel == "precomputed" else 0), validations

    def test_kernel_less_baseline_validates_its_distance_matrix(self, blob_file, tmp_path,
                                                                 capsys, validations):
        # the Euclidean distances are computed, so only their finiteness is
        # checked: the squared difference of +-1e200 overflows
        assert main(["baseline", "--input", blob_file, "--k", "2"]) == 0
        capsys.readouterr()
        assert validations == []
        far = tmp_path / "far.csv"
        far.write_text(FAR_POINTS_CSV)
        assert main(["baseline", "--input", str(far), "--k", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == NON_FINITE_DISTANCES

    def test_kernel_symmetric_within_tolerance_folds_to_a_symmetric_qubo(
            self, tmp_path, capsys, monkeypatch):
        # with lam >= 8192, fl(a + lam) and fl(b + lam) for |a - b| ~ 1e-13 can
        # land one ulp (1.8e-12) apart: the fold must start from an exactly
        # symmetric kernel, not re-check a matrix that is only nearly so.  The
        # export folds by rows, so its file must be that of select's whole fold
        import io

        import protoqubo.cli as cli
        from protoqubo import write_qubo

        points, spec = noisy_gram_files(tmp_path, 200, 5)
        folded = []
        original = cli.qbp_to_qubo

        def kept(p, lam):
            folded.append(original(p, lam))
            return folded[-1]

        monkeypatch.setattr(cli, "qbp_to_qubo", kept)
        out = tmp_path / "q.txt"
        common = ["--input", points, "--kernel", spec, "--k", "3"]
        assert main(["select", *common, "--solver", "sa", "--sweeps", "5",
                     "--restarts", "1"]) == 0
        assert main(["export-qubo", *common, "--output", str(out)]) == 0
        capsys.readouterr()
        assert len(folded) == 1
        q = folded[0]
        assert q.matrix[0, 0] < -8192.0  # the regime where one ulp exceeds 1e-12
        assert np.array_equal(q.matrix, q.matrix.T)
        whole = io.StringIO()
        write_qubo(q, whole)
        assert out.read_text() == whole.getvalue()


class TestExportMemory:
    @pytest.mark.parametrize("formulation", ["med", "kde"])
    def test_peak_memory_is_the_kernel_and_a_few_row_blocks(self, tmp_path, monkeypatch,
                                                             capsys, two_point_file,
                                                             formulation):
        # with one CPU the rows are folded and formatted in process; besides K
        # the export holds a few blocks of rows and vectors of length n, not
        # the program or its fold.  A first export of two points builds the
        # parser, which the process keeps
        n = 1000
        data = tmp_path / "points.csv"
        np.savetxt(data, np.random.default_rng(n).normal(size=(n, 3)), delimiter=",",
                   fmt="%.17g")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        argv = ["export-qubo", "--input", str(data), "--k", "10", "--formulation", formulation,
                "--output", str(tmp_path / "q.txt")]
        assert main([*argv[:2], two_point_file, "--k", "1", *argv[5:]]) == 0
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and capsys.readouterr().err == ""
        assert peak - 8 * n * n < 0.1 * 8 * n * n, (peak - 8 * n * n) / (8 * n * n)


class TestSelectMemory:
    def test_med_program_builds_no_distance_matrix(self, tmp_path):
        # prepare holds K and the med program's -D, 1 - K negated in place:
        # 2 x 8n^2 and a few row blocks, not the 3 x 8n^2 of K, D = 1 - K and -D
        from protoqubo.cli import _parser, prepare

        n = 1000
        data = tmp_path / "points.csv"
        np.savetxt(data, np.random.default_rng(n).normal(size=(n, 3)), delimiter=",",
                   fmt="%.17g")
        args = _parser().parse_args(["select", "--input", str(data), "--k", "10",
                                     "--formulation", "med", "--solver", "constrained"])
        tracemalloc.start()
        try:
            K, program, gamma = prepare(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert program.quadratic.shape == (n, n) and gamma == 2.0 * 10 / n
        assert peak < 2.5 * 8 * n * n, peak / (8 * n * n)


class TestOverflowWarnings:
    # an overflow to +inf in a pairwise sum or in s / h is the right value (a
    # kernel entry of 0, or a distance matrix refused), so no numpy warning
    # reaches stderr, and under an "error" filter none becomes an exception
    @pytest.mark.parametrize("rows, argv, selected, objective, mmd, scatter", [
        (FAR_POINTS_CSV, ["--k", "2", "--kernel", "rbf:2"],
         [0, 1], -0.6666666666666665, 0.16666666666666669, 1.0),
        ("0,0\n1,1\n2,0\n", ["--k", "1", "--kernel", "laplacian:1e-310"],
         [0], 0.33333333333333337, 0.6666666666666667, 2.0),
        ("1e308,0\n-1e308,0\n0,1\n", ["--k", "1", "--kernel", "laplacian:1"],
         [0], 0.33333333333333337, 0.6666666666666667, 2.0),
    ], ids=["rbf-square", "laplacian-divide", "laplacian-subtract"])
    def test_select_prints_no_warning(self, tmp_path, capsys, rows, argv, selected, objective,
                                      mmd, scatter):
        data = tmp_path / "points.csv"
        data.write_text(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["select", "--input", str(data), *argv]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = json.loads(captured.out)
        assert doc["selected_indices"] == selected and doc["feasible"]
        assert (doc["objective"], doc["mmd_squared"], doc["within_scatter"]) == (
            objective, mmd, scatter)

    @pytest.mark.parametrize("rows", [FAR_POINTS_CSV, "1e308,0\n-1e308,0\n0,1\n"],
                             ids=["square", "subtract-and-square"])
    def test_baseline_prints_only_its_error(self, tmp_path, capsys, rows):
        data = tmp_path / "points.csv"
        data.write_text(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["baseline", "--input", str(data), "--k", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == NON_FINITE_DISTANCES


def read_to_the_end(fd):
    while os.read(fd, 1 << 16):
        pass


def strip_wall_time(text: str) -> str:
    return re.sub(r'^\s*"wall_time_s": [^,\n]+,?\n', "", text, flags=re.M)


class TestMainEntry:
    def test_select_json_schema_and_determinism(self, blob_file, tmp_path, capsys):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["select", "--input", blob_file, "--kernel", "rbf:2.0", "--k", "2",
                "--solver", "sa", "--seed", "7"]
        assert main(argv + ["--output", str(out1)]) == 0
        assert main(argv + ["--output", str(out2)]) == 0
        raw1, raw2 = out1.read_text(), out2.read_text()
        assert strip_wall_time(raw1) == strip_wall_time(raw2)
        doc = json.loads(raw1)
        assert set(doc) == {
            "selected_indices", "objective", "feasible", "mmd_squared",
            "within_scatter", "equivalence", "provenance",
        }
        assert doc["equivalence"] is None
        assert isinstance(doc["within_scatter"], float)
        assert doc["provenance"]["config"]["solver"] == "sa"

    def test_select_sa_ignores_the_backend_variable(self, blob_file, tmp_path, monkeypatch):
        # the annealer has one path: no value of PROTOQUBO_BACKEND changes an
        # exit code or a byte of the report
        argv = ["select", "--input", blob_file, "--kernel", "rbf:2.0", "--k", "2",
                "--solver", "sa", "--seed", "7"]
        reports = []
        for value in (None, "numpy", "numba", "bogus"):
            if value is None:
                monkeypatch.delenv("PROTOQUBO_BACKEND", raising=False)
            else:
                monkeypatch.setenv("PROTOQUBO_BACKEND", value)
            out = tmp_path / f"{value}.json"
            assert main(argv + ["--output", str(out)]) == 0, value
            reports.append(strip_wall_time(out.read_text()))
        assert reports == reports[:1] * 4

    def test_verify_passes_on_rbf(self, blob_file, capsys):
        code = main(["verify", "--input", blob_file, "--kernel", "rbf:1.5",
                     "--k", "3", "--lambda", "2.5", "--tolerance", "1e-12"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["equivalence"]["passed"] is True
        assert doc["equivalence"]["max_abs_diff"] <= 1e-12
        assert doc["equivalence"]["kde_lambda"] == 1.5

    def test_verify_fails_with_distinct_exit_code(self, blob_file, capsys):
        code = main(["verify", "--input", blob_file, "--kernel", "rbf:1.5",
                     "--k", "3", "--lambda", "2.5", "--tolerance", "0"])
        capsys.readouterr()
        assert code == 3

    def test_verify_rejects_non_normalized_precomputed(self, blob_file, tmp_path, capsys):
        f = tmp_path / "k.csv"
        f.write_text("2,0\n0,2\n")
        d = tmp_path / "two.csv"
        d.write_text("0\n1\n")
        code = main(["verify", "--input", str(d), "--kernel", f"precomputed:{f}", "--k", "1"])
        capsys.readouterr()
        assert code == 1

    def test_verify_single_point(self, tmp_path, capsys):
        f = tmp_path / "one.csv"
        f.write_text("0.5\n")
        code = main(["verify", "--input", str(f), "--kernel", "rbf:2.0", "--k", "1"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["equivalence"]["max_abs_diff"] == 0.0

    def test_baseline(self, blob_file, capsys):
        code = main(["baseline", "--input", blob_file, "--k", "2", "--seed", "1"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(doc["medoids"]) == 2
        assert len(doc["labels"]) == 12
        assert doc["scatter"] > 0.0

    def test_export_qubo(self, two_point_file, tmp_path):
        out = tmp_path / "q.txt"
        code = main(["export-qubo", "--input", two_point_file, "--kernel", "rbf:2.0",
                     "--k", "1", "--formulation", "kde", "--lambda", "1.0",
                     "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        n, nnz = map(int, lines[0].split())
        assert n == 2 and nnz == len(lines) - 1

    @pytest.mark.parametrize("formulation", ["med", "kde"])
    def test_export_to_stdout_matches_the_output_file(self, blob_file, tmp_path, capsys,
                                                       formulation):
        out = tmp_path / "q.txt"
        argv = ["export-qubo", "--input", blob_file, "--k", "3", "--formulation", formulation]
        assert main([*argv, "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert text.count("\n") == int(text.split()[1]) + 1
        assert text.encode() == out.read_bytes()

    def test_failed_fold_leaves_the_output_file_untouched(self, tmp_path, capsys):
        # the fold overflows, so the earlier export must not be truncated
        data = tmp_path / "points.csv"
        data.write_text("0,0\n1,1\n")
        kernel = tmp_path / "kernel.csv"
        kernel.write_text("1.5e308,0\n0,1.5e308\n")
        out = tmp_path / "q.txt"
        out.write_bytes(b"2 1\n0 0 1.0\n")
        code = main(["export-qubo", "--input", str(data), "--kernel", f"precomputed:{kernel}",
                     "--k", "1", "--lambda", "1e308", "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "protoqubo: input error: QUBO matrix contains non-finite entries\n"
        assert out.read_bytes() == b"2 1\n0 0 1.0\n"

    def test_export_whose_doubling_overflows_is_an_input_error(self, tmp_path, capsys):
        # the fold is finite, but the export doubles 9e307 + 1 off the diagonal
        data = tmp_path / "points.csv"
        data.write_text("0\n1\n")
        kernel = tmp_path / "kernel.csv"
        kernel.write_text("1,9e307\n9e307,1\n")
        out = tmp_path / "q.txt"
        out.write_bytes(b"2 1\n0 0 1.0\n")
        code = main(["export-qubo", "--input", str(data), "--kernel", f"precomputed:{kernel}",
                     "--k", "1", "--lambda", "1", "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == ("protoqubo: input error: an off-diagonal QUBO entry "
                                "overflows when the export doubles it\n")
        assert out.read_bytes() == b"2 1\n0 0 1.0\n"

    def test_failed_export_worker_exits_one(self, blob_file, tmp_path, monkeypatch, capsys):
        from protoqubo import qubo

        row_text = qubo._row_text

        def breaks_at_row_5(m, i, table):
            if i == 5:
                raise ValueError("row 5")
            return row_text(m, i, table)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(qubo, "_row_text", breaks_at_row_5)
        out = tmp_path / "q.txt"
        out.write_bytes(b"earlier valid content\n")
        code = main(["export-qubo", "--input", blob_file, "--k", "3", "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (f"protoqubo: input error: cannot write {out}: "
                                "export worker 1 ended before row 5 (exit code 1)\n")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        # the export went to a temporary file beside --output, now removed
        assert out.read_bytes() == b"earlier valid content\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blobs.csv", "q.txt"]

    def test_failed_export_through_a_symlink_keeps_the_target(self, blob_file, tmp_path,
                                                              monkeypatch, capsys):
        # the temporary file is made beside the file the link names, so a
        # failed export leaves that file's old bytes and the link a link
        from protoqubo import qubo

        row_text = qubo._row_text

        def breaks_at_row_5(m, i, table):
            if i == 5:
                raise ValueError("row 5")
            return row_text(m, i, table)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(qubo, "_row_text", breaks_at_row_5)
        (tmp_path / "out").mkdir()
        target = tmp_path / "out" / "target.txt"
        target.write_bytes(b"earlier valid content\n")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        code = main(["export-qubo", "--input", blob_file, "--k", "3", "--output", str(link)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (f"protoqubo: input error: cannot write {link}: "
                                "export worker 1 ended before row 5 (exit code 1)\n")
        assert link.is_symlink() and target.read_bytes() == b"earlier valid content\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blobs.csv", "link.txt", "out"]
        assert [p.name for p in target.parent.iterdir()] == ["target.txt"]

    def test_symlink_loop_is_one_input_error_line(self, blob_file, tmp_path, capsys):
        # a path that resolves to no file is opened directly, and neither
        # link is replaced
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.symlink_to(b)
        b.symlink_to(a)
        code = main(["export-qubo", "--input", blob_file, "--k", "3", "--output", str(a)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(f"protoqubo: input error: cannot write {a}: ")
        assert "Too many levels of symbolic links" in captured.err
        assert a.is_symlink() and b.is_symlink()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.txt", "blobs.csv"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_output_to_an_open_deleted_file_is_written_directly(self, blob_file, tmp_path,
                                                                capsys):
        # /proc/self/fd/N of a deleted file resolves to "<name> (deleted)",
        # a path that is not the file: the export goes to the open file, and
        # no file of that name is made
        fd = os.open(tmp_path / "gone.txt", os.O_RDWR | os.O_CREAT, 0o644)
        try:
            os.unlink(tmp_path / "gone.txt")
            argv = ["export-qubo", "--input", blob_file, "--k", "3", "--output"]
            assert main([*argv, f"/proc/self/fd/{fd}"]) == 0
            assert main([*argv, str(tmp_path / "q.txt")]) == 0
            os.lseek(fd, 0, os.SEEK_SET)
            assert os.read(fd, 1 << 20) == (tmp_path / "q.txt").read_bytes()
        finally:
            os.close(fd)
        capsys.readouterr()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blobs.csv", "q.txt"]

    def test_output_keeps_mode_and_symlink(self, blob_file, tmp_path, capsys):
        # a new file gets open()'s mode, a regular file keeps its mode, and a
        # symlink is written through and stays a symlink
        argv = ["export-qubo", "--input", blob_file, "--k", "2", "--output"]
        fresh, plain = tmp_path / "fresh.txt", tmp_path / "plain.txt"
        assert main([*argv, str(fresh)]) == 0
        with open(tmp_path / "opened.txt", "w"):
            pass
        assert fresh.stat().st_mode == (tmp_path / "opened.txt").stat().st_mode
        plain.write_text("old")
        plain.chmod(0o640)
        assert main([*argv, str(plain)]) == 0
        assert plain.stat().st_mode & 0o777 == 0o640
        assert plain.read_text() == fresh.read_text()
        link = tmp_path / "link.txt"
        link.symlink_to(plain)
        plain.write_text("old")
        assert main([*argv, str(link)]) == 0
        capsys.readouterr()
        assert link.is_symlink() and plain.read_text() == fresh.read_text()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "blobs.csv", "fresh.txt", "link.txt", "opened.txt", "plain.txt"]

    def test_closed_stdout_pipe_is_one_line(self, tmp_path):
        # the reader takes 100 bytes of a ~500 kB export and closes the pipe;
        # the wrapper exits 99 if main left a row worker behind
        data = tmp_path / "points.csv"
        points = np.random.default_rng(5).normal(size=(200, 3))
        data.write_text("\n".join(",".join(map(repr, row)) for row in points.tolist()) + "\n")
        code = ("import os, sys\n"
                "from protoqubo.cli import main\n"
                "rc = main(sys.argv[1:])\n"
                "try:\n"
                "    os.waitpid(-1, os.WNOHANG)\n"
                "except ChildProcessError:\n"
                "    sys.exit(rc)\n"
                "sys.exit(99)\n")
        src = Path(__file__).resolve().parent.parent / "src"
        err = tmp_path / "stderr.txt"
        with open(err, "wb") as err_file:
            proc = subprocess.Popen(
                [sys.executable, "-c", code, "export-qubo", "--input", str(data), "--k", "3"],
                stdout=subprocess.PIPE, stderr=err_file,
                env={**os.environ, "PYTHONPATH": str(src)})
        try:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            assert proc.wait(timeout=60) == 1
        finally:
            proc.kill()
            proc.wait()
        assert err.read_text() == ("protoqubo: input error: cannot write stdout: "
                                   "[Errno 32] Broken pipe\n")

    def test_row_workers_exit_when_the_export_is_killed(self, tmp_path):
        # the workers inherit the export's stdout, so the pipe reaches its end
        # only once they are gone; they block on full row pipes when it dies
        data = tmp_path / "points.csv"
        points = np.random.default_rng(6).normal(size=(300, 3))
        data.write_text("\n".join(",".join(map(repr, row)) for row in points.tolist()) + "\n")
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "protoqubo.cli", "export-qubo", "--input", str(data),
             "--k", "3"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env={**os.environ, "PYTHONPATH": str(src)})
        try:
            assert len(proc.stdout.read(100)) == 100
            proc.kill()
            proc.wait(timeout=60)
            reader = threading.Thread(target=read_to_the_end, args=(proc.stdout.fileno(),),
                                      daemon=True)
            reader.start()
            reader.join(timeout=60)
            assert not reader.is_alive(), "a row worker outlived the killed export"
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()

    def test_importing_the_cli_loads_no_process_pool(self):
        src = Path(__file__).resolve().parent.parent / "src"
        code = ("import sys, protoqubo.cli; print([name in sys.modules "
                "for name in ('multiprocessing', 'concurrent.futures')])")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[False, False]\n"

    def test_main_builds_the_parser_once(self, blob_file, monkeypatch, capsys):
        import protoqubo.cli as cli

        built = []

        def counted():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            for argv in (["baseline", "--input", blob_file, "--k", "2"],
                         ["select", "--input", blob_file, "--k", "2", "--gamma", "0.7"],
                         ["verify", "--input", blob_file, "--k", "2", "--lambda", "3"]):
                main(argv)
            with pytest.raises(SystemExit):
                main(["select", "--input", blob_file])
        finally:
            cli._parser.cache_clear()
        capsys.readouterr()
        assert len(built) == 1

    def test_a_failing_call_after_another_reads_as_in_a_fresh_process(self, blob_file):
        # the kept parser carries nothing from one call to the next: each
        # failure gives the code, stdout and stderr of a process that ran it alone
        src = Path(__file__).resolve().parent.parent / "src"
        code = r"""
import contextlib, io, json, sys
from protoqubo.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    results.append([rc, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""

        def run_in_child(argvs):
            done = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                                  capture_output=True, text=True, timeout=120,
                                  env={**os.environ, "PYTHONPATH": str(src)})
            assert done.returncode == 0, done.stderr
            return json.loads(done.stdout)

        passing = ["select", "--input", blob_file, "--k", "2", "--formulation", "med",
                   "--gamma", "0.7", "--solver", "sa", "--sweeps", "50", "--seed", "3"]
        failing = [["select", "--input", blob_file, "--k", "2", "--gamma", "0.7"],
                   ["select", "--input", blob_file, "--solver", "sa"]]
        after = run_in_child([passing, failing[0], passing, failing[1]])
        assert after[0][0] == after[2][0] == 0
        for call, alone in zip((after[1], after[3]), failing):
            assert call[0] == 1
            assert call == run_in_child([alone])[0]

    def test_input_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3\n")
        code = main(["select", "--input", str(bad), "--k", "1"])
        capsys.readouterr()
        assert code == 1

    def test_capacity_error_exit_code(self, tmp_path, capsys):
        f = tmp_path / "big.csv"
        f.write_text("\n".join(str(i) for i in range(40)) + "\n")
        code = main(["select", "--input", str(f), "--k", "20", "--solver", "constrained"])
        capsys.readouterr()
        assert code == 2

    def test_unallocatable_run_is_a_capacity_error(self, tmp_path, capsys):
        # numpy refuses the 6.94 EiB of 10^18 temperatures at once, so nothing is allocated
        f = tmp_path / "n3.csv"
        f.write_text("0\n1\n2\n")
        code = main(["select", "--input", str(f), "--k", "1", "--solver", "sa",
                     "--sweeps", str(10**18)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("protoqubo: capacity error: Unable to allocate ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, seed", [
        (["select", "--solver", "sa", "--seed", "-1"], -1),
        (["select", "--solver", "sa", "--seed", "-3", "--restarts", "5"], -3),
        (["baseline", "--seed", "-1"], -1),
        (["baseline", "--seed", "-1", "--kernel", "rbf:2.0"], -1),
    ])
    def test_negative_seed_is_one_input_error_line(self, two_point_file, capsys, argv, seed):
        code = main([argv[0], "--input", two_point_file, "--k", "1", *argv[1:]])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"protoqubo: input error: seed must be nonnegative, got {seed}\n"

    def test_exact_solvers_ignore_a_negative_seed(self, two_point_file, capsys):
        for solver in ("constrained", "exhaustive"):
            assert main(["select", "--input", two_point_file, "--k", "1", "--solver", solver,
                         "--seed", "-1"]) == 0
            assert json.loads(capsys.readouterr().out)["provenance"]["seed"] == -1

    def test_sa_at_large_energies_exits_zero(self, tmp_path, capsys):
        # energies near -5e5: the tracked energy ends about 2e-6 from the
        # re-evaluation, which is rounding, inside the derived bound of about 1e-2
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(200, 2)) + rng.integers(0, 4, 200)[:, None] * 2.0
        f = tmp_path / "n200.csv"
        f.write_text("\n".join(f"{float(a)!r},{float(b)!r}" for a, b in pts) + "\n")
        code = main(["select", "--input", str(f), "--k", "10", "--solver", "sa",
                     "--sweeps", "30", "--restarts", "2"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["objective"] < -1e5

    def test_numerical_integrity_error_exit_code(self, blob_file, monkeypatch, capsys):
        from protoqubo import accel

        original = accel.sa_run

        def off_by_one_entry(Q, *args):
            z, e = original(Q, *args)
            return z, e + np.abs(Q).max()

        monkeypatch.setattr(accel, "sa_run", off_by_one_entry)
        code = main(["select", "--input", blob_file, "--k", "2", "--solver", "sa",
                     "--sweeps", "50", "--restarts", "1"])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("protoqubo: numerical integrity error: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["select", "--nope"])
        capsys.readouterr()
        assert exc.value.code == 1

    def test_k_out_of_range(self, two_point_file, capsys):
        code = main(["select", "--input", two_point_file, "--k", "5"])
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize("command", ["select", "verify", "baseline", "export-qubo"])
    def test_bad_input_is_reported_before_a_bad_kernel(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3\n")
        code = main([command, "--input", str(bad), "--k", "1", "--kernel", "bogus:1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"protoqubo: input error: {bad}: row 2 has 1 columns, expected 2\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n, diagonal, argv, message", [
        (2, "1.5e308", ["export-qubo", "--k", "1", "--lambda", "1e308"],
         "QUBO matrix contains non-finite entries\n"),
        (2, "1.5e308", ["export-qubo", "--k", "1"],
         "the sufficient penalty 1 + sum|A_ij| + sum|b_i| overflows; "
         "give the penalty weight explicitly\n"),
        (2, "1.5e308", ["select", "--k", "1", "--solver", "constrained"],
         "squared MMD is not finite"),
        (6, "1.5e308", ["select", "--k", "2", "--solver", "constrained"],
         "squared MMD is not finite"),
        (12, "1.7e308", ["select", "--k", "2", "--solver", "constrained"],
         "every 2-subset's energy overflows\n"),
        (3, "1e308", ["select", "--k", "1", "--solver", "sa", "--lambda", "1",
                      "--sweeps", "5", "--restarts", "2"],
         "solver returned an empty selection"),
    ], ids=["fold", "default-penalty", "mmd", "objective", "every-subset", "annealer"])
    def test_overflowing_kernel_sums_are_input_errors(self, tmp_path, capsys, n, diagonal,
                                                      argv, message):
        # a diagonal kernel whose entries are finite but whose sums are not:
        # one stderr line, no traceback, no numpy warning (turned into an
        # error here)
        data = tmp_path / "points.csv"
        data.write_text("".join(f"{i},{i}\n" for i in range(n)))
        kernel = tmp_path / "kernel.csv"
        kernel.write_text("".join(
            ",".join(diagonal if c == r else "0" for c in range(n)) + "\n" for r in range(n)))
        code = main([argv[0], "--input", str(data), "--kernel", f"precomputed:{kernel}",
                     *argv[1:]])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(f"protoqubo: input error: {message}")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command, target", [
        ("select", "missing/out.json"),
        ("export-qubo", "."),
    ], ids=["missing-directory", "directory"])
    def test_unwritable_output_is_an_input_error(self, two_point_file, tmp_path, capsys,
                                                 command, target):
        output = tmp_path / target
        code = main([command, "--input", two_point_file, "--k", "1", "--output", str(output)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(f"protoqubo: input error: cannot write {output}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("binary_as", ["input", "kernel"])
    def test_non_utf8_file_is_an_input_error(self, two_point_file, tmp_path, capsys, binary_as):
        binary = tmp_path / "binary.csv"
        binary.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256)))
        source = (["--input", str(binary)] if binary_as == "input"
                  else ["--input", two_point_file, "--kernel", f"precomputed:{binary}"])
        code = main(["select", *source, "--k", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (f"protoqubo: input error: {binary}: "
                                "not a UTF-8 text file (invalid start byte)\n")

    @pytest.mark.parametrize("long_as", ["input", "kernel"])
    def test_field_over_the_csv_limit_is_an_input_error(self, two_point_file, tmp_path, capsys,
                                                        long_as):
        # the csv module refuses a field longer than its limit of 131072 characters
        long = tmp_path / "long.csv"
        long.write_text("1,0\n" + "1" * 140000 + ",1\n")
        source = (["--input", str(long)] if long_as == "input"
                  else ["--input", two_point_file, "--kernel", f"precomputed:{long}"])
        code = main(["select", *source, "--k", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (f"protoqubo: input error: {long}: "
                                "row 2: field larger than field limit (131072)\n")
