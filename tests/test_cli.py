import json
import math
import re

import numpy as np
import pytest

from protoqubo import InputError
from protoqubo.cli import build_parser, ingest_csv, main, parse_kernel, run

TWO_POINT_CSV = f"0\n{math.sqrt(2.0)!r}\n"


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
        np.testing.assert_array_equal(spec.matrix, [[1.0, 0.5], [0.5, 1.0]])


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
        (["select", "--formulation", "med"], 1),
        (["select", "--formulation", "kde"], 1),
        (["export-qubo", "--formulation", "med"], 1),
        (["export-qubo", "--formulation", "kde"], 0),
    ], ids=["select-med", "select-kde", "export-med", "export-kde"])
    def test_complement_distance_is_built_at_most_once(self, blob_file, monkeypatch, capsys,
                                                      argv, builds):
        # the med program's D = 1 - K also gives the selection's scatter
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
        # the kernel (or, for a kernel-less baseline, the distance matrix) is
        # the one matrix that enters from outside; everything derived from it
        # is exactly symmetric by construction and is not checked again
        points, spec = noisy_gram_files(tmp_path, 12, 0)
        if kernel == "rbf":
            spec = "rbf:2.0"
        assert main([*argv, "--input", points, "--kernel", spec, "--k", "2"]) == 0
        capsys.readouterr()
        assert len(validations) == 1, validations

    def test_kernel_less_baseline_validates_its_distance_matrix(self, blob_file, capsys,
                                                                 validations):
        assert main(["baseline", "--input", blob_file, "--k", "2"]) == 0
        capsys.readouterr()
        assert validations == ["distance matrix"]

    def test_kernel_symmetric_within_tolerance_folds_to_a_symmetric_qubo(
            self, tmp_path, capsys, monkeypatch):
        # with lam >= 8192, fl(a + lam) and fl(b + lam) for |a - b| ~ 1e-13 can
        # land one ulp (1.8e-12) apart: the fold must start from an exactly
        # symmetric kernel, not re-check a matrix that is only nearly so
        import protoqubo.cli as cli

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
        assert len(folded) == 2
        for q in folded:
            assert q.matrix[0, 0] < -8192.0  # the regime where one ulp exceeds 1e-12
            assert np.array_equal(q.matrix, q.matrix.T)
        lines = out.read_text().splitlines()
        assert lines[0] == f"200 {len(lines) - 1}"


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
    ], ids=["fold", "default-penalty", "mmd", "objective", "every-subset"])
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
