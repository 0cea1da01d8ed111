"""Compare the command-line behaviour of two protoqubo source trees.

Usage: python3 tools/cli_diff.py OLD_SRC NEW_SRC

Each SRC is a directory holding the ``protoqubo`` package (a checkout's
``src/``).  The script writes seeded CSV inputs, the literal ingest
corpus `INGEST_VALID` and `INGEST_BAD` and the literal kernels
`PRECOMPUTED_CHECKED` to a temporary directory and
runs a fixed list of CLI invocations against each tree, in one child
interpreter per tree that imports the package from that tree and calls
``protoqubo.cli.main(argv)`` in-process.  A case that passes ``--output
{output}`` writes to a file of its own, whose text is compared too.  It
prints every difference in exit code, in stdout and in that file with the
``"wall_time_s"`` lines removed, and in stderr, and exits 1 if there is any,
0 if there is none.  The comparison is the determinism contract of the CLI:
given the same arguments, every output is byte-identical up to wall-clock
times.
"""

from __future__ import annotations

import difflib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

WALL_TIME = re.compile(r'^\s*"wall_time_s": [^,\n]+,?\n', flags=re.M)

# Runs in the child: argv lists on stdin, one result per case on stdout.  An
# "{output}" argument becomes a per-case path in the child's own temporary
# directory, and the file written there is returned with the case.  Every
# case shows every warning it raises: the default filter would print a
# warning once per code location, so a later case raising it would show none.
CHILD = r"""
import contextlib, io, json, os, sys, tempfile, traceback, warnings
import protoqubo.cli as cli
results = []
with tempfile.TemporaryDirectory() as tmp:
    for case, argv in enumerate(json.load(sys.stdin)):
        path = os.path.join(tmp, f"{case}.out")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.resetwarnings()
            warnings.simplefilter("always")
            try:
                code = cli.main([a.replace("{output}", path) for a in argv])
            except SystemExit as exc:
                code = exc.code
            except Exception:
                traceback.print_exc(limit=0)
                code = "uncaught exception"
        written = None
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                written = fh.read()
        results.append({"code": code, "stdout": out.getvalue(),
                        "stderr": err.getvalue().replace(path, "{output}"),
                        "output file": written})
json.dump(results, sys.__stdout__)
"""

# The ingest corpus, written as literal text (no draw, so no seeded input
# moves).  Valid files: cells that float() reads but a stricter parser may not
# (underscores, Arabic-Indic digits, spaces, quotes, -0.0, the least subnormal
# and the largest double), blank and all-blank rows, a header row, and square
# symmetric kernels.  Files starting "header" are read with --header.
INGEST_VALID = {
    "ingest_cells.csv": '1_0,\u0661\u0662, 1.5 \n"2",-0.0,5e-324\n3,"4",0_0.5\n-1,2.5,\u0663\n',
    "ingest_extremes.csv": "1.7976931348623157e308,0\n0,-1.7976931348623157e308\n5e-324,-0.0\n",
    "ingest_blank.csv": "\n1,2\n,\n \n3,4\n , \n\n5,6\n\n",
    "header_ingest.csv": "x,y\n1,2\n\n3,4\n5,6\n",
    "ingest_kernel3.csv": '1,0.5,"0.25"\n\n0.5, 1 ,1_2.5e-2\n0.25,0.125,1\n',
    "ingest_kernel2.csv": "\u0661,\u0660.\u0665\n\u0660.\u0665,\u0661\n",
}
# Files ingest refuses: a ragged row after blank lines (its row number counts
# them), and nan or 1e999 in the first, a middle and the last column.
INGEST_BAD = {
    "ingest_ragged.csv": "1,2\n\n , \n3,4\n\n5\n",
    **{f"ingest_{cell}_{col}.csv": "1,0,0\n0,1,0\n" + ",".join(
        cell if c == col else "0" for c in range(3)) + "\n"
       for cell in ("nan", "1e999") for col in range(3)},
}

# Precomputed kernels for the two points of n2.csv, written as literal text,
# that the kernel checks decide: a skew of 1e-9 (beyond the 1e-12 tolerance),
# a 2 x 3 matrix, a 3 x 3 kernel for 2 points, and a skew of 5e-13, which is
# accepted with its upper triangle mirrored onto the lower.
PRECOMPUTED_CHECKED = {
    "kernel_skew_1e-9.csv": "1,0.5\n0.500000001,1\n",
    "kernel_2x3.csv": "1,0,0\n0,1,0\n",
    "kernel_3x3.csv": "1,0,0\n0,1,0\n0,0,1\n",
    "kernel_skew_5e-13.csv": "1,0.5\n0.5000000000005,1\n",
}


def _write_csv(path: Path, points: np.ndarray) -> str:
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in points))
    return str(path)


def _clustered(rng, n: int, d: int) -> np.ndarray:
    centres = rng.normal(scale=3.0, size=(4, d))
    return centres[rng.integers(0, 4, size=n)] + rng.normal(size=(n, d))


def cases(work: Path) -> list:
    """The fixed invocation list, with its seeded inputs written under `work`."""
    rng = np.random.default_rng(20260)
    small = _write_csv(work / "n20.csv", _clustered(rng, 20, 2))
    mid = _write_csv(work / "n30.csv", _clustered(rng, 30, 3))
    large = _write_csv(work / "n700.csv", _clustered(rng, 700, 4))
    wide = _write_csv(work / "n24.csv", _clustered(rng, 24, 2))
    single = _write_csv(work / "n1.csv", _clustered(rng, 1, 3))
    deep = _write_csv(work / "n30d9.csv", _clustered(rng, 30, 9))
    gram = _clustered(rng, 20, 4)
    gram = np.exp(-((gram[:, None, :] - gram[None, :, :]) ** 2).sum(axis=2) / 8.0)
    precomputed = _write_csv(work / "k20.csv", gram)
    four = _clustered(rng, 4, 2)
    doubled = 2.0 * np.exp(-((four[:, None, :] - four[None, :, :]) ** 2).sum(axis=2) / 2.0)
    unnormalized = _write_csv(work / "k4x2.csv", doubled)
    quad = _write_csv(work / "n4.csv", four)
    ragged = work / "ragged.csv"
    ragged.write_text("1,2\n3\n")
    # drawn after every other input, so adding it kept their values: a kernel
    # symmetric only to within the 1e-12 tolerance, at a penalty (>= 8192) where
    # folding its two triangles separately would land them one ulp apart
    near = rng.normal(size=(200, 3))
    gram = np.exp(-((near[:, None, :] - near[None, :, :]) ** 2).sum(axis=2) / 2.0)
    near_kernel = _write_csv(work / "k200.csv",
                             gram + rng.uniform(-2e-13, 2e-13, size=gram.shape))
    near = _write_csv(work / "n200.csv", near)
    # finite entries whose sums overflow, for the fold, the default penalty and the MMD
    huge_kernel = work / "k2huge.csv"
    huge_kernel.write_text("1.5e308,0\n0,1.5e308\n")
    two = _write_csv(work / "n2.csv", np.array([[0.0, 0.0], [1.0, 1.0]]))
    # points 4 and 9 coincide, so two 3-subsets tie exactly and the computed
    # energies pick one of them
    grid = _write_csv(work / "grid12.csv", np.array(
        [[3, 2], [2, 3], [2, 3], [3, 0], [0, 1], [1, 3],
         [3, 0], [1, 3], [0, 3], [0, 1], [3, 1], [1, 1]], dtype=float))
    binary = work / "binary.csv"
    binary.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256)))
    # drawn after every other input: dimensions where a pairwise sum has many
    # coordinate terms (d = 8 is build_large's), and a field over the csv limit
    dims = {d: _write_csv(work / f"n{n}d{d}.csv", _clustered(rng, n, d))
            for n, d in ((48, 8), (40, 17), (30, 40))}
    long_field = work / "long.csv"
    long_field.write_text("1" * 140000 + ",1\n")
    # drawn after every other input: select_sa's largest shape (n = 96, k = 4),
    # and an integer-valued positive definite kernel (a Gram matrix of 0/1
    # vectors plus the identity) on the 12-point grid, where energy changes tie
    sa96 = _write_csv(work / "n96.csv", _clustered(rng, 96, 2))
    bits = rng.integers(0, 2, size=(12, 4))
    int_kernel = _write_csv(work / "k12int.csv", (bits @ bits.T + np.eye(12)).astype(float))
    # drawn after every other input: the k-subset scan at (24, 12), where its
    # (k-1)-subset table exceeds 2^20 rows, on float points and on a 3 x 3
    # integer grid whose duplicate points tie
    scan24 = _write_csv(work / "n24k12.csv", _clustered(rng, 24, 2))
    grid24 = _write_csv(work / "grid24.csv", rng.integers(0, 3, size=(24, 2)).astype(float))
    # drawn after every other input: select_exact's k-subset shapes, where the
    # scan skips most rows, and a 3 x 3 integer grid at (30, 4) whose duplicate
    # points tie
    exact = [(_write_csv(work / f"n{n}k{k}.csv", _clustered(rng, n, 2)), k)
             for n, k in ((40, 5), (64, 4), (100, 3))]
    grid30 = _write_csv(work / "grid30.csv", rng.integers(0, 3, size=(30, 2)).astype(float))
    # drawn after every other input: a positive definite kernel D B D, B an
    # rbf Gram matrix plus the identity and D a diagonal of 10^-4 .. 10^4, so
    # the k-subset scan's energies span many binades (upper triangle mirrored,
    # so exactly symmetric); at k = 9 its rows sum 8 entries pairwise
    spread = rng.normal(size=(20, 2))
    scale = 10.0 ** rng.uniform(-4.0, 4.0, size=20)
    gram = np.exp(-((spread[:, None, :] - spread[None, :, :]) ** 2).sum(axis=2) / 2.0)
    spread_kernel = scale[:, None] * (gram + np.eye(20)) * scale[None, :]
    spread_kernel = _write_csv(work / "k20spread.csv",
                               np.triu(spread_kernel) + np.triu(spread_kernel, 1).T)
    spread = _write_csv(work / "n20spread.csv", spread)
    # finite diagonal kernels whose subset energies overflow: on 6 points the
    # objective of the selection, on 12 points every 2-subset's energy
    huge = {}
    for n, diagonal in ((6, "1.5e308"), (12, "1.7e308")):
        path = work / f"k{n}huge.csv"
        path.write_text("".join(",".join(diagonal if c == r else "0" for c in range(n)) + "\n"
                                for r in range(n)))
        huge[_write_csv(work / f"n{n}.csv", np.arange(2.0 * n).reshape(n, 2))] = str(path)
    # literal points whose coordinate differences, their squares or s / h overflow
    far = {name: _write_csv(work / f"{name}.csv", np.array(rows))
           for name, rows in (("far200", [[1e200, 0.0], [-1e200, 0.0], [0.0, 1.0]]),
                              ("far308", [[1e308, 0.0], [-1e308, 0.0], [0.0, 1.0]]),
                              ("tri", [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]]))}
    # drawn after every other input: six points, each twice, under a kernel
    # with noise of +-5e-13 (upper triangle mirrored), whose D = 1 - K is
    # zeroed on the diagonal and clamped at the duplicates; and a kernel with
    # an entry above 1, which D refuses
    twice = np.repeat(rng.normal(size=(6, 2)), 2, axis=0)
    gram = np.exp(-((twice[:, None, :] - twice[None, :, :]) ** 2).sum(axis=2) / 2.0)
    gram = np.triu(gram + rng.uniform(-5e-13, 5e-13, size=gram.shape))
    twice_kernel = _write_csv(work / "k12twice.csv", gram + np.triu(gram, 1).T)
    twice = _write_csv(work / "n12twice.csv", twice)
    above = _write_csv(work / "k3above.csv", np.array([[1.0, 1.1, 0.2], [1.1, 1.0, 0.2],
                                                       [0.2, 0.2, 1.0]]))
    line = _write_csv(work / "n3.csv", np.arange(3.0)[:, None])
    # kernels on the 4 points of n4.csv whose kde fold at lambda 1 has exact
    # zeros: off-diagonal -1 leaves rows holding their diagonal alone (k 1),
    # every row empty (k 2), or rows 0 and 1 empty and row 3 its diagonal alone
    # (k 2, with one pair at 0.5)
    minus = 2.0 * np.eye(4) - 1.0
    minus_kernel = _write_csv(work / "k4minus.csv", minus)
    minus[2:, 2:] = [[1.0, 0.5], [0.5, 1.0]]
    mixed_kernel = _write_csv(work / "k4mixed.csv", minus)

    out = []
    for kernel in ("rbf:2.0", "laplacian:1.5"):
        for k, lam in ((3, 2.0), (10, 100.0), (25, 7.5)):
            out.append(["verify", "--input", large, "--kernel", kernel, "--k", str(k),
                        "--lambda", str(lam)])
    for form in ("med", "kde"):
        for extra in ([], ["--lambda", "3.5"]):
            out.append(["export-qubo", "--input", mid, "--k", "4", "--formulation", form, *extra])
        for solver in ("constrained", "exhaustive", "sa"):
            sa = ["--sweeps", "200", "--restarts", "2", "--seed", "5"] if solver == "sa" else []
            out.append(["select", "--input", small, "--k", "3", "--formulation", form,
                        "--solver", solver, *sa])
    out.append(["select", "--input", small, "--k", "3", "--formulation", "med",
                "--gamma", "0.7"])
    # exact scans large enough to cross the blocks of the numpy scans
    for csv, k, solver in ((mid, 5, "constrained"), (large, 2, "constrained"),
                           (wide, 3, "exhaustive")):
        for form in ("med", "kde"):
            out.append(["select", "--input", csv, "--k", str(k), "--formulation", form,
                        "--solver", solver])
    out.append(["baseline", "--input", mid, "--k", "3", "--seed", "2"])
    out.append(["baseline", "--input", mid, "--k", "3", "--seed", "2", "--kernel", "rbf:2.0"])
    out.append(["select", "--input", str(ragged), "--k", "1"])
    # one point: the 1x1 kernel and distance matrices
    for kernel in ("rbf:2.0", "laplacian:1.5"):
        out.append(["select", "--input", single, "--k", "1", "--kernel", kernel])
    out.append(["baseline", "--input", single, "--k", "1"])
    out.append(["baseline", "--input", single, "--k", "1", "--kernel", "rbf:2.0"])
    out.append(["export-qubo", "--input", single, "--k", "1"])
    # d = 9, where a sum of coordinate terms depends on the evaluation order
    for form in ("med", "kde"):
        out.append(["select", "--input", deep, "--k", "4", "--kernel", "laplacian:1.5",
                    "--formulation", form])
    out.append(["verify", "--input", deep, "--k", "4", "--kernel", "laplacian:1.5"])
    out.append(["export-qubo", "--input", deep, "--k", "4", "--kernel", "laplacian:1.5"])
    out.append(["select", "--input", small, "--k", "3", "--kernel", f"precomputed:{precomputed}"])
    # the default annealing length of the command line
    out.append(["select", "--input", small, "--k", "3", "--solver", "sa", "--restarts", "1"])
    out.append(["select", "--input", small, "--k", "3", "--solver", "sa", "--restarts", "3"])
    out.append(["select", "--help"])
    # which of two errors is reported: schedule before ingest, ingest before kernel,
    # k before the normalization the med program and the scatter need
    out.append(["select", "--input", str(ragged), "--k", "1", "--solver", "sa", "--sweeps", "0"])
    out.append(["select", "--input", small, "--k", "3", "--solver", "constrained",
                "--restarts", "0"])
    for command in ("select", "export-qubo"):
        out.append([command, "--input", small, "--k", "3", "--formulation", "kde",
                    "--gamma", "0.7"])
    for command in ("select", "verify", "baseline", "export-qubo"):
        out.append([command, "--input", str(ragged), "--k", "1", "--kernel", "bogus:1"])
    for k in ("5", "1"):
        out.append(["select", "--input", quad, "--k", k, "--formulation", "med",
                    "--kernel", f"precomputed:{unnormalized}"])
    out.append(["select", "--input", quad, "--k", "2", "--kernel", f"precomputed:{unnormalized}"])
    out.append(["baseline", "--input", quad, "--k", "2", "--kernel", f"precomputed:{unnormalized}"])
    # whole exports of about 245k lines each
    for form in ("med", "kde"):
        out.append(["export-qubo", "--input", large, "--k", "5", "--formulation", form])
    near_args = ["--input", near, "--k", "3", "--kernel", f"precomputed:{near_kernel}"]
    out.append(["select", *near_args, "--solver", "sa", "--sweeps", "5", "--restarts", "1"])
    out.append(["export-qubo", *near_args])
    out.append(["verify", *near_args])
    # 2*lam*k = 1e4, where one ulp of the fold diagonal exceeds 1e-12
    for form in ("med", "kde"):
        out.append(["export-qubo", "--input", near, "--k", "50", "--lambda", "100",
                    "--formulation", form])
    out.append(["verify", "--input", near, "--k", "50", "--lambda", "100"])
    huge_args = ["--input", two, "--kernel", f"precomputed:{huge_kernel}", "--k", "1"]
    out.append(["export-qubo", *huge_args, "--lambda", "1e308"])
    out.append(["export-qubo", *huge_args])
    out.append(["select", *huge_args, "--solver", "constrained"])
    for solver in ("constrained", "exhaustive"):
        for form in ("med", "kde"):
            out.append(["select", "--input", grid, "--k", "3", "--formulation", form,
                        "--solver", solver])
    # I/O errors: an output directory that does not exist, an input that is not UTF-8
    out.append(["select", "--input", quad, "--k", "2", "--output",
                str(work / "missing" / "out.json")])
    out.append(["select", "--input", str(binary), "--k", "1"])
    for d, csv in dims.items():
        for kernel in (f"rbf:{2 * d}", f"laplacian:{d}"):
            for form in ("med", "kde"):
                out.append(["select", "--input", csv, "--k", "3", "--kernel", kernel,
                            "--formulation", form])
        out.append(["verify", "--input", csv, "--k", "3", "--kernel", f"rbf:{2 * d}"])
        out.append(["export-qubo", "--input", csv, "--k", "3", "--kernel", f"laplacian:{d}"])
        for kernel in ([], ["--kernel", f"rbf:{2 * d}"]):
            out.append(["baseline", "--input", csv, "--k", "3", "--seed", "2", *kernel])
    out.append(["select", "--input", str(long_field), "--k", "1"])
    # the annealer: select_sa's largest shape, integer energies, and one point
    out.append(["select", "--input", sa96, "--k", "4", "--solver", "sa", "--sweeps", "200",
                "--restarts", "4", "--seed", "11"])
    out.append(["select", "--input", grid, "--k", "3", "--kernel", f"precomputed:{int_kernel}",
                "--solver", "sa", "--sweeps", "100", "--restarts", "2", "--seed", "3"])
    out.append(["select", "--input", single, "--k", "1", "--solver", "sa"])
    for csv in (scan24, grid24):
        out.append(["select", "--input", csv, "--k", "12", "--formulation", "kde",
                    "--solver", "constrained"])
    for csv, k in (*exact, (grid30, 4)):
        for form in ("med", "kde"):
            out.append(["select", "--input", csv, "--k", str(k), "--formulation", form,
                        "--solver", "constrained"])
    # constant programs: under an all-ones kernel (written without a draw)
    # every k-subset of either formulation ties, and the bounded scan scores no
    # row after its first top
    for csv, n, k in ((scan24, 24, 12), (exact[0][0], 40, 5)):
        ones = _write_csv(work / f"k{n}ones.csv", np.ones((n, n)))
        for form in ("med", "kde"):
            out.append(["select", "--input", csv, "--k", str(k), "--kernel",
                        f"precomputed:{ones}", "--formulation", form, "--solver", "constrained"])
    for k in ("3", "9"):
        out.append(["select", "--input", spread, "--k", k, "--kernel",
                    f"precomputed:{spread_kernel}", "--solver", "constrained"])
    for csv, kernel in huge.items():
        out.append(["select", "--input", csv, "--k", "2", "--kernel", f"precomputed:{kernel}",
                    "--solver", "constrained"])
        out.append(["select", "--input", csv, "--k", "1", "--kernel", f"precomputed:{kernel}",
                    "--solver", "sa", "--lambda", "1", "--sweeps", "5", "--restarts", "2"])
    # the file that --output writes, compared like stdout
    for form in ("med", "kde"):
        out.append(["export-qubo", "--input", mid, "--k", "4", "--formulation", form,
                    "--output", "{output}"])
    out.append(["select", "--input", small, "--k", "3", "--output", "{output}"])
    out.append(["verify", "--input", mid, "--k", "4", "--output", "{output}"])
    out.append(["select", "--input", far["far200"], "--k", "2", "--kernel", "rbf:2"])
    out.append(["select", "--input", far["tri"], "--k", "1", "--kernel", "laplacian:1e-310"])
    out.append(["select", "--input", far["far308"], "--k", "1", "--kernel", "laplacian:1"])
    for name in ("far200", "far308"):
        out.append(["baseline", "--input", far[name], "--k", "2"])
    # the scatter, decided by D's zero diagonal and clamp: both formulations
    # on the k-subset scan, and med on the 2^n scan and the annealer
    twice_args = ["--input", twice, "--kernel", f"precomputed:{twice_kernel}"]
    for k in ("1", "3", "5"):
        for form in ("med", "kde"):
            out.append(["select", *twice_args, "--k", k, "--formulation", form,
                        "--solver", "constrained"])
        out.append(["select", *twice_args, "--k", k, "--formulation", "med",
                    "--solver", "exhaustive"])
        out.append(["select", *twice_args, "--k", k, "--formulation", "med", "--solver", "sa",
                    "--sweeps", "100", "--restarts", "2", "--seed", "5"])
    for form in ("med", "kde"):
        out.append(["select", "--input", line, "--k", "2", "--kernel", f"precomputed:{above}",
                    "--formulation", form, "--solver", "constrained"])
    for kernel, k in ((minus_kernel, "1"), (minus_kernel, "2"), (mixed_kernel, "2")):
        out.append(["export-qubo", "--input", quad, "--k", k, "--kernel", f"precomputed:{kernel}",
                    "--formulation", "kde", "--lambda", "1"])
    # which of two verify errors is reported: normalization before lambda and tolerance
    for extra in (["--lambda", "1"], ["--tolerance", "-1"]):
        out.append(["verify", "--input", quad, "--k", "2", "--kernel",
                    f"precomputed:{unnormalized}", *extra])
    # negative seeds: the annealer and the baseline refuse them, the exact scans draw nothing
    sa = ["select", "--input", small, "--k", "3", "--solver", "sa", "--sweeps", "5"]
    out.append([*sa, "--seed", "-1"])
    out.append([*sa, "--seed", "-3", "--restarts", "5"])
    out.append(["select", "--input", small, "--k", "3", "--seed", "-1"])
    for kernel in ([], ["--kernel", "rbf:2.0"]):
        out.append(["baseline", "--input", mid, "--k", "3", "--seed", "-1", *kernel])
    # 10^18 temperatures, an allocation numpy refuses at once
    out.append(["select", "--input", line, "--k", "1", "--solver", "sa", "--sweeps", str(10**18)])
    # a leading UTF-8 byte-order mark on the data and on a precomputed kernel
    bom_data, bom_kernel = work / "n20bom.csv", work / "k20bom.csv"
    for marked, path in ((bom_data, small), (bom_kernel, precomputed)):
        marked.write_bytes(b"\xef\xbb\xbf" + Path(path).read_bytes())
    out.append(["select", "--input", str(bom_data), "--k", "3"])
    out.append(["select", "--input", small, "--k", "3", "--kernel", f"precomputed:{bom_kernel}"])
    # the annealer at n = 700, whose random starts hold about 350 points: the
    # start-up field and energy, and the drift bound's row norm over many row blocks
    for form in ("med", "kde"):
        out.append(["select", "--input", large, "--k", "5", "--formulation", form,
                    "--solver", "sa", "--sweeps", "2", "--restarts", "2", "--seed", "7"])
    # the literal ingest corpus as data, and its square symmetric files as kernels
    for name, text in {**INGEST_VALID, **INGEST_BAD}.items():
        (work / name).write_text(text, encoding="utf-8")
        header = ["--header"] if name.startswith("header") else []
        for command in ("select", "baseline"):
            out.append([command, "--input", str(work / name), "--k", "1", *header])
    out.append(["select", "--input", str(work / "header_ingest.csv"), "--k", "1"])
    for name, points in (("ingest_kernel3.csv", line), ("ingest_kernel2.csv", two)):
        for command in ("select", "baseline"):
            out.append([command, "--input", points, "--k", "1",
                        "--kernel", f"precomputed:{work / name}"])
    for name, text in PRECOMPUTED_CHECKED.items():
        (work / name).write_text(text, encoding="utf-8")
        for command in ("select", "verify"):
            out.append([command, "--input", two, "--k", "1",
                        "--kernel", f"precomputed:{work / name}"])
    # every refusal of an argument rule, on literal arguments
    for command in ("select", "verify", "baseline", "export-qubo"):
        for k in ("0", "21"):
            out.append([command, "--input", small, "--k", k])
    for gamma in ("0", "-1", "inf"):
        for command in ("select", "export-qubo"):
            out.append([command, "--input", small, "--k", "3", "--formulation", "med",
                        "--gamma", gamma])
    for kernel in ("rbf:0", "laplacian:-1", "rbf:inf"):
        out.append(["select", "--input", small, "--k", "3", "--kernel", kernel])
    for lam in ("0", "-1", "nan"):
        for command in (["select", "--solver", "exhaustive"], ["select", "--solver", "sa"],
                        ["export-qubo"]):
            out.append([*command, "--input", quad, "--k", "2", "--lambda", lam])
    # from a generator of their own, so no input above moves: sizes on both
    # sides of the first and second edges of the 16-row blocks that verify and
    # the export fold, and a mixed-sign kernel (unit diagonal, off-diagonal
    # entries in [-1, 1], upper triangle mirrored) whose default penalty sums
    # entries of both signs
    edge = np.random.default_rng(20300)
    for n in (15, 16, 17, 33):
        csv = _write_csv(work / f"edge{n}.csv", _clustered(edge, n, 3))
        for lam in ([], ["--lambda", "3.5"]):
            out.append(["verify", "--input", csv, "--k", "3", *lam])
            for form in ("med", "kde"):
                out.append(["export-qubo", "--input", csv, "--k", "3", "--formulation", form,
                            *lam])
    signs = np.triu(edge.uniform(-1.0, 1.0, size=(17, 17)), 1)
    signs = _write_csv(work / "k17signs.csv", signs + signs.T + np.eye(17))
    for form in ("med", "kde"):
        out.append(["export-qubo", "--input", str(work / "edge17.csv"), "--k", "3",
                    "--kernel", f"precomputed:{signs}", "--formulation", form])
    return out


def _start(src: str, argvs: list) -> subprocess.Popen:
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        text=True, env={**os.environ, "PYTHONPATH": str(Path(src).resolve())},
    )
    child.stdin.write(json.dumps(argvs))
    child.stdin.close()
    return child


def _finish(child: subprocess.Popen, src: str) -> list:
    text = child.stdout.read()
    if child.wait() != 0:
        raise SystemExit(f"cli_diff: the child interpreter for {src} exited {child.returncode}")
    return json.loads(text)


def compare(old_src: str, new_src: str) -> tuple[list, int]:
    """Run every case against both trees; return the differences and the case count."""
    with tempfile.TemporaryDirectory() as tmp:
        argvs = cases(Path(tmp))
        children = [_start(src, argvs) for src in (old_src, new_src)]
        old, new = (_finish(c, s) for c, s in zip(children, (old_src, new_src)))
    diffs = []
    for argv, a, b in zip(argvs, old, new):
        label = " ".join(argv).replace(tmp + os.sep, "")
        if a["code"] != b["code"]:
            diffs.append(f"{label}: exit code {a['code']!r} -> {b['code']!r}")
        for stream in ("stdout", "stderr", "output file"):
            x, y = a[stream], b[stream]
            if stream != "stderr":
                x, y = (t if t is None else WALL_TIME.sub("", t) for t in (x, y))
            if x != y:
                lines = difflib.unified_diff((x or "").splitlines(), (y or "").splitlines(),
                                             "old", "new", lineterm="", n=1)
                diffs.append(f"{label}: {stream} differs\n" + "\n".join(list(lines)[:20]))
    return diffs, len(argvs)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/cli_diff.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    diffs, count = compare(*args)
    for d in diffs:
        print(d)
    print(f"cli_diff: {count} cases, {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
