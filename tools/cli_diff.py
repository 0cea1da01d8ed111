"""Compare the command-line behaviour of two protoqubo source trees.

Usage: python3 tools/cli_diff.py OLD_SRC NEW_SRC

Each SRC is a directory holding the ``protoqubo`` package (a checkout's
``src/``).  The script writes seeded CSV inputs to a temporary directory and
runs a fixed list of CLI invocations against each tree, in one child
interpreter per tree that imports the package from that tree and calls
``protoqubo.cli.main(argv)`` in-process.  It prints every difference in exit
code, in stdout with the ``"wall_time_s"`` lines removed, and in stderr, and
exits 1 if there is any, 0 if there is none.  The comparison is the
determinism contract of the CLI: given the same arguments, every output is
byte-identical up to wall-clock times.
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

# Runs in the child: argv lists on stdin, one result per case on stdout.
CHILD = r"""
import contextlib, io, json, sys, traceback
import protoqubo.cli as cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc(limit=0)
            code = "uncaught exception"
    results.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
json.dump(results, sys.__stdout__)
"""


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
    out.append(["export-qubo", "--input", small, "--k", "21"])
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
        for stream in ("stdout", "stderr"):
            x, y = a[stream], b[stream]
            if stream == "stdout":
                x, y = WALL_TIME.sub("", x), WALL_TIME.sub("", y)
            if x != y:
                lines = difflib.unified_diff(x.splitlines(), y.splitlines(), "old", "new",
                                             lineterm="", n=1)
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
