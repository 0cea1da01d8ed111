"""Time one kernel of two protoqubo source trees against each other, in one process.

Usage: python3 tools/kernel_ab.py OLD_SRC NEW_SRC {select_exact|select_sa|build_large}
       [--seed N] [--rounds R]

Each SRC is a directory holding the ``protoqubo`` package (a checkout's
``src/``).  The script loads each tree's package under a name of its own,
so both trees' modules sit side by side.  It builds the perfbench
workload's operations (``perfbench/workloads.py``, seed 11 unless ``--seed``
says otherwise), runs them once through OLD's ``cli.main`` and captures the
arguments of every call to the workload's kernel: ``accel.constrained_best``
for select_exact, ``accel.sa_run`` for select_sa, and ``qubo.write_qubo``
(the export) for build_large.  It then times the captured calls as one
batch per tree and round (40 rounds unless ``--rounds`` says otherwise),
the order alternating from round to round.  An export is replayed from the
captured QUBO into a sink that keeps only the md5 of the text.  It prints
both trees' median batch times, the rounds the new tree wins, and whether
every result agrees bit for bit with the old tree's first batch (the same
indices or state and the same energy double, or the same export md5, or
the same exception).  It exits 1 on any disagreement, 0 otherwise.

End-to-end perfbench pairs carry the noise of the whole CLI; timing the
kernel's own calls, interleaved in one process, shows a change of a few
percent in the kernel.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def load_package(src: str, name: str):
    """Import the ``protoqubo`` package under `src` as the top-level package `name`."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    package = Path(src).resolve() / "protoqubo"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class _HashingSink:
    """A text sink that keeps only the md5 of the text written to it."""

    def __init__(self):
        self.md5 = hashlib.md5()

    def write(self, text):
        self.md5.update(text.encode("ascii"))


def _solver_result(fn, args):
    z, e = fn(*args)
    return z.dtype.str, z.shape, z.tobytes(), np.float64(e).tobytes()


def _export_md5(fn, args):
    sink = _HashingSink()
    fn(args[0], sink)
    return sink.md5.hexdigest()


# workload -> (the module the CLI calls its kernel through, the kernel, the bits of a call)
KERNELS = {"select_exact": ("accel", "constrained_best", _solver_result),
           "select_sa": ("accel", "sa_run", _solver_result),
           "build_large": ("cli", "write_qubo", _export_md5)}


def _caller(package, workload: str):
    """The module of `package` through which the CLI calls `workload`'s kernel."""
    return importlib.import_module(f"{package.__name__}.{KERNELS[workload][0]}")


def capture(package, workload: str, seed: int, smoke: bool) -> list:
    """The argument tuples of the kernel calls one pass of `workload` makes through the CLI."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    cli = importlib.import_module(package.__name__ + ".cli")
    caller, name = _caller(package, workload), KERNELS[workload][1]
    kernel, calls = getattr(caller, name), []

    def recording(*args):
        calls.append(args)
        return kernel(*args)

    setattr(caller, name, recording)
    try:
        with tempfile.TemporaryDirectory() as work:
            for op in workloads.WORKLOADS[workload](seed, Path(work), smoke):
                cli.main(op.argv)
    finally:
        setattr(caller, name, kernel)
    return calls


def _outcome(result, fn, args):
    # the result's bits, or the exception's type and message
    try:
        return result(fn, args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def compare(old_src: str, new_src: str, workload: str, seed: int = 11, rounds: int = 40,
            smoke: bool = False) -> dict:
    """Time the captured calls on both trees; return the batch times and the agreement."""
    packages = {side: load_package(src, f"kernel_ab_{side}")
                for side, src in (("old", old_src), ("new", new_src))}
    calls = capture(packages["old"], workload, seed, smoke)
    _, name, result = KERNELS[workload]
    times = {"old": [], "new": []}
    expected, agree = None, True
    for r in range(rounds):
        for side in ("old", "new") if r % 2 == 0 else ("new", "old"):
            fn = getattr(_caller(packages[side], workload), name)
            start = time.perf_counter()
            results = [_outcome(result, fn, args) for args in calls]
            times[side].append(time.perf_counter() - start)
            if expected is None:
                expected = results
            agree &= results == expected
    kernel = f"{fn.__module__.rpartition('.')[2]}.{name}"
    return {"kernel": kernel, "calls": len(calls), "rounds": rounds,
            "old_s": times["old"], "new_s": times["new"],
            "new_wins": sum(n < o for o, n in zip(times["old"], times["new"])),
            "identical": agree}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("workload", choices=sorted(KERNELS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--rounds", type=int, default=40)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    res = compare(args.old_src, args.new_src, args.workload, args.seed, args.rounds)
    old_ms, new_ms = (1e3 * statistics.median(res[k]) for k in ("old_s", "new_s"))
    print(f"kernel_ab: {args.workload} seed {args.seed}, {res['calls']} {res['kernel']} calls, "
          f"{res['rounds']} rounds")
    print(f"median batch: old {old_ms:.2f} ms, new {new_ms:.2f} ms; "
          f"new faster in {res['new_wins']} of {res['rounds']} rounds")
    print("results: " + ("identical" if res["identical"] else "DIFFER"))
    return 0 if res["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
