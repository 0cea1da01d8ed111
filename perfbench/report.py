"""Run every workload once, untraced, and print every figure of its summary line.

    python3 perfbench/report.py [--seed N]

Each workload runs in its own process through `run.py`, for the
``run_seconds`` that BENCHMARK.json sets, and `run.py` checks every output
before reporting.  The table lists each metric by name and unit per
workload, then the failed operations with their error class.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = RUN.parent.parent / "BENCHMARK.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = json.loads(SPEC.read_text())["run_seconds"]

    summaries = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        line = next(ln for ln in out.splitlines() if ln.startswith("summary "))
        summaries[name] = json.loads(line.split(" ", 1)[1])
        summaries[name]["result"] = json.loads(out.splitlines()[-1])

    names = list(summaries)
    first = summaries[names[0]]["metrics"]
    print(f"{'metric':<18} {'unit':<9}" + "".join(f"{n:>15}" for n in names))
    for metric, spec in first.items():
        row = "".join(f"{summaries[n]['metrics'][metric]['value']:>15.6g}" for n in names)
        print(f"{metric:<18} {spec['unit']:<9}{row}")
    for n in names:
        result = summaries[n]["result"]
        print(f"{n}: correct={result['correct']} failed {result['failed']} of "
              f"{result['attempted']} operations")
        for failure in summaries[n]["failures"]:
            print(f"  {failure}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
