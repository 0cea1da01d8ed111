"""Smoke test of tools/cli_diff.py: a tree matches itself, and a changed output shows,
in stdout and in a file written by ``--output``."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "cli_diff.py"
SRC = ROOT / "src"


def cli_diff(old, new):
    return subprocess.run([sys.executable, str(TOOL), str(old), str(new)],
                          capture_output=True, text=True, timeout=120)


def test_same_tree_has_no_differences():
    done = cli_diff(SRC, SRC)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.endswith(" 0 differences\n")


def test_changed_export_format_is_reported(tmp_path):
    mutated = tmp_path / "src"
    shutil.copytree(SRC, mutated, ignore=shutil.ignore_patterns("__pycache__"))
    qubo = mutated / "protoqubo" / "qubo.py"
    text = qubo.read_text()
    header = 'f"{q.n} {nnz}\\n"'
    assert text.count(header) == 1
    qubo.write_text(text.replace(header, 'f"{q.n}  {nnz}\\n"'))
    done = cli_diff(SRC, mutated)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "export-qubo" in done.stdout and "stdout differs" in done.stdout
    for form in ("med", "kde"):
        assert (f"--formulation {form} --output {{output}}: output file differs"
                in done.stdout), done.stdout
    assert " 0 differences" not in done.stdout
