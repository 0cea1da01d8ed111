"""Smoke test of tools/cli_diff.py: a tree matches itself, a changed output shows,
in stdout and in a file written by ``--output``, and every case shows the warnings
it raises."""

import importlib.util
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


def test_each_case_shows_a_warning_an_earlier_case_raised(tmp_path):
    # the same warning from the same line in two cases: Python's default
    # filter would print it for the first case only
    spec = importlib.util.spec_from_file_location("cli_diff", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    warning = tmp_path / "src"
    shutil.copytree(SRC, warning, ignore=shutil.ignore_patterns("__pycache__"))
    cli = warning / "protoqubo" / "cli.py"
    cli.write_text(cli.read_text() + (
        "\n\n_main = main\n\n\ndef main(argv=None):\n"
        "    import warnings\n\n"
        "    warnings.warn(\"probe\", RuntimeWarning)\n"
        "    return _main(argv)\n"))
    results = tool._finish(tool._start(str(warning), [["select", "--help"]] * 2), str(warning))
    assert [r["code"] for r in results] == [0, 0]
    for r in results:
        assert "RuntimeWarning: probe" in r["stderr"], r["stderr"]
