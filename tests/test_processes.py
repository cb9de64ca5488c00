"""Runs in fresh interpreters: the CLI battery under two string hash seeds,
the demos, and the python -m mpunfold.cli entry point."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def test_cli_runs_print_the_same_bytes_under_two_hash_seeds(tmp_path):
    paths = [tmp_path / "0.out", tmp_path / "1.out"]
    with paths[0].open("wb") as zero, paths[1].open("wb") as one:  # in parallel, to files
        runs = [
            subprocess.Popen([sys.executable, str(ROOT / "tests" / "cli_runs.py")], stdout=out,
                             env={**ENV, "PYTHONHASHSEED": seed})
            for seed, out in (("0", zero), ("1", one))
        ]
        assert [run.wait() for run in runs] == [0, 0]
    zero, one = (path.read_text().split("\n$ ") for path in paths)  # one item per run
    assert zero == one


@pytest.mark.parametrize("demo", sorted(ROOT.glob("demos/*.py")), ids=lambda path: path.name)
def test_demo_runs(demo):
    done = subprocess.run([sys.executable, str(demo)], env=ENV, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_module_entry_point_exits_with_the_code_of_main():
    def reach(start):
        argv = ["reach", str(ROOT / "models" / "example_a.bnet"), "--semantics", "async",
                "--from", start, "--to", "001"]
        return subprocess.run([sys.executable, "-m", "mpunfold.cli", *argv],
                              env=ENV, capture_output=True, text=True)

    unreachable, malformed = reach("110"), reach("11")
    assert (unreachable.returncode, json.loads(unreachable.stdout)["verdict"]) == (1, "unreachable")
    assert (malformed.returncode, malformed.stdout) == (2, "")
    assert json.loads(malformed.stderr)["error"]["type"] == "invalid-input"
