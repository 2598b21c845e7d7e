"""Golden reports: CLI runs whose stdout, stderr and exit code must stay
byte-identical, recorded in ``tests/data/golden_reports.json``.

Each case is a script of commands run in-process, in order, in one
fresh directory, so bundles are written and read under relative names
and the reports that echo those names do not depend on where the tests
run.  After a deliberate change to a report, rewrite the file with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

import pytest

from orthokit import cli

DATA = pathlib.Path(__file__).parent / "data" / "golden_reports.json"

CASES = {
    "reproduce big-sets": [["reproduce", "big-sets"]],
    "reproduce catalog": [["reproduce", "catalog"]],
    "reproduce bounds": [["reproduce", "bounds", "--format", "table"]],
    "reproduce askew": [["reproduce", "askew"]],
    "reproduce half-dim": [["reproduce", "half-dim-nonexistence"]],
    "exponent scan": [["search", "exponent-scan", "--q", "5", "--r", "5",
                       "--w-max", "10"]],
    "power chain": [["search", "power-chain", "--q", "2", "--r", "7",
                     "--w", "3"]],
    "clique": [["search", "clique", "--q", "2", "--r", "5",
                "--w-list", "3,5,11,13,17"]],
    "half-dim search and bound": [
        ["search", "half-dim", "--dim", "2", "--q", "3", "--max-certificates",
         "2", "--out", "found.json"],
        ["verify", "found.json", "--property", "half-dim"],
        ["bound", "--kind", "affine", "--dim", "2", "--q", "3", "found.json"],
    ],
    "phi family": [
        ["construct", "phi-family", "--q", "2", "--r", "5", "--w", "3",
         "--n", "5", "--out", "phi.json"],
        ["verify", "phi.json", "--format", "table"],
        ["construct", "phi-family", "--q", "2", "--r", "5", "--w", "3",
         "--n", "6", "--out", "long.json"],
        ["verify", "long.json"],
        ["verify", "long.json", "--property", "askew"],
    ],
    "catalog": [
        ["construct", "catalog", "--name", "AG2_F3_X7", "--out", "cat.json"],
        ["verify", "cat.json"],
        ["bound", "--kind", "affine", "--dim", "2", "--q", "3", "cat.json"],
    ],
    "char-p": [
        ["construct", "char-p", "--p", "3", "--n", "2", "--k", "2",
         "--out", "charp.json"],
        ["verify", "charp.json", "--k", "3"],
        ["verify", "charp.json", "--k", "2", "--format", "table"],
    ],
    "askew": [
        ["construct", "askew", "--k", "2", "--q", "3", "--out", "askew.json"],
        ["verify", "askew.json", "--property", "askew"],
        ["verify", "askew.json", "--k", "3"],
    ],
}


def run_case(argvs) -> list[dict]:
    """Each command's argv, exit code, stdout and stderr, run in the
    current directory."""
    out = []
    for argv in argvs:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(list(argv))
        out.append({"argv": argv, "code": code, "stdout": stdout.getvalue(),
                    "stderr": stderr.getvalue()})
    return out


@pytest.mark.parametrize("name", CASES)
def test_golden_report(name, tmp_path, monkeypatch):
    golden = json.loads(DATA.read_text())
    monkeypatch.delenv("ORTHOKIT_CHECKPOINT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    assert run_case(CASES[name]) == golden[name]


if __name__ == "__main__":
    os.environ.pop("ORTHOKIT_CHECKPOINT_DIR", None)
    runs = {}
    for name, argvs in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            here = os.getcwd()
            os.chdir(tmp)
            try:
                runs[name] = run_case(argvs)
            finally:
                os.chdir(here)
        print(name, [r["code"] for r in runs[name]], file=sys.stderr)
    DATA.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
