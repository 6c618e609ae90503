"""CLI input validation: bad numbers are usage errors, library errors one line.

Every numeric flag is checked by argparse, so a bad value exits with code 2
and an ``argument --flag: ...`` message before any work starts.  Inputs that
only the library can reject (e.g. more crashed vertices than the graph has)
reach the ``ReproError`` boundary in :func:`repro.cli.main`, which prints one
line and returns 2 instead of a traceback.
"""

from __future__ import annotations

import pytest

from repro.cli import main

OPTIMIZE = ["optimize", "--family", "cycle", "--size", "8"]
ROBUSTNESS = ["robustness", "--family", "cycle", "--size", "8"]

BAD_ARGUMENTS = [
    (ROBUSTNESS + ["--trials", "0"], "--trials"),
    (ROBUSTNESS + ["--trials", "-3"], "--trials"),
    (ROBUSTNESS + ["--p", "1.5"], "--p"),
    (ROBUSTNESS + ["--p", "-0.1"], "--p"),
    (ROBUSTNESS + ["--p", "nan"], "--p"),
    (ROBUSTNESS + ["--p", "often"], "--p"),
    (ROBUSTNESS + ["--k", "-1"], "--k"),
    (ROBUSTNESS + ["--max-rounds", "0"], "--max-rounds"),
    (ROBUSTNESS + ["--seed", "-1"], "--seed"),
    (OPTIMIZE + ["--workers", "0"], "--workers"),
    (OPTIMIZE + ["--iterations", "-5"], "--iterations"),
    (OPTIMIZE + ["--iterations", "0"], "--iterations"),
    (OPTIMIZE + ["--iterations", "2.5"], "--iterations"),
    (OPTIMIZE + ["--restarts", "-1"], "--restarts"),
    (OPTIMIZE + ["--fault-p", "2"], "--fault-p"),
    (OPTIMIZE + ["--fault-trials", "0"], "--fault-trials"),
    (OPTIMIZE + ["--seed", "-7"], "--seed"),
    (["search", "--iterations", "0"], "--iterations"),
    (["search", "--seed", "x"], "--seed"),
    (["sandwich", "--unroll-periods", "0"], "--unroll-periods"),
    (["report", "--last", "0"], "--last"),
]


@pytest.mark.parametrize(
    ("argv", "flag"), BAD_ARGUMENTS, ids=[" ".join(argv[-2:]) for argv, _ in BAD_ARGUMENTS]
)
def test_bad_numeric_argument_is_a_usage_error(argv, flag, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


def test_library_error_is_one_line_with_exit_code_2(capsys):
    # argparse cannot know the graph has 8 vertices; CrashFaults rejects k = 99.
    assert main(ROBUSTNESS + ["--model", "crash", "--k", "99", "--trials", "5"]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("repro-gossip: error: ")
    assert "\n" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ROBUSTNESS + ["--p", "0", "--trials", "1", "--k", "0"],
        ROBUSTNESS + ["--p", "1", "--trials", "1", "--max-rounds", "1"],
        OPTIMIZE + ["--iterations", "1", "--restarts", "0", "--seed", "0"],
    ],
    ids=["p-zero", "p-one", "restarts-zero"],
)
def test_boundary_values_are_accepted(argv):
    assert main(argv) in (0, 1)
