"""CLI input validation: bad numbers are usage errors, library errors one line.

Every numeric flag is checked by argparse, so a bad value exits with code 2
and an ``argument --flag: ...`` message before any work starts.  Inputs that
only the library can reject (e.g. more crashed vertices than the graph has,
or a ``--size`` the family's builder refuses) reach the ``ReproError``
boundary in :func:`repro.cli.main`, which prints one line and returns 2
instead of a traceback.  An output path that cannot be written takes the
same one-line path, and a reader that closes the stdout pipe early ends the
run quietly.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

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
]


@pytest.mark.parametrize(
    ("argv", "flag"), BAD_ARGUMENTS, ids=[" ".join(argv[-2:]) for argv, _ in BAD_ARGUMENTS]
)
def test_bad_numeric_argument_is_a_usage_error(argv, flag, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


#: Bad input only the library can reject: each takes the one-line
#: ``repro-gossip: error:`` path with exit code 2.
LIBRARY_ERRORS = [
    # argparse cannot know the graph has 8 vertices; CrashFaults rejects k = 99.
    (ROBUSTNESS + ["--model", "crash", "--k", "99", "--trials", "5"], "crash count"),
    (["optimize", "--family", "cycle", "--size", "abc"], "expected integers"),
    (["optimize", "--family", "cycle", "--size", "4x4"], "expects 1 size value(s)"),
    (["robustness", "--family", "grid", "--size", "5"], "expects 2 size value(s)"),
    (["optimize", "--family", "grid", "--size", "0x3"], "invalid --size '0x3' for grid"),
]


@pytest.mark.parametrize(
    ("argv", "message"),
    LIBRARY_ERRORS,
    ids=["crash-k", "size-not-integer", "size-arity-1", "size-arity-2", "size-rejected"],
)
def test_library_error_is_one_line_with_exit_code_2(argv, message, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("repro-gossip: error: ")
    assert message in err
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


@pytest.mark.parametrize(
    "target", ["trace-flag", "trace-env", "chrome", "trace-flag-dir", "chrome-dir"]
)
def test_unwritable_output_path_is_one_line_with_exit_code_2(
    target, tmp_path, capsys, monkeypatch
):
    # "-dir" targets name an existing directory instead of a missing parent.
    missing = str(tmp_path) if target.endswith("-dir") else str(tmp_path / "missing" / "out")
    message = "cannot write trace: "
    if target.startswith("trace-flag"):
        argv = ["--trace", missing, "fig4"]
    elif target == "trace-env":
        monkeypatch.setenv("REPRO_TRACE", missing)
        argv = ["fig4"]
    else:
        trace = str(tmp_path / "t.jsonl")
        assert main(["--trace", trace, "fig4"]) == 0
        argv, message = ["stats", trace, "--chrome", missing], "cannot write Chrome trace: "
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("repro-gossip: error: " + message)
    assert "\n" not in err


def _run_into_closed_pipe(argv):
    """Run ``python -m repro ARGV`` with a stdout pipe whose reader is gone."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("REPRO_TRACE", None)
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first line is written
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    return proc


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
def test_closed_stdout_pipe_exits_quietly(trace, tmp_path):
    argv = ["--trace", str(tmp_path / "t.jsonl"), "fig4"] if trace else ["fig4"]
    proc = _run_into_closed_pipe(argv)
    assert proc.returncode == 1
    assert proc.stderr.decode() == ""


@pytest.mark.parametrize(
    "argv",
    [["structure"], ["broadcast"], ROBUSTNESS + ["--trials", "10"]],
    ids=["structure", "broadcast", "robustness"],
)
def test_closed_stdout_pipe_exits_quietly_on_other_subcommands(argv):
    proc = _run_into_closed_pipe(argv)
    assert proc.returncode == 1
    assert proc.stderr.decode() == ""


@pytest.mark.parametrize("command", ["report", "compare"])
def test_retired_subcommand_is_an_invalid_choice(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command])
    assert excinfo.value.code == 2
    assert f"invalid choice: '{command}'" in capsys.readouterr().err


def _tree(root):
    """Every file under ``root`` with its bytes (directories as ``None``)."""
    return {
        str(path.relative_to(root)): (path.read_bytes() if path.is_file() else None)
        for path in sorted(root.rglob("*"))
    }


READ_ONLY_COMMANDS = [
    ["fig4"],
    ["fig5"],
    ["fig6"],
    ["fig8"],
    ["structure"],
    ["sandwich"],
    ["broadcast"],
    ["search", "--iterations", "1"],
    ROBUSTNESS + ["--trials", "10"],
    OPTIMIZE + ["--iterations", "5"],
    ["stats", "TRACE"],
]


@pytest.mark.parametrize("argv", READ_ONLY_COMMANDS, ids=[argv[0] for argv in READ_ONLY_COMMANDS])
def test_read_only_command_writes_no_file(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    trace = tmp_path / "t.jsonl"
    assert main(["--trace", str(trace), "fig4"]) == 0
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    before = _tree(tmp_path)
    capsys.readouterr()
    assert main([str(trace) if arg == "TRACE" else arg for arg in argv]) == 0
    assert capsys.readouterr().out
    assert _tree(tmp_path) == before
