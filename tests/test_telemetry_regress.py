"""Tests for the perf trajectory tooling: the regression detector, the
trajectory recorder's dedupe, and the read-only ``report`` / ``compare``
commands over ``BENCH_trajectory.json`` rows (no benchmark battery is run —
rows are synthesised).
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

from repro.telemetry.regress import (
    Observation,
    analyze_section,
    analyze_trajectory,
    main as regress_main,
)

_BENCHMARKS = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks")
_TRAJECTORY = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_trajectory.json"
)


def _load_record_trajectory():
    spec = importlib.util.spec_from_file_location(
        "record_trajectory", os.path.join(_BENCHMARKS, "record_trajectory.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _entry(date, rev, seconds=1.0, counters=None, section="bench"):
    return {
        "date": date,
        "rev": rev,
        "sections": {
            section: {
                "instance": "C(8)",
                "seconds": seconds,
                "counters": counters or {"work": 100},
                "histograms": {"lat": {"1": 3, "9": 1}},
            }
        },
        "telemetry": dict(counters or {"work": 100}),
    }


def _write(path, rows):
    path.write_text(json.dumps(rows))
    return str(path)


# --------------------------------------------------------------------- #
# Regression detector


def _series(*seconds, counters=None):
    return [
        Observation(
            date=f"2026-08-{i + 1:02d}",
            rev="r",
            seconds=value,
            counters=(counters[i] if counters else {"work": 100}),
        )
        for i, value in enumerate(seconds)
    ]


def test_clean_series_has_no_findings():
    assert analyze_section("s", _series(1.0, 1.02, 0.98, 1.01, 1.0)) == []


def test_single_observation_is_vacuous():
    assert analyze_section("s", _series(1.0)) == []


def test_timing_regression_flagged():
    findings = analyze_section("s", _series(1.0, 1.0, 1.0, 2.0))
    assert [f.kind for f in findings] == ["timing_regression"]
    assert findings[0].failing
    assert findings[0].ratio == pytest.approx(2.0)
    # Baseline is the trailing median: a single old outlier cannot mask it.
    outlier = analyze_section("s", _series(1.0, 5.0, 1.0, 1.0, 1.0, 2.0))
    assert [f.kind for f in outlier] == ["timing_regression"]


def test_workload_shift_flagged_when_timing_flat():
    counters = [{"work": 100}, {"work": 100}, {"work": 100}, {"work": 200}]
    findings = analyze_section("s", _series(1.0, 1.0, 1.0, 1.05, counters=counters))
    assert [f.kind for f in findings] == ["workload_shift"]
    assert not findings[0].failing
    assert findings[0].metric == "work"
    # Shifts *down* count too.
    counters[-1] = {"work": 50}
    down = analyze_section("s", _series(1.0, 1.0, 1.0, 1.0, counters=counters))
    assert [f.kind for f in down] == ["workload_shift"]


def test_timing_shift_flagged_when_counters_flat():
    findings = analyze_section("s", _series(1.0, 1.0, 1.0, 1.2))
    assert [f.kind for f in findings] == ["timing_shift"]
    assert not findings[0].failing


def test_regression_with_matching_workload_is_not_doubly_reported():
    # Twice the work in twice the time: a regression in wall-clock terms,
    # but the counter movement explains it — one failing finding, no
    # spurious workload_shift on top.
    counters = [{"work": 100}, {"work": 100}, {"work": 100}, {"work": 200}]
    findings = analyze_section("s", _series(1.0, 1.0, 1.0, 2.0, counters=counters))
    assert [f.kind for f in findings] == ["timing_regression"]


def test_analyze_trajectory_old_format_rows():
    # Pre-ledger rows: no rev, no per-section counters -> timing-only.
    rows = [
        {"date": "2026-08-01", "sections": {"bench": {"seconds": 1.0}}},
        {"date": "2026-08-02", "sections": {"bench": {"seconds": 2.0}}},
    ]
    findings = analyze_trajectory(rows)
    assert [f.kind for f in findings] == ["timing_regression"]


def test_analyze_trajectory_engine_sections_use_best_seconds():
    def row(date, best):
        return {
            "date": date,
            "sections": {
                "plain": {"seconds": {"a": best + 0.1, "b": best}, "best_seconds": best}
            },
        }

    clean = analyze_trajectory([row("2026-08-01", 1.0), row("2026-08-02", 1.0)])
    assert clean == []
    regressed = analyze_trajectory([row("2026-08-01", 1.0), row("2026-08-02", 3.0)])
    assert [f.kind for f in regressed] == ["timing_regression"]


def test_committed_trajectory_is_quiet():
    with open(_TRAJECTORY) as handle:
        rows = json.load(handle)
    assert not any(f.failing for f in analyze_trajectory(rows))


def test_regress_cli_check(tmp_path, capsys):
    clean = [
        _entry("2026-08-01", "a"),
        _entry("2026-08-02", "b"),
    ]
    path = tmp_path / "traj.json"
    path.write_text(json.dumps(clean))
    assert regress_main(["--check", str(path)]) == 0
    slow = clean + [_entry("2026-08-03", "c", seconds=2.5)]
    path.write_text(json.dumps(slow))
    assert regress_main(["--check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "timing_regression" in out


def test_regress_cli_requires_a_trajectory():
    with pytest.raises(SystemExit):
        regress_main([])


# --------------------------------------------------------------------- #
# record_trajectory integration (no battery run)


def test_append_entry_dedupes_same_date(tmp_path):
    module = _load_record_trajectory()
    output = str(tmp_path / "traj.json")
    module.append_entry(_entry("2026-08-01", "a", seconds=1.0), output)
    module.append_entry(_entry("2026-08-02", "a", seconds=1.1), output)
    rows = json.load(open(output))
    assert [row["date"] for row in rows] == ["2026-08-01", "2026-08-02"]
    # A same-date re-run replaces the earlier row, keeping the latest.
    module.append_entry(_entry("2026-08-02", "b", seconds=9.9), output)
    rows = json.load(open(output))
    assert [row["date"] for row in rows] == ["2026-08-01", "2026-08-02"]
    assert rows[-1]["rev"] == "b"
    assert rows[-1]["sections"]["bench"]["seconds"] == 9.9


def test_append_entry_refuses_non_list(tmp_path):
    module = _load_record_trajectory()
    output = str(tmp_path / "traj.json")
    with open(output, "w") as fh:
        json.dump({"not": "a list"}, fh)
    with pytest.raises(SystemExit):
        module.append_entry(_entry("2026-08-01", "a"), output)


def test_git_rev_short_hash():
    module = _load_record_trajectory()
    rev = module._git_rev()
    assert rev == "unknown" or (4 <= len(rev) <= 40 and rev.isalnum())


# --------------------------------------------------------------------- #
# CLI report / compare over the JSON trajectory


def _cli(argv):
    from repro.cli import main

    return main(argv)


@pytest.mark.parametrize("content", [None, "[]"], ids=["missing", "empty"])
def test_cli_report_without_rows_prints_a_message(tmp_path, capsys, content):
    path = tmp_path / "traj.json"
    if content is not None:
        path.write_text(content)
    assert _cli(["report", "--trajectory", str(path)]) == 0
    assert "no recorded runs yet" in capsys.readouterr().out


def test_cli_report_populated(tmp_path, capsys):
    path = _write(
        tmp_path / "traj.json",
        [_entry("2026-08-01", "a"), _entry("2026-08-02", "b", seconds=2.5)],
    )
    assert _cli(["report", "--trajectory", path]) == 0
    out = capsys.readouterr().out
    assert "section bench" in out
    assert "2026-08-01" in out and "2026-08-02" in out
    assert "timing_regression" in out


def test_cli_report_section_and_last(tmp_path, capsys):
    rows = [_entry("2026-08-01", "a"), _entry("2026-08-02", "b", seconds=2.5)]
    rows[1]["sections"]["other"] = {"seconds": 1.0, "counters": {}}
    path = _write(tmp_path / "traj.json", rows)
    assert _cli(["report", "--trajectory", path, "--section", "bench", "--last", "1"]) == 0
    out = capsys.readouterr().out
    assert "2026-08-01" not in out  # --last 1 keeps only the newest row
    assert "2026-08-02" in out
    assert "section other" not in out  # --section restricts the listing
    assert _cli(["report", "--trajectory", path, "--section", "nosuch"]) == 0
    assert "section nosuch: no recorded runs" in capsys.readouterr().out


def test_cli_report_rejects_a_non_list_trajectory(tmp_path, capsys):
    path = _write(tmp_path / "traj.json", {"not": "a list"})
    assert _cli(["report", "--trajectory", path]) == 1
    assert "trajectory error" in capsys.readouterr().err


def test_cli_compare(tmp_path, capsys):
    path = _write(
        tmp_path / "traj.json",
        [
            _entry("2026-08-01", "aaa", counters={"work": 100}),
            _entry("2026-08-02", "bbb", seconds=2.0, counters={"work": 300}),
        ],
    )
    assert _cli(["compare", "aaa", "bbb", "--trajectory", path]) == 0
    out = capsys.readouterr().out
    assert "2.00x" in out
    assert "work: 100 -> 300" in out
    assert _cli(["compare", "aaa", "bbb", "--trajectory", path, "--section", "nosuch"]) == 1
    assert "no section recorded under both" in capsys.readouterr().err


def test_cli_compare_unknown_revision_lists_the_known_ones(tmp_path, capsys):
    path = _write(
        tmp_path / "traj.json", [_entry("2026-08-01", "aaa"), _entry("2026-08-02", "bbb")]
    )
    assert _cli(["compare", "aaa", "nosuch", "--trajectory", path]) == 1
    err = capsys.readouterr().err
    assert "nosuch" in err
    assert "known: aaa, bbb" in err
    missing = str(tmp_path / "missing.json")
    assert _cli(["compare", "aaa", "bbb", "--trajectory", missing]) == 1
    assert "empty trajectory" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["report"], ["compare", "aaa", "bbb"]], ids=["report", "compare"]
)
def test_cli_read_only_commands_create_no_file(tmp_path, capsys, argv):
    missing = tmp_path / "missing" / "traj.json"
    _cli([*argv, "--trajectory", str(missing)])
    capsys.readouterr()
    assert not missing.parent.exists()
    path = _write(
        tmp_path / "traj.json", [_entry("2026-08-01", "aaa"), _entry("2026-08-02", "bbb")]
    )
    before = sorted(p.name for p in tmp_path.iterdir())
    content = (tmp_path / "traj.json").read_bytes()
    assert _cli([*argv, "--trajectory", path]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert (tmp_path / "traj.json").read_bytes() == content
