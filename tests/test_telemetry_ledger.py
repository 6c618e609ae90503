"""Tests for the persistent run ledger, the regression detector, and the
trajectory recorder's dedupe/ledger integration (no benchmark battery is
run — entries are synthesised).
"""

from __future__ import annotations

import importlib.util
import json
import os
import sqlite3
import sys

import pytest

from repro.telemetry.core import Histogram
from repro.telemetry.ledger import (
    DEFAULT_LEDGER_PATH,
    LEDGER_ENV_VAR,
    Ledger,
    LedgerError,
    SCHEMA_VERSION,
    ledger_path,
    record_entry,
)
from repro.telemetry.regress import (
    Observation,
    analyze_ledger,
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


# --------------------------------------------------------------------- #
# Ledger


def test_ledger_created_and_migrated_from_empty(tmp_path):
    path = tmp_path / "sub" / "ledger.db"
    with Ledger(str(path)) as ledger:
        assert ledger.sections() == []
    # Schema version stamped; WAL mode on; tables exist.
    conn = sqlite3.connect(str(path))
    (version,) = conn.execute("PRAGMA user_version").fetchone()
    assert version == SCHEMA_VERSION
    tables = {
        name
        for (name,) in conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table'"
        )
    }
    assert {"runs", "counters", "histogram_buckets"} <= tables
    conn.close()
    # Re-opening an already-migrated ledger is a no-op.
    with Ledger(str(path)) as ledger:
        assert ledger.sections() == []


def test_ledger_refuses_newer_schema(tmp_path):
    path = tmp_path / "future.db"
    conn = sqlite3.connect(str(path))
    conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
    conn.commit()
    conn.close()
    with pytest.raises(LedgerError):
        Ledger(str(path))


def test_ledger_round_trip(tmp_path):
    path = str(tmp_path / "ledger.db")
    hist = Histogram.of(2, 2, 50)
    with Ledger(path) as ledger:
        ledger.record_run(
            date="2026-08-01",
            rev="abc1234",
            section="bench",
            seconds=1.25,
            counters={"work": 7, "rounds": 32},
            histograms={"lat": hist},
            attrs={"instance": "C(8)"},
        )
    with Ledger(path) as ledger:
        (row,) = ledger.runs(section="bench")
        assert (row.date, row.rev, row.section) == ("2026-08-01", "abc1234", "bench")
        assert row.seconds == 1.25
        assert row.counters == {"rounds": 32, "work": 7}
        assert row.attrs == {"instance": "C(8)"}
        assert row.histograms["lat"].buckets == hist.buckets
        assert row.histograms["lat"].count == hist.count


def test_ledger_upsert_replaces_same_key(tmp_path):
    path = str(tmp_path / "ledger.db")
    with Ledger(path) as ledger:
        ledger.record_run(
            date="2026-08-01", rev="abc", section="bench", seconds=1.0,
            counters={"work": 1}, histograms={"lat": Histogram.of(1)},
        )
        ledger.record_run(
            date="2026-08-01", rev="abc", section="bench", seconds=2.0,
            counters={"work": 2},
        )
        rows = ledger.runs(section="bench")
        assert len(rows) == 1
        assert rows[0].seconds == 2.0
        assert rows[0].counters == {"work": 2}
        # The replaced row's counters/buckets cascaded away.
        orphans = ledger._conn.execute("SELECT COUNT(*) FROM histogram_buckets").fetchone()
        assert orphans == (0,)


def test_ledger_path_resolution(tmp_path, monkeypatch):
    monkeypatch.delenv(LEDGER_ENV_VAR, raising=False)
    assert ledger_path() == DEFAULT_LEDGER_PATH
    assert ledger_path("/x/y.db") == "/x/y.db"
    monkeypatch.setenv(LEDGER_ENV_VAR, str(tmp_path / "env.db"))
    assert ledger_path() == str(tmp_path / "env.db")
    assert ledger_path("/x/y.db") == "/x/y.db"


def test_record_entry_maps_sections(tmp_path):
    path = str(tmp_path / "ledger.db")
    entry = _entry("2026-08-01", "abc", seconds=0.5)
    entry["sections"]["engines"] = {
        "instance": "C(1024)",
        "seconds": {"vectorized": 0.2, "frontier": 0.4},
        "best_engine": "vectorized",
        "best_seconds": 0.2,
        "counters": {"engine.vectorized.runs": 1},
        "histograms": {},
    }
    with Ledger(path) as ledger:
        record_entry(ledger, entry, entry["rev"])
        assert ledger.sections() == ["bench", "engines"]
        (engines,) = ledger.runs(section="engines")
        # Engine sections store their best timing as the scalar and keep
        # the per-backend dict in attrs.
        assert engines.seconds == 0.2
        assert engines.attrs["seconds_vectorized"] == 0.2
        assert engines.attrs["best_engine"] == "vectorized"
        (bench,) = ledger.runs(section="bench")
        assert bench.histograms["lat"].buckets == {1: 3, 9: 1}
        assert ledger.revisions() == ["abc"]


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


def test_regress_cli_ledger_mode(tmp_path):
    db = str(tmp_path / "ledger.db")
    with Ledger(db) as ledger:
        record_entry(ledger, _entry("2026-08-01", "a"), "a")
        record_entry(ledger, _entry("2026-08-02", "b", seconds=2.5), "b")
    assert regress_main(["--ledger", db]) == 1
    findings = []
    with Ledger(db) as ledger:
        findings = analyze_ledger(ledger)
    assert [f.kind for f in findings] == ["timing_regression"]


def test_regress_cli_requires_one_input(tmp_path):
    with pytest.raises(SystemExit):
        regress_main([])
    with pytest.raises(SystemExit):
        regress_main(["--check", "x.json", "--ledger", "y.db"])


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
# CLI report / compare


def _cli(argv):
    from repro.cli import main

    return main(argv)


def test_cli_report_empty_and_populated(tmp_path, capsys):
    db = str(tmp_path / "ledger.db")
    assert _cli(["report", "--ledger", db]) == 0
    assert "no recorded runs" in capsys.readouterr().out
    with Ledger(db) as ledger:
        record_entry(ledger, _entry("2026-08-01", "a"), "a")
        record_entry(ledger, _entry("2026-08-02", "b", seconds=2.5), "b")
    assert _cli(["report", "--ledger", db]) == 0
    out = capsys.readouterr().out
    assert "section bench" in out
    assert "2026-08-01" in out and "2026-08-02" in out
    assert "timing_regression" in out
    assert _cli(["report", "--ledger", db, "--section", "bench", "--last", "1"]) == 0
    out = capsys.readouterr().out
    assert "2026-08-01" not in out  # --last 1 keeps only the newest row


def test_cli_compare(tmp_path, capsys):
    db = str(tmp_path / "ledger.db")
    with Ledger(db) as ledger:
        record_entry(ledger, _entry("2026-08-01", "aaa", counters={"work": 100}), "aaa")
        record_entry(
            ledger,
            _entry("2026-08-02", "bbb", seconds=2.0, counters={"work": 300}),
            "bbb",
        )
    assert _cli(["compare", "aaa", "bbb", "--ledger", db]) == 0
    out = capsys.readouterr().out
    assert "2.00x" in out
    assert "work: 100 -> 300" in out
    assert _cli(["compare", "aaa", "nosuch", "--ledger", db]) == 1
    assert "nosuch" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["report"], ["compare", "aaa", "bbb"]], ids=["report", "compare"])
def test_cli_read_only_commands_never_create_the_ledger(tmp_path, capsys, argv):
    db = tmp_path / "missing" / "ledger.db"
    _cli([*argv, "--ledger", str(db)])
    captured = capsys.readouterr()
    assert "no recorded runs" in captured.out + captured.err
    assert not db.exists()
    assert not db.parent.exists()


def test_cli_report_leaves_an_existing_ledger_untouched(tmp_path, capsys):
    db = tmp_path / "ledger.db"
    with Ledger(str(db)) as ledger:
        record_entry(ledger, _entry("2026-08-01", "a"), "a")
    before = sorted(p.name for p in tmp_path.iterdir())
    content = db.read_bytes()
    assert _cli(["report", "--ledger", str(db)]) == 0
    assert "section bench" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert db.read_bytes() == content


def test_read_only_ledger_refuses_writes_and_reports_bad_files(tmp_path):
    db = tmp_path / "ledger.db"
    with Ledger(str(db)) as ledger:
        record_entry(ledger, _entry("2026-08-01", "a"), "a")
    with Ledger(str(db), read_only=True) as ledger:
        assert ledger.sections() == ["bench"]
        with pytest.raises(sqlite3.OperationalError):
            record_entry(ledger, _entry("2026-08-02", "b"), "b")
    junk = tmp_path / "junk.db"
    junk.write_bytes(b"not a database" * 100)
    with pytest.raises(LedgerError):
        Ledger(str(junk), read_only=True)
