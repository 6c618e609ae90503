"""Persistent run ledger: a queryable sqlite home for the perf trajectory.

``BENCH_trajectory.json`` keeps the committable, human-diffable history;
this module keeps the *queryable* one — a stdlib-``sqlite3`` database
(WAL-journalled, safe for concurrent CI writers) that
``benchmarks/record_trajectory.py`` appends to alongside the JSON, and
that ``repro-gossip report`` / ``repro-gossip compare`` and the
regression detector (:mod:`repro.telemetry.regress`) read back.

The path resolves in order: explicit argument, the ``REPRO_LEDGER``
environment variable, then ``.repro/ledger.db`` under the current
directory (created on demand).

Schema (``PRAGMA user_version`` = :data:`SCHEMA_VERSION`)::

    runs(id, date, rev, section, seconds, attrs, created)
        one benchmark section of one recording, keyed UNIQUE(date, rev,
        section); ``attrs`` holds the section's scalar metadata as JSON
        (instance, trials, objective, ...).
    counters(run_id, name, value)
        the section's flushed telemetry counters.
    histogram_buckets(run_id, name, bucket, count)
        the section's distributions over the shared log-spaced layout
        (:class:`~repro.telemetry.core.Histogram`); bucket-wise rows, so
        aggregating across runs is a ``GROUP BY`` sum.

Re-recording an existing ``(date, rev, section)`` replaces the old row and
its counters/buckets — the latest run of a day wins, matching the JSON
trajectory's dedupe rule.  Opening a ledger migrates an empty or
older-versioned database forward; a database from a *newer* schema is
refused rather than guessed at.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.telemetry.core import Histogram

__all__ = [
    "DEFAULT_LEDGER_PATH",
    "LEDGER_ENV_VAR",
    "Ledger",
    "LedgerError",
    "RunRow",
    "SCHEMA_VERSION",
    "ledger_path",
    "record_entry",
]

#: Environment variable naming the ledger database path.
LEDGER_ENV_VAR = "REPRO_LEDGER"

#: Default ledger location, relative to the current working directory.
DEFAULT_LEDGER_PATH = os.path.join(".repro", "ledger.db")

#: Current ``PRAGMA user_version``.  Bump together with ``_MIGRATIONS``.
SCHEMA_VERSION = 1

_MIGRATIONS: dict[int, str] = {
    # 0 -> 1: the initial schema.
    1: """
    CREATE TABLE runs (
        id INTEGER PRIMARY KEY,
        date TEXT NOT NULL,
        rev TEXT NOT NULL,
        section TEXT NOT NULL,
        seconds REAL,
        attrs TEXT NOT NULL DEFAULT '{}',
        created REAL NOT NULL,
        UNIQUE (date, rev, section)
    );
    CREATE TABLE counters (
        run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
        name TEXT NOT NULL,
        value INTEGER NOT NULL,
        PRIMARY KEY (run_id, name)
    );
    CREATE TABLE histogram_buckets (
        run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
        name TEXT NOT NULL,
        bucket INTEGER NOT NULL,
        count INTEGER NOT NULL,
        PRIMARY KEY (run_id, name, bucket)
    );
    CREATE INDEX runs_section_date ON runs(section, date);
    """,
}


class LedgerError(RuntimeError):
    """A ledger database that cannot be opened or understood."""


def ledger_path(path: str | None = None) -> str:
    """Resolve the ledger location: argument > ``REPRO_LEDGER`` > default."""
    if path:
        return path
    env = os.environ.get(LEDGER_ENV_VAR, "").strip()
    return env or DEFAULT_LEDGER_PATH


@dataclass(frozen=True)
class RunRow:
    """One ``runs`` row, with its counters and histograms attached."""

    run_id: int
    date: str
    rev: str
    section: str
    seconds: float | None
    attrs: dict[str, Any] = field(compare=False)
    counters: dict[str, int] = field(compare=False)
    histograms: dict[str, Histogram] = field(compare=False)


class Ledger:
    """An open run-ledger database (context manager).

    ``Ledger(path)`` creates the parent directory and the database on
    demand, switches it to WAL journalling, and migrates the schema to
    :data:`SCHEMA_VERSION`.  ``read_only=True`` never writes: an existing
    file is opened read-only and a missing one reads as an empty in-memory
    ledger, so ``report`` after a fresh clone creates nothing.
    """

    def __init__(self, path: str | None = None, *, read_only: bool = False) -> None:
        self.path = ledger_path(path)
        if read_only and not os.path.exists(self.path):
            self._conn = sqlite3.connect(":memory:")
        elif read_only:
            # No -wal file: all pages are in the main file; immutable=1 adds no -wal/-shm.
            immutable = "" if os.path.exists(self.path + "-wal") else "&immutable=1"
            uri = f"{Path(self.path).absolute().as_uri()}?mode=ro{immutable}"
            self._conn = sqlite3.connect(uri, uri=True)
        else:
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            self._conn = sqlite3.connect(self.path)
            self._conn.execute("PRAGMA journal_mode=WAL")
        try:
            self._conn.execute("PRAGMA foreign_keys=ON")
            self._migrate()
        except sqlite3.DatabaseError as exc:
            self._conn.close()
            raise LedgerError(f"cannot use ledger {self.path}: {exc}") from None

    # ------------------------------------------------------------------ #
    def _migrate(self) -> None:
        (version,) = self._conn.execute("PRAGMA user_version").fetchone()
        if version > SCHEMA_VERSION:
            raise LedgerError(
                f"{self.path} has ledger schema v{version}, newer than this "
                f"code's v{SCHEMA_VERSION}; refusing to touch it"
            )
        with self._conn:
            for target in range(version + 1, SCHEMA_VERSION + 1):
                self._conn.executescript(_MIGRATIONS[target])
                self._conn.execute(f"PRAGMA user_version = {target}")

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "Ledger":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def record_run(
        self,
        *,
        date: str,
        rev: str,
        section: str,
        seconds: float | None,
        counters: Mapping[str, int] | None = None,
        histograms: Mapping[str, Histogram] | None = None,
        attrs: Mapping[str, Any] | None = None,
    ) -> int:
        """Insert (or replace) one section row; returns its ``runs.id``.

        An existing ``(date, rev, section)`` row is deleted first — its
        counters and buckets cascade away — so re-running a benchmark on
        one day keeps only the latest numbers.
        """
        with self._conn:
            self._conn.execute(
                "DELETE FROM runs WHERE date = ? AND rev = ? AND section = ?",
                (date, rev, section),
            )
            cursor = self._conn.execute(
                "INSERT INTO runs (date, rev, section, seconds, attrs, created)"
                " VALUES (?, ?, ?, ?, ?, ?)",
                (
                    date,
                    rev,
                    section,
                    seconds,
                    json.dumps(dict(attrs or {}), sort_keys=True),
                    time.time(),
                ),
            )
            run_id = int(cursor.lastrowid)
            if counters:
                self._conn.executemany(
                    "INSERT INTO counters (run_id, name, value) VALUES (?, ?, ?)",
                    [(run_id, name, int(value)) for name, value in sorted(counters.items())],
                )
            if histograms:
                self._conn.executemany(
                    "INSERT INTO histogram_buckets (run_id, name, bucket, count)"
                    " VALUES (?, ?, ?, ?)",
                    [
                        (run_id, name, int(bucket), int(count))
                        for name, hist in sorted(histograms.items())
                        for bucket, count in sorted(hist.buckets.items())
                    ],
                )
        return run_id

    # ------------------------------------------------------------------ #
    def sections(self) -> list[str]:
        """All distinct section names, sorted."""
        rows = self._conn.execute("SELECT DISTINCT section FROM runs ORDER BY section")
        return [section for (section,) in rows]

    def revisions(self) -> list[str]:
        """All distinct revisions, oldest first by recording time."""
        rows = self._conn.execute(
            "SELECT rev FROM runs GROUP BY rev ORDER BY MIN(created)"
        )
        return [rev for (rev,) in rows]

    def runs(
        self,
        *,
        section: str | None = None,
        rev: str | None = None,
        last: int | None = None,
    ) -> list[RunRow]:
        """Matching rows, oldest first (``last`` keeps only the newest N).

        Ordering is by date then recording time, so a re-recorded day sorts
        where its date says, not when it was re-run.
        """
        query = "SELECT id, date, rev, section, seconds, attrs FROM runs"
        clauses, params = [], []
        if section is not None:
            clauses.append("section = ?")
            params.append(section)
        if rev is not None:
            clauses.append("rev = ?")
            params.append(rev)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY date, created"
        rows = [
            RunRow(
                run_id=run_id,
                date=date,
                rev=row_rev,
                section=row_section,
                seconds=seconds,
                attrs=json.loads(attrs),
                counters=self._counters_for(run_id),
                histograms=self._histograms_for(run_id),
            )
            for run_id, date, row_rev, row_section, seconds, attrs in self._conn.execute(
                query, params
            )
        ]
        if last is not None and last >= 0:
            rows = rows[-last:] if last else []
        return rows

    def _counters_for(self, run_id: int) -> dict[str, int]:
        rows = self._conn.execute(
            "SELECT name, value FROM counters WHERE run_id = ? ORDER BY name", (run_id,)
        )
        return {name: value for name, value in rows}

    def _histograms_for(self, run_id: int) -> dict[str, Histogram]:
        buckets: dict[str, dict[int, int]] = {}
        rows = self._conn.execute(
            "SELECT name, bucket, count FROM histogram_buckets WHERE run_id = ?"
            " ORDER BY name, bucket",
            (run_id,),
        )
        for name, bucket, count in rows:
            buckets.setdefault(name, {})[bucket] = count
        return {name: Histogram.from_buckets(b) for name, b in buckets.items()}


def record_entry(ledger: Ledger, entry: Mapping[str, Any], rev: str) -> list[int]:
    """Write one trajectory-JSON row's sections into ``ledger``.

    ``entry`` is a ``record_trajectory.py`` row (``date`` + ``sections``,
    each section optionally carrying ``counters`` / ``histograms``); the
    scalar leftovers of each section land in ``runs.attrs``.  Returns the
    inserted run ids.
    """
    run_ids = []
    for name, section in sorted(entry["sections"].items()):
        attrs = {
            key: value
            for key, value in section.items()
            if key not in ("counters", "histograms", "seconds")
            and isinstance(value, (str, int, float, bool))
        }
        seconds = section.get("seconds")
        if isinstance(seconds, dict):  # engine sections: per-backend timings
            attrs.update({f"seconds_{k}": v for k, v in sorted(seconds.items())})
            seconds = section.get("best_seconds")
        histograms = {
            hist_name: Histogram.from_buckets(
                {int(bucket): count for bucket, count in hist_buckets.items()}
            )
            for hist_name, hist_buckets in section.get("histograms", {}).items()
        }
        run_ids.append(
            ledger.record_run(
                date=entry["date"],
                rev=rev,
                section=name,
                seconds=seconds,
                counters=section.get("counters") or {},
                histograms=histograms,
                attrs=attrs,
            )
        )
    return run_ids
