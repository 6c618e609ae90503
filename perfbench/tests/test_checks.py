"""Each workload's output check passes a right result and counts a
deliberately wrong one as a failed job."""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest

from perfbench import stats
from perfbench.run import check_all
from perfbench.workloads import REPORT, All, Job, Optimize, Robustness, drop_column, parse_report


def _error_rate(workload, job, outcomes) -> float:
    jobs = [job] * len(outcomes)
    return stats.error_rate(check_all(workload, jobs, outcomes), len(jobs))


def test_optimize_check_counts_a_wrong_result():
    workload = Optimize()
    workload.build()
    job = Job("C(16)/hill", 0, "hill", 3)
    right = workload._solve(workload.graphs[0], "hill", job.seed, 4)
    assert workload.check(job, right) is None
    off_by_one = dataclasses.replace(right, found=right.found + 1, gap=right.gap + 1)
    negative_gap = dataclasses.replace(right, gap=-1)
    never_done = dataclasses.replace(right, found=None)
    assert _error_rate(workload, job, [right, off_by_one, negative_gap, never_done]) == 0.75


@pytest.fixture(scope="module")
def robustness():
    workload = Robustness()
    workload.build()
    workload.trials = 8
    return workload


@pytest.mark.parametrize("variant", ["bernoulli(p=0.2)", "crash(k=2)", "stacked:bernoulli(p=0.05)"])
def test_robustness_check_counts_a_wrong_result(robustness, variant):
    job = Job("Q(8)", 2, variant, 11)
    right = robustness.run(job)
    assert robustness.check(job, right) is None
    first = right[0]
    rounds = first.replayed[0]
    wrong_replay = (dataclasses.replace(first, replayed=(None if rounds else 1,)), *right[1:])
    wrong_nominal = (dataclasses.replace(first, nominal=first.nominal + 1), *right[1:])
    missing = right[:-1] if len(right) > 1 else ()
    assert _error_rate(robustness, job, [right, wrong_replay, wrong_nominal, missing]) == 0.75


def test_all_check_compares_with_the_report_and_the_consistent_column():
    workload = All()
    for section in ("fig4", "structure"):
        job = Job(section, 0, section, 0)
        assert workload.check(job, workload.run(job)) is None

    job = Job("fig4", 0, "fig4", 0)
    rows = workload.run(job)
    shifted = [dataclasses.replace(rows[0], lambda_star=rows[0].lambda_star + 1e-3), *rows[1:]]
    search = Job("search", 6, "search", 5)  # seed 5 is not the report's seed
    inconsistent = [SimpleNamespace(consistent=True), SimpleNamespace(consistent=False)]
    assert workload.check(search, inconsistent) == "rows [1] are not consistent"
    jobs = [job, job, search]
    assert check_all(workload, jobs, [rows, shifted, inconsistent]) == 2


def test_report_parsing_drops_only_the_stale_engine_column():
    blocks = parse_report(REPORT.read_text(encoding="utf-8"))
    assert {"FIG4", "FIG1-3/7", "BROADCAST", "SEARCH", "ROBUSTNESS", "SANDWICH"} <= set(blocks)
    columns, lines = drop_column(blocks["BROADCAST"], "engine")
    assert "engine" not in columns and columns[0] == "family"
    assert all("vectorized" not in line for line in lines)
    assert len(lines) == len(blocks["BROADCAST"])
