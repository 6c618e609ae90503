"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload optimize --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` repeats the same
jobs with a wrapper around every layer entry point and prints the per-layer
metrics.  Every job's output is checked after the timed loop.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value", "unit"}``).  See
``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import stats  # noqa: E402
from perfbench.layers import PER_LAYER, layer_metrics  # noqa: E402
from perfbench.tracing import JOB, LAYER_TARGETS, Tracer, dead_wrappers  # noqa: E402
from perfbench.workloads import WORKLOADS, Optimize, Workload  # noqa: E402

#: Fresh interpreters set up per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Where the traced run writes its spans.
TRACE_DIR = ROOT / ".perfbench"

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}


def set_up(name: str) -> tuple[Workload, dict[str, float]]:
    """Import, build and warm one workload; return it with the phase times."""
    start = time.perf_counter()
    import repro.cli  # noqa: F401  (what every CLI invocation imports)

    workload = WORKLOADS[name]()
    workload.import_entry_points()
    imported = time.perf_counter()
    workload.build()
    built = time.perf_counter()
    workload.warm_up()
    warmed = time.perf_counter()
    return workload, {
        "import_s": imported - start,
        "build_s": built - imported,
        "warmup_s": warmed - built,
    }


def probe_setup(name: str) -> list[tuple[float, dict[str, float]]]:
    """Set the workload up in ``SETUP_SAMPLES`` fresh interpreters.

    Each sample is the time from spawning the interpreter to its report
    that set-up is done, with the phase times it measured itself.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-probe"],
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=120)
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe for {name} exited with {proc.returncode}")
        samples.append((elapsed, json.loads(line)))
    return samples


def run_loop(workload: Workload, jobs, tracer: Tracer | None = None):
    """Issue ``jobs`` back to back; return (wall s, latencies, outcomes).

    An outcome is the job's return value, or the exception it raised.
    """
    latencies: list[float] = []
    outcomes: list[object] = []
    loop_start = time.perf_counter()
    for job in jobs:
        start = time.perf_counter()
        try:
            if tracer is None:
                outcome = workload.run(job)
            else:
                with tracer.span(JOB):
                    outcome = workload.run(job)
        except Exception as exc:  # a job that raises is a failed job; keep going
            outcome = exc
            traceback.print_exc(file=sys.stderr)
        latencies.append(time.perf_counter() - start)
        outcomes.append(outcome)
    return time.perf_counter() - loop_start, latencies, outcomes


def check_all(workload: Workload, jobs, outcomes) -> int:
    """Check every outcome (outside any timed interval); return failures."""
    failed = 0
    for job, outcome in zip(jobs, outcomes):
        if isinstance(outcome, Exception):
            problem = f"raised {outcome!r}"
        else:
            try:
                problem = workload.check(job, outcome)
            except Exception as exc:  # a check that cannot run fails the job
                problem = f"check raised {exc!r}"
        if problem is not None:
            failed += 1
            print(f"FAILED {workload.name} job {job.label} (seed {job.seed}): {problem}", file=sys.stderr)
    return failed


def result_line(attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    )


def end_to_end(args, workload: Workload) -> int:
    setup_samples = [elapsed for elapsed, _ in probe_setup(args.workload)]
    jobs = workload.jobs(args.seed, workload.cycles(args.seconds))
    wall, latencies, outcomes = run_loop(workload, jobs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = check_all(workload, jobs, outcomes)

    completed = [t for t, o in zip(latencies, outcomes) if not isinstance(o, Exception)]
    tail = stats.tail_percentile(len(latencies))
    values = {
        "setup_s": statistics.median(setup_samples),
        "jobs_per_s": len(completed) / wall,
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": stats.percentile(latencies, tail),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} fresh interpreters",
        "jobs_per_s": f"{len(completed)} jobs in {wall:.3f} s",
        "job_p50_s": f"{len(latencies)} jobs",
        "job_tail_s": f"p{tail} of {len(latencies)} jobs",
        "peak_rss_mb": "workload process",
    }
    print(f"workload {args.workload}  seed {args.seed}  jobs {len(jobs)}")
    for name, unit in END_TO_END.items():
        print(f"  {name:<12} {values[name]:>12.6f} {unit:<4} ({notes[name]})")
    rate = stats.error_rate(failed, len(jobs))
    print(f"  {'error_rate':<12} {rate:>12.6f} {'1':<4} ({failed} of {len(jobs)} jobs failed)")
    print(result_line(len(jobs), failed, {n: (values[n], u) for n, u in END_TO_END.items()}))
    return 0


def traced(args, workload: Workload) -> int:
    from repro import telemetry

    probes = [phases for _, phases in probe_setup(args.workload)]
    startup = {key: statistics.median(p[key] for p in probes) for key in ("import_s", "warmup_s")}
    regret = workload.auto_regret() if isinstance(workload, Optimize) else None
    jobs = workload.jobs(args.seed, workload.cycles(args.seconds))

    _, plain_latencies, plain_outcomes = run_loop(workload, jobs)
    tracer = Tracer()
    recorder = telemetry.StatsRecorder()
    with telemetry.recording(recorder):
        tracer.install(target for targets in LAYER_TARGETS.values() for target in targets)
        try:
            _, latencies, outcomes = run_loop(workload, jobs, tracer)
        finally:
            tracer.restore()

    dead = dead_wrappers(tracer.calls(), workload.live)
    if dead:
        print(
            f"perfbench: wrappers recorded no call on {args.workload}: {', '.join(dead)}\n"
            "An entry point moved or is bound under a name the patch missed.",
            file=sys.stderr,
        )
        return 3

    failed = check_all(workload, jobs, plain_outcomes) + check_all(workload, jobs, outcomes)
    traced_s = sum(latencies)
    values = layer_metrics(
        tracer.spans,
        recorder.stats.counters,
        snapshots=tracer.snapshots,
        traced_s=traced_s,
        untraced_loop_s=sum(plain_latencies),
        startup=startup,
        regret=regret,
    )
    tracer.write(
        TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl",
        {"workload": args.workload, "seed": args.seed, "jobs": len(jobs)},
    )

    print(f"workload {args.workload}  seed {args.seed}  jobs {len(jobs)} (untraced, then traced)")
    for row in regret or ():
        times = "  ".join(f"{name} {s * 1e3:.3f}" for name, s in sorted(row.backend_s.items()))
        print(
            f"  auto_regret {row.instance:<10} auto→{row.auto_pick} {row.auto_s * 1e3:.3f} ms, "
            f"best {row.best}, ratio {row.ratio:.3f}  [{times} ms]"
        )
    print(f"  untraced share {values['untraced_s'] / traced_s:.4f} of {traced_s:.3f} s traced job time")
    units = {name: unit for name, unit, _ in PER_LAYER}
    for name, unit, _ in PER_LAYER:
        print(f"  {name:<36} {values[name]:>14.6f} {unit}")
    print(result_line(2 * len(jobs), failed, {n: (values[n], units[n]) for n, _, _ in PER_LAYER}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_probe:
        _, phases = set_up(args.workload)
        print(json.dumps(phases), flush=True)
        return 0

    workload, _ = set_up(args.workload)
    return traced(args, workload) if args.trace else end_to_end(args, workload)


if __name__ == "__main__":
    sys.exit(main())
