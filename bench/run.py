"""Benchmark for the leibnizalg CLI: one seeded workload per run.

    python3 bench/run.py --workload cli-small --seed 1 --seconds 20 --trace 0

With --trace 0 the run is a closed loop with one client: each job is a
fresh `python -m leibnizalg ...` process, started only after the previous
one exits, with the checkout's `src` first on PYTHONPATH. Passes over the
job list repeat until about --seconds have gone by. Every job's exit code
and output are checked against `oracle`; the end-to-end metrics come from
the per-job mean wall times, the children's rusage and the set-up time.

With --trace 1 the same jobs are replayed in-process through
`cli.main(argv)`, plain, with spans and with counters (see `tracing`), and
the per-layer metrics are printed instead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. A record of the run (environment, per-job stdout sha256, metrics,
and spans for a traced run) goes to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
TMP = ROOT / ".bench_tmp"
JOB_TIMEOUT_S = 60
SETUP_SECONDS = 2.0  # set-up is repeated for at least this long ...
SETUP_REPEATS = 5  # ... and at least this often; setup_s is the median
PROBE_REPEATS = 5
HARD_STOP_S = 120  # no job starts after this, so a run ends well within 180 s


class GuardError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _inside(path: str, directory: Path) -> bool:
    return Path(path).resolve().is_relative_to(directory.resolve())


def import_package():
    """Import leibnizalg from this checkout's src, and refuse any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import leibnizalg
        import leibnizalg.cli  # noqa: F401  (the traced run calls cli.main)
    except ImportError as exc:
        raise GuardError(f"cannot import leibnizalg from {SRC}: {exc}") from exc
    if not _inside(leibnizalg.__file__, SRC):
        raise GuardError(f"leibnizalg imported from {leibnizalg.__file__}, outside {SRC}")
    return leibnizalg


def child_package_file(env: dict, cwd: Path) -> str:
    """The leibnizalg.__file__ a child process sees; refuse one outside src."""
    proc = subprocess.run(
        [sys.executable, "-c", "import leibnizalg; print(leibnizalg.__file__)"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=JOB_TIMEOUT_S,
    )
    path = proc.stdout.strip()
    if proc.returncode != 0 or not path or not _inside(path, SRC):
        raise GuardError(f"child processes import leibnizalg from {path or proc.stderr.strip()!r}")
    return str(Path(path).resolve().relative_to(ROOT))


def git_revision() -> str:
    """HEAD of the checkout, read from .git directly; 'unknown' without one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(argv, cwd: Path, env: dict):
    """(exit code, stdout bytes, stderr bytes, wall seconds, cpu seconds) of one child."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, timeout=JOB_TIMEOUT_S)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        code, out, err = -9, exc.stdout or b"", (exc.stderr or b"") + b"\nbenchmark: job timed out"
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    return code, out, err, wall, cpu


def setup(name: str, seed: int, lib, directory: Path):
    """Generate the inputs and write them to directory. Returns the workload
    and the times of its rebuilds: the package's constructors and serializer
    plus the file writes, without the oracle's own work on the inputs."""
    wl = workloads.build(name, seed, lib)
    directory.mkdir()
    times = []
    start = time.perf_counter()
    while len(times) < SETUP_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
        times.append(wl.rebuild(directory))
    return wl, times


def percentile_tail(values: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten values beyond it (nearest rank)."""
    n = len(values)
    if n < 11:
        return 100, max(values)
    pct = (100 * (n - 10)) // n
    rank = -(-pct * n // 100)  # ceil(pct * n / 100)
    return pct, sorted(values)[rank - 1]


def _check(job, code, out: str, err: str) -> str | None:
    try:
        return job.check(code, out, err)
    except Exception as exc:  # a check that cannot read the output counts as a failure
        return f"output check raised {type(exc).__name__}: {exc}"


def timed_run(name: str, seed: int, seconds: float, lib, tmp: Path, env: dict, info: dict):
    directory = tmp / "inputs"
    wl, setups = setup(name, seed, lib, directory)
    jobs = wl.jobs
    # one untimed warm-up job, so the first timed job does not pay for cold caches
    warm_ms = run_child([sys.executable, "-m", "leibnizalg", *jobs[0].argv], directory, env)[3] * 1000.0
    walls = [[] for _ in jobs]
    cpus = [[] for _ in jobs]
    digests = [None] * len(jobs)
    failures = [[] for _ in jobs]
    codes = [None] * len(jobs)
    ran = 0
    start = time.perf_counter()
    # Cycle through the jobs until --seconds have gone by, after at least one
    # full pass; a partial last pass adds samples to the jobs it reached.
    while ran < len(jobs) or time.perf_counter() - start < min(seconds, HARD_STOP_S):
        idx = ran % len(jobs)
        job = jobs[idx]
        code, out, err, wall, cpu = run_child([sys.executable, "-m", "leibnizalg", *job.argv], directory, env)
        ran += 1
        walls[idx].append(wall)
        cpus[idx].append(cpu)
        digest = hashlib.sha256(out).hexdigest()
        reason = _check(job, code, out.decode("utf-8", "replace"), err.decode("utf-8", "replace"))
        if digests[idx] is None:
            digests[idx], codes[idx] = digest, code
        elif reason is None and digest != digests[idx]:
            reason = "stdout differs from the first pass"
        if reason is not None:
            failures[idx].append(reason)
        if job.save_as and code == 0:
            (directory / job.save_as).write_bytes(out)
    elapsed = time.perf_counter() - start
    attempted = ran + wl.input_checks
    failed = sum(len(f) for f in failures) + len(wl.input_errors)
    # A job's time is its mean over its runs. The machine is shared and its
    # speed drifts by up to a half over tens of seconds; the mean over the
    # whole run averages that drift, where a minimum or median would jump
    # between a fast and a slow reading.
    per_job = [statistics.fmean(w) * 1000.0 for w in walls]
    per_job_cpu = [statistics.fmean(c) * 1000.0 for c in cpus]
    pct, tail = percentile_tail(per_job)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "jobs_per_s": (1000.0 * len(jobs) / sum(per_job), "1/s"),
        "job_p50_ms": (statistics.median(per_job), "ms"),
        "cpu_ms_per_job": (statistics.fmean(per_job_cpu), "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    passes = ran / len(jobs)
    notes = [
        f"{passes:.2f} passes of {len(jobs)} jobs, {ran} jobs in {elapsed:.2f} s",
        f"per-job time is the mean over its runs; job_p50_ms is over {len(jobs)} per-job times",
        f"job_tail_ms {tail} ms (p{pct} of the per-job times; reported, not gated: see bench/README.md)",
        f"setup_s is the median of {len(setups)} set-ups, {min(setups):.4f} to {max(setups):.4f} s",
        f"warm-up job (not timed as set-up) {warm_ms:.1f} ms",
        f"fail_share {failed / attempted:.4f} ({failed} of {attempted}: jobs and {wl.input_checks} input checks)",
        *(f"FAILED input {reason}" for reason in wl.input_errors),
        "stdout sha256 over all jobs " + hashlib.sha256("".join(digests).encode()).hexdigest(),
    ]
    record_jobs = [
        {"argv": list(job.argv), "exit": codes[i], "stdout_sha256": digests[i],
         "wall_ms": [w * 1000.0 for w in walls[i]], "cpu_ms": [c * 1000.0 for c in cpus[i]],
         "failures": failures[i]}
        for i, job in enumerate(jobs)
    ]
    info.update(passes=passes, tail_percentile=pct)
    return attempted, failed, metrics, notes, record_jobs, None


def probe_ms(env: dict, cwd: Path) -> tuple[float, float]:
    """Median wall time of `python -c pass`, and of importing leibnizalg.cli beyond that."""
    bare, imported = [], []
    for _ in range(PROBE_REPEATS):
        bare.append(run_child([sys.executable, "-c", "pass"], cwd, env)[3])
        imported.append(run_child([sys.executable, "-c", "import leibnizalg.cli"], cwd, env)[3])
    interp = statistics.median(bare) * 1000.0
    return interp, statistics.median(imported) * 1000.0 - interp


def traced_run(name: str, seed: int, lib, tmp: Path, env: dict, info: dict):
    import tracing

    directory = tmp / "inputs"
    wl = workloads.build(name, seed, lib)
    directory.mkdir()
    wl.rebuild(directory)
    jobs = wl.jobs
    interp_ms, import_ms = probe_ms(env, directory)
    plain_a, outputs = tracing.replay(lib, jobs, directory)
    spans = tracing.SpanTracer()
    with spans.installed(lib):
        traced, traced_out = tracing.replay(lib, jobs, directory, spans)
    plain_b, plain_out = tracing.replay(lib, jobs, directory)
    counter = tracing.CountTracer()
    with counter.installed(lib):
        _, counted_out = tracing.replay(lib, jobs, directory)
    failures = [[] for _ in jobs]
    digests = []
    for idx, job in enumerate(jobs):
        first = outputs[idx]
        digests.append(hashlib.sha256(first[1].encode("utf-8")).hexdigest())
        for replayed in (outputs, traced_out, plain_out, counted_out):
            reason = _check(job, *replayed[idx])
            if reason is None and replayed[idx] != first:
                reason = "output differs between replays"
            if reason is not None:
                failures[idx].append(reason)
    attempted = 4 * len(jobs) + wl.input_checks
    failed = sum(len(f) for f in failures) + len(wl.input_errors)
    layer = tracing.layer_metrics(spans.spans, spans, counter.counts)
    layer["cli.interp_ms"] = interp_ms
    layer["cli.import_ms"] = import_ms
    layer["trace.overhead_share"] = traced / ((plain_a + plain_b) / 2) - 1.0
    metrics = {k: (v, tracing.unit(k)) for k, v in layer.items()}
    reuse = tracing.profile_reuse_by_job(spans.spans, spans)
    notes = [
        f"{len(jobs)} jobs replayed 4 times in-process: plain {plain_a:.3f} s, spans {traced:.3f} s, "
        f"plain {plain_b:.3f} s, then counters",
        f"{len(spans.spans)} spans; cli.interp_ms and cli.import_ms are medians of {PROBE_REPEATS} child runs",
        f"fail_share {failed / attempted:.4f} ({failed} of {attempted}: jobs and {wl.input_checks} input checks)",
        *(f"FAILED input {reason}" for reason in wl.input_errors),
    ] + [
        f"profile reuse, job {job} ({' '.join(jobs[job].argv)}): {d}/{n} = {d / n:.4f}"
        for job, (d, n) in reuse.items()
    ]
    record_jobs = [
        {"argv": list(job.argv), "exit": outputs[i][0], "stdout_sha256": digests[i], "failures": failures[i]}
        for i, job in enumerate(jobs)
    ]
    span_record = {"jobs": [list(j.argv) for j in jobs], "spans": spans.spans}
    return attempted, failed, metrics, notes, record_jobs, span_record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one seeded leibnizalg benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    TMP.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    env = child_env()
    with tempfile.TemporaryDirectory(dir=TMP) as tmpname:
        tmp = Path(tmpname)
        try:
            lib = import_package()
            child_file = child_package_file(env, tmp)
        except GuardError as exc:
            print(f"benchmark: {exc}", file=sys.stderr)
            return 2
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "seconds": args.seconds,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git_revision": git_revision(),
            "leibnizalg_file": child_file,
        }
        if args.trace:
            result = traced_run(args.workload, args.seed, lib, tmp, env, info)
        else:
            result = timed_run(args.workload, args.seed, args.seconds, lib, tmp, env, info)
    attempted, failed, metrics, notes, record_jobs, span_record = result

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"info": info, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "notes": notes, "jobs": record_jobs}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if span_record is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(span_record), encoding="utf-8")

    print("# " + " ".join(f"{k}={v}" for k, v in info.items()))
    for line in notes:
        print(f"# {line}")
    for k, (v, u) in metrics.items():
        print(f"# {k} {v} {u}")
    for i, job in enumerate(record_jobs):
        for reason in sorted(set(job["failures"])):
            print(f"# FAILED job {i} ({' '.join(job['argv'])}): {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
