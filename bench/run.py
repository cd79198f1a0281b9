"""Closed-loop benchmark of blcalc's public API and CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process, no threads: each query starts when the previous
one returns.  Workloads, queries and answer checks are in ``workloads.py``.

With ``--trace 0`` a fresh process builds the workload's inputs from the seed
and runs whole passes of its queries until ``--seconds`` of query time have
passed (at least one pass), timing each query with ``time.perf_counter``.
Answers are checked after each pass, outside the timed interval.  Set-up is
timed in that process and in further fresh processes, and the median is
reported.  The end-to-end metrics are ``setup_s``, ``queries_per_s``,
``query_p50_ms``, ``query_p90_ms`` and ``peak_rss_mb``; times are given at
the reference speed (see NOMINAL_REF_S).

With ``--trace 1`` a fresh process runs one untraced pass and one traced pass
(see ``tracer.py``), checks that both give the same answers, writes the trace
to ``bench/out/`` and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
records the seed, the environment and the query counts every ratio rests on.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("interpolate", "amalgam", "catalog", "cli")
# Set-up is timed in this many fresh processes (the measuring one included)
# and the median reported, because one process start is noisy.
SETUP_REPEATS = 5
# Every child must end within this many seconds of the start of the run.
RUN_DEADLINE_S = 170
# The shared host's speed drifts by 10-30 % within seconds and by up to 2x
# over an hour, which would swamp the effects the benchmark must resolve.
# Times are therefore reported at a reference speed: around set-up, and
# between segments of about PROBE_EVERY_S of queries, the fixed
# reference_kernel is timed, and each measured time is scaled by
# NOMINAL_REF_S over the kernel's time at that moment.  Unscaled times are
# kept in the run record.
NOMINAL_REF_S = 0.0065
PROBE_EVERY_S = 0.5
PROBE_WINDOW = 3  # probes taken on each side of a segment
# String hashes are randomised per process, and with them the collision
# patterns of blcalc's sets and dicts; that alone moves p50 by up to 20 %
# between processes.  Children run with one fixed hash seed.
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


class ChildError(RuntimeError):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    p.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Child process: set-up and measurement
# ---------------------------------------------------------------------------


def reference_kernel() -> int:
    """Fixed pure-Python work of the kind blcalc does: a dict keyed by tuples
    of ints and short strings, tuple values, then a pass of lookups.  It does
    not touch blcalc, so no change to the program can alter its time."""
    table = {}
    for i in range(8000):
        key = ((i * 7919) % 1000003, str(i % 1000))
        table[key] = (i, table.get(key))
    total = 0
    for key in table:
        total += table[key][0]
    return total


def reference_time() -> float:
    """The reference kernel's current time: the median of three runs."""
    times = []
    # With the collector off, the kernel's time does not depend on how many
    # objects the program keeps alive.
    gc.disable()
    try:
        for _ in range(3):
            t0 = perf_counter()
            reference_kernel()
            times.append(perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


class Pass:
    """The queries of one pass, its wall, and the same wall at the
    reference speed."""

    def __init__(self):
        self.queries = []
        self.wall_s = 0.0
        self.scaled_wall_s = 0.0


def run_pass(workload, tracer=None, calibrate=False) -> Pass:
    """One pass of queries back to back.

    With ``calibrate`` the pass is cut into segments of about PROBE_EVERY_S
    and the reference kernel is timed before, between and after them,
    outside every timed interval.  Each segment's wall and query latencies
    are then scaled by NOMINAL_REF_S over the median of the probes nearest
    to it, so that one disturbed probe cannot skew a long query.
    """
    p = Pass()
    segments = []  # (wall, queries) between consecutive probes
    probes = [reference_time()] if calibrate else []
    segment = []
    start = perf_counter()
    for q in workload.queries():
        if tracer is not None:
            tracer.query_id = len(p.queries)
            tracer.active = True
        t0 = perf_counter()
        try:
            q.result = q.call()
        except Exception as exc:  # a raising query is a failed query, not a crash
            q.error = f"{type(exc).__name__}: {exc}"
        q.latency_s = perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        p.queries.append(q)
        segment.append(q)
        if calibrate and perf_counter() - start >= PROBE_EVERY_S:
            segments.append((perf_counter() - start, segment))
            probes.append(reference_time())
            segment = []
            start = perf_counter()
    segments.append((perf_counter() - start, segment))
    p.wall_s = sum(wall for wall, _ in segments)
    if calibrate:
        probes.append(reference_time())
        for i, (wall, queries) in enumerate(segments):
            # Segment i lies between probes i and i + 1.
            factor = NOMINAL_REF_S / statistics.median(
                probes[max(0, i - PROBE_WINDOW + 1):i + PROBE_WINDOW + 1])
            p.scaled_wall_s += wall * factor
            for q in queries:
                q.scaled_s = q.latency_s * factor
    return p


def count_failures(queries) -> int:
    """Check every answer; report the first few failures on stderr."""
    failed = 0
    for q in queries:
        if q.error is None:
            try:
                ok = bool(q.check(q.result))
            except Exception as exc:  # a check that cannot read the answer fails it
                ok = False
                q.error = f"check raised {type(exc).__name__}: {exc}"
        else:
            ok = False
        if not ok:
            failed += 1
            if failed <= 5:
                print(f"FAILED {q.label}: {q.error or 'wrong answer'}", file=sys.stderr)
    return failed


def latency_metrics(latencies, wall) -> dict:
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return {
        "queries_per_s": len(latencies) / wall,
        "query_p50_ms": cuts[49] * 1e3,
        "query_p90_ms": cuts[89] * 1e3,
    }


def timed_run(workload, seconds: float) -> dict:
    latencies, scaled = [], []
    wall = scaled_wall = 0.0
    passes = failed = 0
    while passes == 0 or wall < seconds:
        p = run_pass(workload, calibrate=True)
        wall += p.wall_s
        scaled_wall += p.scaled_wall_s
        passes += 1
        latencies += [q.latency_s for q in p.queries]
        scaled += [q.scaled_s for q in p.queries]
        failed += count_failures(p.queries)
        del p  # so that peak memory does not depend on the pass count
    return {
        "attempted": len(latencies),
        "failed": failed,
        "passes": passes,
        "query_wall_s": wall,
        "unscaled": latency_metrics(latencies, wall),
        "metrics": latency_metrics(scaled, scaled_wall),
    }


def traced_run(workload, args) -> dict:
    from tracer import Tracer
    from workloads import canonical_answer

    plain = run_pass(workload)
    failed = count_failures(plain.queries)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(workload, tracer)
    finally:
        tracer.uninstall()
    if len(traced.queries) != len(plain.queries):
        raise ChildError(f"traced pass ran {len(traced.queries)} queries, "
                         f"untraced {len(plain.queries)}")
    for a, b in zip(plain.queries, traced.queries):
        if b.error is None and canonical_answer(a.result) != canonical_answer(b.result):
            b.error = "traced answer differs from the untraced one"
    failed += count_failures(traced.queries)
    metrics = tracer.metrics()
    metrics["trace_overhead_ratio"] = traced.wall_s / plain.wall_s
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
    trace = tracer.to_json()
    trace.update(workload=args.workload, seed=args.seed, environment=environment(),
                 labels=[q.label for q in traced.queries],
                 untraced_wall_s=plain.wall_s, traced_wall_s=traced.wall_s)
    trace_file.write_text(json.dumps(trace, indent=1, sort_keys=True) + "\n")
    return {
        "attempted": len(plain.queries) + len(traced.queries),
        "failed": failed,
        "passes": 2,
        "query_wall_s": plain.wall_s,
        "trace_file": str(trace_file.relative_to(ROOT)),
        "metrics": metrics,
    }


def child_main(args) -> int:
    ref_before = reference_time()
    start = perf_counter()
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    if not Path(workloads.cli.__file__).resolve().is_relative_to(SRC):
        raise ChildError(f"imported blcalc from {workloads.cli.__file__}, not from {SRC}")
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir)
        setup_s = perf_counter() - start
        setup_ref = (ref_before + reference_time()) / 2
        if args.child == "setup":
            summary = {}
        elif args.trace:
            summary = traced_run(workload, args)
        else:
            summary = timed_run(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summary["setup_s"] = setup_s * NOMINAL_REF_S / setup_ref
    summary["unscaled_setup_s"] = setup_s
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(summary))
    return 0


# ---------------------------------------------------------------------------
# Parent process
# ---------------------------------------------------------------------------


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }


def run_child(args, role: str, deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, env=CHILD_ENV,
                              timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{role} process exceeded the {RUN_DEADLINE_S} s deadline") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildError(f"{role} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "blcalc" / "__init__.py").is_file():
        print(f"error: blcalc sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)

    deadline = perf_counter() + RUN_DEADLINE_S
    try:
        run = run_child(args, "measure", deadline)
        setups = [run]
        if not args.trace:
            setups += [run_child(args, "setup", deadline) for _ in range(SETUP_REPEATS - 1)]
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        from tracer import per_layer_names

        units = dict(per_layer_names())
    else:
        run["metrics"]["setup_s"] = statistics.median(r["setup_s"] for r in setups)
        run["metrics"]["peak_rss_mb"] = run["peak_rss_mb"]
        units = {"setup_s": "s", "queries_per_s": "1/s", "query_p50_ms": "ms",
                 "query_p90_ms": "ms", "peak_rss_mb": "MB"}
    metrics = {name: {"value": run["metrics"][name], "unit": unit} for name, unit in units.items()}
    error_ratio = run["failed"] / run["attempted"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": environment(),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "error_ratio": error_ratio,
        "passes": run["passes"],
        "query_wall_s": run["query_wall_s"],
        "setup_samples_s": [r["setup_s"] for r in setups],
        "unscaled_setup_samples_s": [r["unscaled_setup_s"] for r in setups],
        "unscaled": run.get("unscaled"),
        "trace_file": run.get("trace_file"),
    }
    print(json.dumps({"run": record}, sort_keys=True))
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} error_ratio = {error_ratio:.6g} ratio "
          f"({run['failed']} of {run['attempted']} queries)")
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
