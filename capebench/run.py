"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 capebench/run.py --workload device_batch --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced. ``--trace 1``
runs the workload twice in one process, first untraced and then with
the span wrappers of :mod:`capebench.tracing` installed, and reports the
per-layer metrics plus the tracing overhead; the spans are written as a
Chrome trace under ``capebench/out/``. The last line of standard output
is always the JSON result; the line before it is the provenance stamp.
Every run also appends its full record to ``capebench/out/results.jsonl``.

``setup_s`` is the median of several samples of process start to the
end of set-up: this process's own and those of fresh processes started
with ``--setup-only`` after the measurement.

Simulated cycles are checked against ``capebench/expected_cycles.json``:
the warm-up's on every run (its inputs come from a fixed seed), the
timed unit's where the table has an entry for it. A mismatch is a model
change and fails the run.

Exit codes: 0 for a run whose every output matched its golden, 1 for a
run with a wrong, failed or shed operation or a cycle mismatch (the
JSON still prints), 2 when the program under test cannot be imported.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
EXPECTED_CYCLES = HERE / "expected_cycles.json"

#: Seed used when none is given, and one held out for confirming claims.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017

#: Samples of process start -> set-up done per untraced run (this
#: process plus fresh ones); ``setup_s`` reports their median.
SETUP_SAMPLES = 3

#: End-to-end metrics, printed by every workload with ``--trace 0``.
END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "p50_ms": "ms",
    "peak_rss_mb": "MB",
    "sim_mcycles": "Mcycles",
}

#: Per-layer metrics, printed by every workload with ``--trace 1``
#: (0 where the workload bypasses the layer).
PER_LAYER = {
    "plan.superplan_replay_s": "s",
    "plan.compile_s": "s",
    "plan.compiles": "count",
    "plan.setup_compile_s": "s",
    "plan.cache_hit_ratio": "ratio",
    "plan.superplan_fusion_ratio": "ratio",
    "gang.replay_s": "s",
    "gang.hit_ratio": "ratio",
    "gang.size_mean": "jobs",
    "csb.microops": "count",
    "csb.bitexec_s": "s",
    "engine.intrinsic_self_s": "s",
    "engine.instructions": "count",
    "vcu.dispatch_s": "s",
    "cp.scalar_s": "s",
    "memory.access_s": "s",
    "memory.accesses": "count",
    "isa.run_s": "s",
    "isa.instructions": "count",
    "runtime.pool_self_s": "s",
    "runtime.job_s": "s",
    "runtime.steals": "count",
    "serve.admit_us": "us",
    "serve.queue_wait_ms": "ms",
    "serve.resolve_us": "us",
    "serve.encode_us.small": "us",
    "serve.encode_us.mid": "us",
    "serve.encode_us.large": "us",
    "serve.decode_us.small": "us",
    "serve.decode_us.mid": "us",
    "serve.decode_us.large": "us",
    "serve.wire.bytes": "bytes",
    "serve.shm_hit_ratio": "ratio",
    "serve.batch.size_mean": "jobs",
    "serve.send_us": "us",
    "serve.reply_wait_ms": "ms",
    "serve.frames": "count",
    "servepool.round_s": "s",
    "servepool.straggler_ms": "ms",
    "servepool.boot_s": "s",
    "servepool.plan.compile_s": "s",
    "loadgen.late_p50_ms": "ms",
    "loadgen.late_p99_ms": "ms",
    "loadgen.backlog_end": "count",
    "latency.p90_ms": "ms",
    "latency.p99_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.covered_share": "ratio",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny shrinks every input (smoke test only)",
    )
    parser.add_argument(
        "--corrupt-golden", action="store_true",
        help="perturb one golden; the run must then fail (smoke test only)",
    )
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up once, print the seconds since process start, and exit",
    )
    parser.add_argument(
        "--record-cycles", action="store_true",
        help=f"write this run's simulated cycles into {EXPECTED_CYCLES.name} "
        "instead of checking them (only after a deliberate model change)",
    )
    return parser.parse_args(argv)


def import_program():
    """Import the library from this checkout's ``src/`` or exit 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    try:
        import repro
    except ImportError as exc:
        print(f"capebench: cannot import the program from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(repro.__file__).resolve().parent.parent != src.resolve():
        print(f"capebench: repro resolved outside {src}: {repro.__file__}", file=sys.stderr)
        sys.exit(2)
    from capebench import workloads

    return workloads


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` files; ``unknown`` if none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_speed_s() -> float:
    """Median time of a fixed pure-Python loop: a host-speed reading
    stamped on every result, to tell host slowdowns from code changes."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def percentile(values, q: float) -> float:
    return float(numpy.percentile(values, q)) if values else 0.0


def peak_rss_mb(workers: int) -> float:
    """Parent peak RSS plus ``workers`` x the largest reaped child's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def end_to_end(phase, workers) -> dict:
    """Every end-to-end metric but ``setup_s``."""
    return {
        "jobs_per_s": statistics.median(phase.rates),
        "p50_ms": percentile(phase.latencies, 50) * 1e3,
        "peak_rss_mb": peak_rss_mb(workers),
        "sim_mcycles": phase.sim_cycles / 1e6,
    }


def setup_sample(args) -> float:
    """Process start to set-up done, measured in a fresh process.

    The sample runs in a session of its own, so that on a timeout the
    whole group (the sample and anything it started) is killed and the
    sample reaped before this returns.
    """
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--scale", args.scale, "--setup-only"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample exited {proc.returncode}: {err[-500:]}")
    return float(out.split()[-1])


def stop_children(timeout: float = 5.0) -> None:
    """Stop and reap every process this run started.

    Worker processes still alive on an error path are terminated
    (killed if they linger) and joined. Then multiprocessing's resource
    tracker, started by the shared-memory wire, is stopped and reaped:
    left alone it outlives this process for a moment after exit.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    children = multiprocessing.active_children()
    for child in children:
        child.terminate()
    for child in children:
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def cycle_problems(wl, scale: str, phase) -> list:
    """Simulated cycles must equal the recorded ones; any change is a
    change of the model, never a speed-up."""
    table = json.loads(EXPECTED_CYCLES.read_text()).get(wl.name, {}).get(scale, {})
    if "warmup" not in table:
        return [f"{EXPECTED_CYCLES.name} records no warm-up cycles for {wl.name}/{scale}"]
    key = wl.unit_key(phase)
    checks = [("warm-up", wl.warm_cycles, table["warmup"]),
              (f"unit {key}", phase.sim_cycles, table.get("unit", {}).get(key))]
    return [
        f"{wl.name}/{scale} {what}: simulated cycles {got!r}, "
        f"{EXPECTED_CYCLES.name} records {want!r} (a model change)"
        for what, got, want in checks
        if want is not None and not math.isclose(got, want, rel_tol=1e-12)
    ]


def record_cycles(wl, scale: str, phase) -> None:
    table = json.loads(EXPECTED_CYCLES.read_text()) if EXPECTED_CYCLES.exists() else {}
    entry = table.setdefault(wl.name, {}).setdefault(scale, {})
    entry["warmup"] = wl.warm_cycles
    entry.setdefault("unit", {})[wl.unit_key(phase)] = phase.sim_cycles
    EXPECTED_CYCLES.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def run_phases(wl, seconds: float, trace: bool, corrupt: bool, setup_only=False):
    """Set up, measure, and (traced) measure again with wrappers on.

    Returns ``(setup_s, untraced, traced, tracer, setup_counters,
    speed_before)``, where ``setup_s`` runs from process start to the
    end of set-up; with ``setup_only`` only ``setup_s`` is meaningful.
    """
    from capebench import tracing

    is_async = asyncio.iscoroutinefunction(wl.setup)

    async def call(fn, *args):
        result = fn(*args)
        return await result if is_async else result

    async def main():
        try:
            return await phases()
        finally:
            await call(wl.close)

    async def phases():
        await call(wl.setup)
        setup_s = time.perf_counter() - T_START
        if setup_only:
            return setup_s, None, None, None, {}, 0.0
        speed_before = host_speed_s()
        setup_counters = wl.setup_counters() if hasattr(wl, "setup_counters") else {}
        if corrupt:
            wl.corrupt_golden()
        untraced = await call(wl.measure, seconds / 2 if trace else seconds)
        traced = tracer = None
        if trace:
            tracer = tracing.SpanTracer()
            undo = tracing.install(tracer)
            try:
                wl.tracer = tracer
                if hasattr(wl, "start_tracing"):
                    wl.start_tracing()
                tracer.enabled = True
                traced = await call(wl.measure, seconds / 2)
            finally:
                tracer.enabled = False
                tracing.uninstall(undo)
        return setup_s, untraced, traced, tracer, setup_counters, speed_before

    if is_async:
        return asyncio.run(main())
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(main())
    finally:
        loop.close()


def layer_report(wl, untraced, traced, tracer, setup_counters) -> dict:
    from capebench import tracing

    units = traced.units
    metrics = tracing.layer_metrics(tracer, units)
    if hasattr(wl, "counters"):
        metrics.update(wl.counters(units))
    metrics.update(setup_counters)
    if "wire" in traced.extra:
        from capebench.workloads import wire_counters

        metrics.update(wire_counters(traced.extra["wire"], units))
    # Tail latency of the untraced half: too unsteady run to run on a
    # shared 2-CPU host to gate on, so it is reported here.
    metrics["latency.p90_ms"] = percentile(untraced.latencies, 90) * 1e3
    metrics["latency.p99_ms"] = percentile(untraced.latencies, 99) * 1e3
    for key in ("late_p50_ms", "late_p99_ms", "backlog_end"):
        if key in untraced.extra:
            metrics[f"loadgen.{key}"] = untraced.extra[key]
    if wl.name == "serve_lookup":
        base, now = percentile(untraced.latencies, 50), percentile(traced.latencies, 50)
        metrics["trace.overhead_pct"] = (now / base - 1) * 100 if base else 0.0
    else:
        base, now = statistics.median(untraced.rates), statistics.median(traced.rates)
        metrics["trace.overhead_pct"] = (base / now - 1) * 100 if now else 0.0
    unit_wall = traced.wall_s / max(units, 1)
    metrics["trace.covered_share"] = metrics.pop("trace.covered_s") / unit_wall
    return metrics


def same_path_problems(wl, untraced, traced, counters) -> list:
    """The traced run must take the untraced run's path."""
    problems = []
    if untraced.sim_cycles != traced.sim_cycles:
        problems.append(
            f"traced sim cycles {traced.sim_cycles} != untraced {untraced.sim_cycles}"
        )
    if untraced.outputs != traced.outputs:
        problems.append("traced outputs differ from untraced outputs")
    if wl.name == "device_batch":
        if not counters.get("gang.hit_ratio"):
            problems.append("traced run saw no gang hits")
        if not counters.get("plan.superplan_fusion_ratio"):
            problems.append("traced run replayed no superplans")
        if not counters.get("servepool.plan.superplans"):
            problems.append("traced run built no superplans in the workers")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(
            f"capebench: unknown workload {args.workload!r} "
            f"(choose from {', '.join(workloads.WORKLOADS)})"
        )
    wl = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    trace = bool(args.trace)
    setup_s, untraced, traced, tracer, setup_counters, speed_before = run_phases(
        wl, args.seconds, trace, args.corrupt_golden, args.setup_only
    )
    if args.setup_only:
        print(setup_s)
        return 0
    speed_after = host_speed_s()
    phases = [untraced] + ([traced] if traced else [])
    problems = [msg for phase in phases for msg in phase.wrong]
    if not args.record_cycles:
        problems += cycle_problems(wl, args.scale, untraced)
    elif not problems:
        record_cycles(wl, args.scale, untraced)
    setups = [setup_s]
    if trace:
        metrics = layer_report(wl, untraced, traced, tracer, setup_counters)
        problems += same_path_problems(wl, untraced, traced, metrics)
        names = PER_LAYER
    else:
        # Peak RSS first: the set-up samples' processes must not count.
        metrics = end_to_end(untraced, wl.workers)
        try:
            setups += [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            problems.append(f"set-up sample failed: {exc}")
        metrics["setup_s"] = statistics.median(setups)
        names = END_TO_END
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    correct = not problems and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in names.items()
        },
    }
    provenance = {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "params": wl.params(),
        "setup_runs_s": setups,
        "warmup_sim_cycles": wl.warm_cycles,
        "unit_key": wl.unit_key(untraced),
        "host_speed_s": [speed_before, speed_after],
        "units": [p.units for p in phases],
        "shed": sum(p.shed for p in phases),
        "latency_samples": len(untraced.latencies),
        "latency_ms": {f"p{q}": percentile(untraced.latencies, q) * 1e3 for q in (10, 25, 50, 75, 90, 99)},
        "unit_rates": untraced.rates,
        "tier_rates": untraced.extra.get("tier_rates"),
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if trace:
        provenance["spans_dropped"] = tracer.dropped
        tracer.trace.write_chrome(OUT / f"{stem}.trace.json")
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"provenance": provenance, "result": result,
                             "problems": problems[:20]}) + "\n")
    for msg in problems[:20]:
        print(f"capebench: {msg}", file=sys.stderr)
    print("provenance " + json.dumps(provenance))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
