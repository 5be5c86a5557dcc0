#!/usr/bin/env python3
"""End-to-end benchmark of the SMPI simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the simulator library and the
perfbench child from source into .bench_build/, generates the workload's
inputs from --seed into .bench_run/, then launches one child process per
workload run (users pay process start and teardown, and peak RSS is per
process), after one fixed host probe. The first child warms the host up
and is left out of the medians; the others run back to back for as long
as the next one is expected to end within --seconds. Every child's exact
work (simulated time, solver and p2p counters) is checked; the last
stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over the children), and
--trace 1 the per-layer ones: children then alternate untraced and traced
(obs::Profiler installed, spans written to .bench_run/), so the tracing
overhead is measured against untraced children of the same run.

    python3 perfbench/run.py --list-metrics    # every metric with its unit
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("bcast_online_1024", "stencil_replay_1024", "contention_campaign")
# Exact-work fields compared between children and against golden.json.
# unit_sim_times is the campaign's per-unit simulated times.
EXACT_FIELDS = (
    "sim_time", "unit_sim_times", "trace.records", "units", "sim.timers_created",
    "smpi.folded_peak_bytes", "surf.solves", "surf.vars_touched", "surf.cons_touched",
    "smpi.pool_hits", "smpi.pool_misses", "smpi.eager_snapshots",
    "smpi.eager_copy_elided", "smpi.bytes_not_copied",
)
# Simulated time of MPI_Bcast(1 MiB) on 1024 ranks of the flat cluster.
BCAST_ANCHOR = "0.139148726"
# A healthy child takes seconds; a hung one is killed well inside the run's limit.
CHILD_LIMIT_S = 100
# Leading children per run that are run and checked but left out of every
# median: the first child after the build, input generation and probe runs
# on a host that has just been idle.
WARMUP_CHILDREN = 1
PROFILER_BUCKETS = ("sim.context_switch", "sim.calendar_advance", "sim.pool_op", "surf.solve")


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def benchmark_spec():
    return load_json(ROOT / "BENCHMARK.json")


# --- build ------------------------------------------------------------------

def build():
    """Configures and builds perfbench_child; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"no simulator sources under {ROOT}")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(build_dir), "--target", "perfbench_child", "-j", "4"],
    ]
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise RuntimeError(f"build step failed: {' '.join(step)}")
    return build_dir / "perfbench_child"


# --- inputs -----------------------------------------------------------------

def make_inputs(workload, seed):
    """The seeded inputs the child receives: input.json (+ campaign.json)."""
    template = load_json(BENCH_DIR / "workloads" / f"{workload}.json")
    inputs = json.loads(json.dumps(template["input"]))
    files = {"input.json": inputs}
    if workload == "stencil_replay_1024":
        inputs["workload_spec"]["seed"] = seed
    if workload == "contention_campaign":
        campaign = json.loads(json.dumps(template["campaign"]))
        campaign["workload"]["seed"] = seed
        campaign["noise"]["seed"] = seed
        files["campaign.json"] = campaign
    return files


def prepare(child, workload, seed):
    run_dir = ROOT / ".bench_run" / f"{workload}-s{seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    for name, doc in make_inputs(workload, seed).items():
        (run_dir / name).write_text(json.dumps(doc, indent=1) + "\n")
    generated = None
    if workload == "stencil_replay_1024":
        out = subprocess.run([str(child), "prepare", str(run_dir)], check=True,
                             stdout=subprocess.PIPE, text=True).stdout
        generated = json.loads(out.strip().splitlines()[-1])["records"]
    return run_dir, generated


# --- one child --------------------------------------------------------------

def spawn(argv, out_path):
    """Runs argv with stdout to out_path; returns (exit code, wall s, rusage, launch ns, reap ns).

    The child gets its own process group, killed whole (campaign workers
    included) if it outlives CHILD_LIMIT_S.
    """
    with open(out_path, "w") as out:
        launch = time.monotonic_ns()
        proc = subprocess.Popen([a if a != "{launch}" else str(launch) for a in argv], stdout=out,
                                start_new_session=True)
        watchdog = threading.Timer(CHILD_LIMIT_S, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        _, status, rusage = os.wait4(proc.pid, 0)
        reaped = time.monotonic_ns()
        watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, (reaped - launch) * 1e-9, rusage, launch, reaped


def probe(child, run_dir):
    if spawn([str(child), "probe"], run_dir / "probe.out")[0] != 0:
        raise RuntimeError("host probe failed")
    return json.loads((run_dir / "probe.out").read_text())["probe_ms"]


def run_child(child, workload, run_dir, index, traced):
    argv = [str(child), "run", str(run_dir), "{launch}"]
    if traced:
        argv += ["--traced", str(run_dir / f"spans-{index}.json")]
    out_path = run_dir / f"child-{index}.out"
    code, wall, ru, launch, reaped = spawn(argv, out_path)
    sample = {"exit": code, "wall_s": wall, "traced": traced,
              "user_s": ru.ru_utime, "sys_s": ru.ru_stime, "minflt": ru.ru_minflt,
              "peak_rss_mb": ru.ru_maxrss / 1024.0}
    try:
        report = json.loads(out_path.read_text().strip().splitlines()[-1], parse_float=str)
    except (ValueError, IndexError):
        sample["report"] = None
        return sample
    sample["report"] = report
    spans = report["spans"]
    exit_span = {"name": "proc.exit", "start": (int(report["end_ns"]) - launch) * 1e-9,
                 "end": (reaped - launch) * 1e-9, "parent": None}
    spans.append(exit_span)
    top = sorted(([float(s["start"]), float(s["end"])] for s in spans if s["parent"] is None))
    if top[0][0] < 0 or top[-1][1] > sample["wall_s"] or any(
            a[1] > b[0] for a, b in zip(top, top[1:])):
        log(f"perfbench: warning: child {index}'s top-level spans do not tile its wall")
    sample["unaccounted_s"] = wall - sum(end - start for start, end in top)
    sample["spans"] = spans
    return sample


# --- checks -----------------------------------------------------------------

def check_sample(sample, workload, seed, golden, generated_records, reference):
    """Returns (attempted, failed, messages) for one child run.

    A child's ops are its own (one simulation, or one campaign unit each);
    a nonzero exit, an unreadable report, an exact-work mismatch against
    golden.json (default seed) or against the run's first child
    (determinism), or a broken invariant fails every op of the child.
    """
    report = sample["report"]
    if report is None:
        return 1, 1, [f"child exited {sample['exit']} without a report"]
    attempted = int(report["attempted"])
    messages = list(report["failures"])
    counters = report["counters"]
    failed = int(report["failed"])
    problems = []
    if sample["exit"] != 0 and not messages:
        problems.append(f"child exited {sample['exit']}")
    pins = golden.get(workload, {})
    if workload == "bcast_online_1024" or seed == pins.get("seed"):
        problems += diff_counters(counters, pins.get("counters", {}), "golden")
    if workload == "bcast_online_1024" and "%.9f" % float(counters.get("sim_time", "nan")) != BCAST_ANCHOR:
        problems.append(f"bcast simulated time {counters.get('sim_time')} != anchor {BCAST_ANCHOR}")
    if reference is not None:
        problems += diff_counters(counters, reference, "first child")
    if generated_records is not None and int(counters.get("trace.records", -1)) != generated_records:
        problems.append(f"replayed {counters.get('trace.records')} records, generated {generated_records}")
    if problems:
        failed = attempted
    return attempted, failed, messages + problems


def diff_counters(actual, expected, what):
    out = []
    for key in EXACT_FIELDS:
        if key in expected and actual.get(key) != expected[key]:
            out.append(f"{key} = {actual.get(key)} differs from {what} {expected[key]}")
    return out


# --- metrics ----------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def window_has_room(elapsed, walls, seconds):
    """Whether one more child, as long as the median child so far, ends within the window."""
    return elapsed + median(walls) <= seconds


def end_to_end(samples, workload, attempted, failed):
    good = [s for s in samples if s["report"] is not None]
    runs = [float(s["report"]["run_s"]) for s in good]
    records = [int(s["report"]["counters"].get("trace.records", 0)) for s in good]
    units = [int(s["report"]["counters"].get("units", 1)) for s in good]
    if workload == "bcast_online_1024":
        # init + bcast + finalize per rank: the TI records this program
        # would capture, so the three workloads share one throughput unit.
        records = [3 * 1024 for _ in good]
    return {
        "wall_s": median([s["wall_s"] for s in good]),
        "setup_s": median([float(s["report"]["setup_s"]) for s in good]),
        "run_s": median(runs),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in good]),
        "records_per_s": median([r / t for r, t in zip(records, runs) if t > 0]),
        "scenarios_per_s": median([u / t for u, t in zip(units, runs) if t > 0]),
        "ok_frac": (attempted - failed) / attempted,
    }


def diagnostics(sample):
    """Drift diagnostics of one child; reported, never used to drop a run."""
    run_s = float(sample["report"]["run_s"])
    workers = int(sample["report"]["layers"].get("campaign.workers", 1))
    cpu = sample["user_s"] + sample["sys_s"]
    # A campaign keeps `workers` CPUs busy during run_s and one otherwise.
    slots = sample["wall_s"] + (workers - 1) * run_s
    return {
        "proc.user_s": sample["user_s"],
        "proc.sys_s": sample["sys_s"],
        "proc.minflt": sample["minflt"],
        "proc.offcpu_s": slots - cpu,
        "proc.unaccounted_s": sample["unaccounted_s"],
        "host.probe_ms": sample["probe_ms"],
    }


def span_total(sample, name):
    return sum(float(s["end"]) - float(s["start"]) for s in sample["spans"] if s["name"] == name)


def per_layer(traced, untraced, workload, observed, load_bytes):
    """Medians of the traced children's layer values."""
    out = {}

    def med(fn):
        return median([fn(s) for s in traced])

    spans = {
        "platform.build_s": "platform.build", "trace.load_s": "trace.load",
        "trace.replay_s": "trace.replay", "workload.generate_s": "workload.generate",
        "smpi.world_init_s": "smpi.world_init", "smpi.world_run_s": "smpi.world_run",
        "smpi.world_teardown_s": "smpi.world_teardown", "campaign.report_s": "campaign.report",
        "proc.exec_s": "proc.exec", "proc.exit_s": "proc.exit",
    }
    for metric, span in spans.items():
        out[metric] = med(lambda s, span=span: span_total(s, span))
    load_s = out["trace.load_s"]
    out["trace.load_mb_per_s"] = load_bytes / 2**20 / load_s if load_s > 0 else 0.0
    counters = traced[0]["report"]["counters"]
    for key in ("trace.records", "smpi.pool_hits", "smpi.pool_misses", "smpi.eager_snapshots",
                "smpi.eager_copy_elided", "smpi.bytes_not_copied", "sim.timers_created",
                "surf.solves", "surf.vars_touched", "surf.cons_touched"):
        out[key] = int(counters.get(key, 0))
    out["smpi.folded_peak_mb"] = int(counters.get("smpi.folded_peak_bytes", 0)) / 2**20
    for key in ("campaign.unit_wall_p50_s", "campaign.unit_wall_max_s", "campaign.harness_s",
                "campaign.retries", "campaign.timeouts"):
        out[key] = med(lambda s, key=key: float(s["report"]["layers"].get(key, 0)))
    out["obs.observe_cost_s"] = float(observed.get("obs.observe_cost_s", 0))
    for bucket in PROFILER_BUCKETS:
        for key in (bucket + "_calls", bucket + "_s"):
            # The campaign's workers are forked: its buckets come from the
            # in-process unit replay of the observe child.
            out[key] = float(observed[key]) if key in observed else med(
                lambda s, key=key: float(s["report"]["layers"].get(key, 0)))
    for key in ("proc.user_s", "proc.sys_s", "proc.minflt", "proc.offcpu_s",
                "proc.unaccounted_s", "host.probe_ms"):
        out[key] = med(lambda s, key=key: diagnostics(s)[key])
    out["tracing.overhead_s"] = med(lambda s: s["wall_s"]) - median([s["wall_s"] for s in untraced])
    return out


# --- main -------------------------------------------------------------------

def measure(workload, seed, seconds, trace):
    golden = load_json(BENCH_DIR / "golden.json")
    t0 = time.monotonic()
    child = build()
    log(f"perfbench: built in {time.monotonic() - t0:.1f} s")
    run_dir, generated = prepare(child, workload, seed)
    load_bytes = sum(p.stat().st_size for p in (run_dir / "trace").glob("*")) \
        if (run_dir / "trace").is_dir() else 0

    samples, attempted, failed, messages = [], 0, 0, []
    reference = None
    probe_ms = probe(child, run_dir)
    start = time.monotonic()
    # A traced run needs one timed child of each kind.
    min_children = WARMUP_CHILDREN + (2 if trace else 1)
    while len(samples) < min_children or window_has_room(
            time.monotonic() - start, [s["wall_s"] for s in samples], seconds):
        warmup = len(samples) < WARMUP_CHILDREN
        traced = bool(trace) and not warmup and (len(samples) - WARMUP_CHILDREN) % 2 == 1
        sample = run_child(child, workload, run_dir, len(samples), traced)
        sample["probe_ms"] = probe_ms
        sample["warmup"] = warmup
        a, f, m = check_sample(sample, workload, seed, golden, generated, reference)
        attempted, failed = attempted + a, failed + f
        messages += m
        if reference is None and sample["report"] is not None:
            reference = sample["report"]["counters"]
        samples.append(sample)
    for m in messages:
        log(f"perfbench: FAILED: {m}")

    shutil.rmtree(run_dir / "trace", ignore_errors=True)  # 28 MB per stencil seed
    for i, s in enumerate(samples):
        if s["report"] is not None:
            kind = " warm-up" if s["warmup"] else " traced" if s["traced"] else ""
            print(f"child {i}{kind}: wall {s['wall_s']:.3f} s "
                  + " ".join(f"{k} {v:.4g}" for k, v in diagnostics(s).items()))
    good = [s for s in samples if s["report"] is not None and not s["warmup"]]
    if not any(s["traced"] == bool(trace) for s in good):
        raise RuntimeError("no timed child produced a report")
    untraced = [s for s in good if not s["traced"]]
    if not trace:
        metrics = end_to_end(untraced, workload, attempted, failed)
    else:
        observed = {}
        if workload == "contention_campaign":
            code = spawn([str(child), "observe", str(run_dir)], run_dir / "observe.out")[0]
            attempted += 1
            if code != 0:
                failed += 1
                log(f"perfbench: FAILED: observe child exited {code}: observed and unobserved"
                    " replays disagree or crashed")
            else:
                observed = json.loads((run_dir / "observe.out").read_text().splitlines()[-1])
        metrics = per_layer([s for s in good if s["traced"]], untraced, workload, observed,
                            load_bytes)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def print_result(result, kind):
    units = {m["name"]: m["unit"] for m in benchmark_spec()[kind]}
    for name, value in result["metrics"].items():
        print(f"  {name:32s} {value:>16.6g} {units.get(name, '')}")
    out = {"correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"],
           "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}}
    print(json.dumps(out))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-metrics", action="store_true")
    args = parser.parse_args()
    spec = benchmark_spec()
    if args.list_metrics:
        for kind in ("end_to_end", "per_layer"):
            for m in spec[kind]:
                print(f"{kind:10s} {m['name']:32s} {m['unit']:6s} {m.get('better', '')}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    # The default seed is the one golden.json pins.
    seed = load_json(BENCH_DIR / "golden.json")[args.workload]["seed"] if args.seed is None \
        else args.seed
    try:
        result = measure(args.workload, seed, args.seconds, args.trace)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: {e}")
        return 2
    print_result(result, "per_layer" if args.trace else "end_to_end")
    return 0


if __name__ == "__main__":
    sys.exit(main())
