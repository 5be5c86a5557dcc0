#!/usr/bin/env python3
"""End-to-end checks of the smpirun command line, online and --replay.

    python3 tests/smpirun_cli.py path/to/smpirun path/to/smpi_workload

Covers what unit tests cannot see: a 16-rank online capture replays to the
same simulated time, the exit-code contract (1 usage, 2 abort, 3 deadlock,
4 time limit), the --verbose counter block and the exact bytes of two
contended --resources reports, one network-bound and one CPU-bound
(tests/fixtures/smpirun_*.txt). Prints one line per failed check and exits
1 if any failed.
"""
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SMPIRUN = sys.argv[1]
SMPI_WORKLOAD = sys.argv[2]
ONLINE = ["--np", "16", "--cluster", "16", "--app", "alltoall", "--bytes", "65536"]
FIXTURES = Path(__file__).resolve().parent / "fixtures"
FAULTS = ('{"policy": "%s", "events": '
          '[{"kind": "host_crash", "time": 0.0005, "host": "node-3"}]}')
failures = []


def run(args, program=SMPIRUN):
    return subprocess.run([program] + args, capture_output=True, text=True, timeout=300)


def check(ok, what, proc=None):
    if not ok:
        detail = ""
        if proc is not None:
            detail = " (exit %d)\n%s%s" % (proc.returncode, proc.stdout, proc.stderr)
        failures.append(what + detail)


def simulated_time(proc):
    match = re.search(r"simulated execution time: (\S+) s", proc.stdout)
    return float(match.group(1)) if match else None


with tempfile.TemporaryDirectory() as tmp:
    ti_dir = str(Path(tmp) / "ti")
    replay = ["--replay", ti_dir, "--cluster", "16"]

    # Capture once, replay: the same simulated time.
    online = run(ONLINE + ["--trace-ti", ti_dir])
    check(online.returncode == 0, "online capture failed", online)
    replayed = run(replay)
    check(replayed.returncode == 0, "replay failed", replayed)
    t_online, t_replay = simulated_time(online), simulated_time(replayed)
    check(t_online is not None and t_replay is not None and abs(t_online - t_replay) <= 1e-9,
          "replay time %s != online time %s" % (t_replay, t_online))

    modes = {"online": ONLINE, "replay": replay}

    # Usage errors: whole-token numbers only, --bytes within the apps'
    # int counts, finite non-negative time limits, at least one node.
    bad_args = {
        "online": [["--bytes", "4GiB"], ["--bytes", "2147483648"], ["--np", "2x"],
                   ["--sampling", "0.5abc"], ["--log2-pairs", "64"]],
        "both": [["--max-sim-time", "nan"], ["--max-sim-time", "-1"],
                 ["--wall-timeout", "nan"], ["--wall-timeout", "inf"],
                 ["--wall-timeout", "-2"], ["--cluster", "0"], ["--np", ""]],
    }
    for mode, base in modes.items():
        for bad in bad_args["both"] + (bad_args["online"] if mode == "online" else []):
            proc = run(base + bad)
            check(proc.returncode == 1 and "usage:" in proc.stderr,
                  "%s %s: expected a usage error" % (mode, " ".join(bad)), proc)
        # A timeout far beyond the run is accepted (and never fires).
        proc = run(base + ["--wall-timeout", "1e300"])
        check(proc.returncode == 0, "%s --wall-timeout 1e300 should run" % mode, proc)

    # Exit codes of a run that does not finish.
    for mode, base in modes.items():
        proc = run(base + ["--faults", FAULTS % "abort"])
        check(proc.returncode == 2 and "resource failure" in proc.stderr,
              "%s fault abort: expected exit 2 with 'resource failure'" % mode, proc)
        proc = run(base + ["--faults", FAULTS % "detect"])
        check(proc.returncode == 3 and "wait-for state" in proc.stderr,
              "%s detect policy: expected exit 3 with the wait-for state" % mode, proc)
        proc = run(base + ["--max-sim-time", "0.0001"])
        check(proc.returncode == 4 and "--max-sim-time" in proc.stderr,
              "%s --max-sim-time: expected exit 4" % mode, proc)

    # --verbose prints the run record's counters in both modes.
    for mode, base in modes.items():
        proc = run(base + ["--verbose"])
        check(proc.returncode == 0, "%s --verbose failed" % mode, proc)
        for prefix in ("p2p.", "solver.", "surf."):
            check(re.search(r"^  %s\w+ +\d+$" % re.escape(prefix), proc.stdout, re.M),
                  "%s --verbose prints no %s counters" % (mode, prefix), proc)

# The --resources report of a contended alltoall, attribution line included,
# is pinned byte for byte: the saturation ledger may change how it stores
# intervals and shares, never what it prints.
RESOURCES = ["--app", "alltoall", "--np", "64", "--machine", "gdx", "--bytes", "65536",
             "--resources"]
proc = run(RESOURCES)
expected = (FIXTURES / "smpirun_alltoall64_gdx_resources.txt").read_text()
check(proc.returncode == 0 and proc.stdout == expected,
      "alltoall 64 on gdx --resources differs from its fixture", proc)

# The CPU side of the same pin: 16 stencil ranks replayed on one 8-core host
# saturate its CPU constraint, so the report ranks the host and attributes
# its shares to executions by their host#start-counter labels.
STENCIL = ('{"name": "cpu-stencil", "ranks": 16, "seed": 42, "pattern": "stencil2d", '
           '"iterations": 4, "bytes": 8192, "compute": {"flops": 4e6, "imbalance": 0.8}}')
with tempfile.TemporaryDirectory() as tmp:
    spec = Path(tmp) / "stencil.json"
    spec.write_text(STENCIL)
    ti_dir = str(Path(tmp) / "ti")
    proc = run(["--spec", str(spec), "--out", ti_dir], program=SMPI_WORKLOAD)
    check(proc.returncode == 0, "smpi_workload failed", proc)
    proc = run(["--replay", ti_dir, "--cluster", "1", "--resources"])
    expected = (FIXTURES / "smpirun_stencil16_cluster1_resources.txt").read_text()
    check(proc.returncode == 0 and proc.stdout == expected,
          "stencil 16 on one host --resources differs from its fixture", proc)

for failure in failures:
    print("FAIL:", failure)
print("%d failed check(s)" % len(failures) if failures else "all smpirun checks passed")
sys.exit(1 if failures else 0)
