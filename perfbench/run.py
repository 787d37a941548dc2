#!/usr/bin/env python3
"""End-to-end benchmark of streamcalc: build, run one workload, print JSON.

    python3 perfbench/run.py --workload spec_reports --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The first call configures and
builds perfbench/CMakeLists.txt (the repository's src/ libraries, the
`streamcalc` tool and the benchmark program) into .bench_build/perfbench;
later calls only rebuild what changed. Its last stdout line is the result
object: {"correct", "attempted", "failed", "metrics"}. Traces, self-time
tables and the serve daemon's files go to .bench_build/out/<workload>/.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import os
import re
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("spec_reports", "rate_sweep", "serve_admit")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no streamcalc sources next to perfbench/ (src/CMakeLists.txt missing)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench"), os.path.join(BUILD, "streamcalc")


def run_bench(exe, streamcalc, args, out_dir, capture_stderr=False):
    """Runs the benchmark program in its own process group and, however it ends,
    kills whatever is left of that group (serve daemons included)."""
    os.makedirs(out_dir, exist_ok=True)
    proc = subprocess.Popen(
        [exe, "--streamcalc", streamcalc] + args, cwd=out_dir,
        stdout=subprocess.PIPE, text=True, start_new_session=True,
        stderr=subprocess.PIPE if capture_stderr else None)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if out is None:
        fail("benchmark program exceeded %d s" % RUN_TIMEOUT_S)
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def selftest(exe, streamcalc):
    """Input determinism, then exact repetition of every count."""
    out = os.path.join(ROOT, ".bench_build", "out", "selftest")
    proc = run_bench(exe, streamcalc, ["--mode", "selftest", "--seconds", "10"], out)
    sys.stdout.write(proc.stdout)
    ok = proc.returncode == 0
    for w in WORKLOADS:
        seen = []
        for _ in range(2):
            p = run_bench(exe, streamcalc, ["--workload", w, "--seed", "7",
                                            "--seconds", "2", "--trace", "1"],
                          os.path.join(out, w), capture_stderr=True)
            counts = re.findall(r"^counts:.*$", p.stderr, re.M)
            seen.append((p.returncode, counts))
        same = seen[0] == seen[1] and seen[0][0] == 0 and seen[0][1]
        print("%s %s counts repeat across two runs of one seed: %s" %
              ("ok  " if same else "FAIL", w, seen[0][1][0] if seen[0][1] else "none"))
        ok = ok and bool(same)
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and a.workload is None:
        ap.error("--workload is required")
    exe, streamcalc = build()
    if a.selftest:
        sys.exit(selftest(exe, streamcalc))
    out = os.path.join(ROOT, ".bench_build", "out",
                       a.workload + ("-trace" if a.trace else ""))
    proc = run_bench(exe, streamcalc,
                     ["--workload", a.workload, "--seed", str(a.seed),
                      "--seconds", str(a.seconds), "--trace", str(a.trace)], out)
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
