#!/usr/bin/env python3
"""Build and run the dnswild benchmark.

    python3 perfbench/run.py                      # all workloads, default seed
    python3 perfbench/run.py --workload sweep --seed 2015 --seconds 20 --trace 0

The first call configures and builds perfbench/ (the library from src/ plus
the benchmark program) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls rebuild incrementally. Each workload run
prints its report and, as its last stdout line, one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones. The exit
code is non-zero when the build fails, a run fails, or a run's output check
fails.

The default seed is 2015. The held-out seed 20151028 is never used while
tuning the benchmark or a change measured with it; re-check a claimed gain
on it.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "study", "campaign")
DEFAULT_SEED = 2015


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures (once) and builds the program; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: the dnswild sources (src/) are missing")
        return None
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        command = ["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        if subprocess.run(command, **quiet).returncode != 0:
            return None
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      **quiet).returncode != 0:
        return None
    return os.path.join(out, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(binary, out, workload, seed, seconds, trace):
    """Runs one workload; returns True when it ran and its checks held."""
    scratch = os.path.join(out, "scratch-%s-%d-%d" % (workload, seed,
                                                      os.getpid()))
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--scratch", scratch]
    if trace:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans-out",
                    os.path.join(spans, "%s-seed%d.json" % (workload, seed))]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        log("run.py: %s exited with %d" % (workload, done.returncode))
        return False
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if (not isinstance(result, dict) or
            set(result.get("metrics", {})) != expected_metrics(trace)):
        sys.stderr.write(done.stdout)
        log("run.py: %s did not report the metrics BENCHMARK.json lists"
            % workload)
        return False
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return result["correct"] is True and result["failed"] == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all of them in turn)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must not be negative")

    out = build_dir()
    binary = build(out)
    if binary is None:
        log("run.py: build failed")
        return 1
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            seconds = json.load(handle)["run_seconds"]
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    ok = True
    for workload in workloads:
        ok = run_one(binary, out, workload, args.seed, seconds,
                     args.trace == 1) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
