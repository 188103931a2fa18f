#!/usr/bin/env python3
"""Builds and runs the nfpkit campaign benchmark (see README.md here).

    python3 perfbench/run.py --workload campaign|estimate_only|service_sliced \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and builds
perfbench/ (with the nfpkit libraries from src/) in Release under
.bench_build/; later runs only rebuild what changed. With --trace 0 the last
stdout line carries the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced replay; spans are written to .bench_build/.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "nfp_perfbench")
WORKLOADS = ("campaign", "estimate_only", "service_sliced")
SETUP_SAMPLES = 3  # set-up runs per measurement; setup_s is their median
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"nfpkit sources not found under {ROOT}/src; nothing to build")
        return False
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "nfp_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def git_commit():
    # The checkout may not be a repository; never look above its root.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_binary(args):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() kills and reaps the child
        log("benchmark timed out")
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mix", choices=("bench", "small"), default="bench",
                    help="small: reduced mix for the benchmark's self-tests")
    ap.add_argument("--inject", choices=("corrupt-output", "flip-record"),
                    help="fault injection for the benchmark's self-tests")
    opt = ap.parse_args()

    if not build():
        return 2
    common = ["--workload", opt.workload, "--seed", str(opt.seed),
              "--mix", opt.mix]
    args = common + ["--seconds", str(opt.seconds), "--trace",
                     str(opt.trace), "--commit", git_commit()]
    if opt.inject:
        args += ["--inject", opt.inject]
    setup_s = []
    if opt.trace:
        trace_file = os.path.join(
            BUILD, f"trace-{opt.workload}-seed{opt.seed}.jsonl")
        args += ["--trace-out", trace_file]
    else:
        # Fresh processes, so each sample includes compilation from cold.
        for _ in range(SETUP_SAMPLES - 1):
            code, lines = run_binary(common + ["--setup-only"])
            if code != 0 or not lines:
                log("set-up run failed")
                return 1
            setup_s.append(json.loads(lines[-1])["setup_s"])

    code, lines = run_binary(args)
    if not lines:
        log(f"benchmark exited with code {code} and no result")
        return code or 1
    result = json.loads(lines[-1])
    if setup_s:
        setup = result["metrics"]["setup_s"]
        setup_s.append(setup["value"])
        setup["value"] = statistics.median(setup_s)
        lines.insert(-1, json.dumps({"setup_samples_s": setup_s}))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
