#!/usr/bin/env python3
"""Build radbench from source and run one workload (or all of them).

    python3 radbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 radbench/run.py --self-test

The build goes to .bench_build/radbench under the repository root. The
benchmark's human-readable table goes to stderr; the last line of stdout
is its JSON result, checked here against BENCHMARK.json's metric lists.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "radbench")
BUILD = os.path.join(ROOT, ".bench_build", "radbench")
WORKLOADS = ["alg1_gnp", "gossip_churn", "gossip_rgg", "batch_sweep"]
RUN_TIMEOUT_S = 175


def build(targets):
    """Configures and builds; the build log goes to stderr."""
    subprocess.run(["cmake", "-S", SOURCE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                    "--target", *targets],
                   stdout=sys.stderr, check=True)


def expected_metrics(traced):
    """{name: unit} of the run's kind, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


def check_result(line, traced):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys are %s" % sorted(result))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(traced)
    if got != want:
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, "
                         "extra or mis-united %s" %
                         (sorted(set(want) - set(got)),
                          sorted(k for k in got if want.get(k) != got[k])))


def run_workload(args, workload):
    env = dict(os.environ)
    # The benchmark measures the library's defaults: every core, auto SIMD.
    env.pop("RADNET_THREADS", None)
    env.pop("RADNET_SIMD", None)
    command = [os.path.join(BUILD, "radbench"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--trace-dir", os.path.join(BUILD, "traces")]
    proc = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                          text=True, timeout=RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    try:
        check_result(lines[-1], args.trace == 1)
    except (ValueError, KeyError, IndexError) as e:
        print("radbench: bad result line: %s" % e, file=sys.stderr)
        return 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.self_test:
        build(["radbench_test"])
        return subprocess.run(["ctest", "--test-dir", BUILD, "-R",
                               "^radbench_test$", "--output-on-failure"],
                              stdout=sys.stderr).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    build(["radbench"])
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        status = max(status, run_workload(args, workload))
    return status


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print("radbench: %s" % e, file=sys.stderr)
        sys.exit(1)
