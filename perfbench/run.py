#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see perfbench/README.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload prove|optimize|validate|serve \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the Cobalt libraries from src/) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs one
workload. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the metric names must be
exactly the end_to_end (--trace 0) or per_layer (--trace 1) names of
BENCHMARK.json, or the run fails without printing a result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (first time only) and builds; returns the binary path."""
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=log, stderr=log, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "cobalt_perfbench", "-j", "4"],
                   stdout=log, stderr=log, check=True)
    return os.path.join(build_dir, "cobalt_perfbench")


def expected_metrics(trace):
    """The metric names BENCHMARK.json promises for this mode, if present."""
    try:
        with open("BENCHMARK.json", encoding="utf-8") as fp:
            spec = json.load(fp)
    except OSError:
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    trace = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    try:
        proc = subprocess.run([binary] + argv, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        # The benchmark prints no result line when it fails.
        sys.stdout.write(proc.stdout)
        print(f"perfbench: benchmark exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("perfbench: no result line", file=sys.stderr)
        return 1
    expected = expected_metrics(trace)
    if expected is not None and set(result["metrics"]) != expected:
        print("perfbench: metric names differ from BENCHMARK.json: "
              f"{sorted(set(result['metrics']) ^ expected)}", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
