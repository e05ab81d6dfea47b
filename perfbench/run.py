#!/usr/bin/env python3
"""Build and run the RCGP benchmark (perfbench) from the repository root.

    python3 perfbench/run.py --workload <table1|table2|serve-npn|islands> \
        --seed <n> --seconds <s> --trace <0|1>

Configures perfbench/ as a Release CMake project in .bench_build/perfbench
(the first run compiles the program's library from src/), runs the
benchmark binary, and passes its output through: the last line of stdout
is the result object {"correct", "attempted", "failed", "metrics"}. Build
output goes to stderr. A traced run (--trace 1) writes its span profile
under .bench_build/perfbench-state/ and, when scripts/check_telemetry.py
is present, has it validate the profile; a rejected profile marks the
result incorrect.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")
STATE = os.path.join(".bench_build", "perfbench-state")


def build() -> None:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr)


def main() -> int:
    args = sys.argv[1:]
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    proc = subprocess.run(
        [os.path.join(BUILD, "perfbench"), *args, "--state-dir", STATE],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        return proc.returncode or 1
    last = lines[-1]
    if "--trace" in args and args[args.index("--trace") + 1] == "1":
        workload = args[args.index("--workload") + 1]
        checker = os.path.join("scripts", "check_telemetry.py")
        profile = os.path.join(STATE, f"profile-{workload}.json")
        if os.path.exists(checker):
            check = subprocess.run(
                [sys.executable, checker, "--profile", profile],
                stdout=sys.stderr, stderr=sys.stderr)
            if check.returncode != 0:
                result = json.loads(last)
                result["correct"] = False
                last = json.dumps(result)
    for line in lines[:-1]:
        print(line)
    print(last)
    return 0


if __name__ == "__main__":
    sys.exit(main())
