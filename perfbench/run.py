#!/usr/bin/env python3
"""Build the AMbER benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-complex --seed 1 --seconds 20 --trace 0

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
run's report (host facts, sample counts, failures). Build output and
progress go to standard error. Everything the run writes stays under the
build directory (.bench_build, or $CARGO_TARGET_DIR when set).
"""

import argparse
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("paper-complex", "http-star", "live-rw")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def stop_group(proc):
    """Kill the run's process group (the benchmark and any server it
    spawned) and wait until every member has exited."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    while True:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    for need in ("dune-project", "lib", "bin/amber_cli.ml"):
        if not os.path.exists(need):
            fail("%s not found: run from the root of an AMbER checkout" % need)

    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    tmp = os.path.abspath(os.path.join(build, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        DUNE_CACHE="disabled",
        TMPDIR=tmp,
        XDG_CACHE_HOME=os.path.abspath(os.path.join(build, "cache")),
    )
    built = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build, "--profile", "release",
         "perfbench/main.exe", "bin/amber_cli.exe"],
        env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL, timeout=BUILD_TIMEOUT_S)
    if built.returncode != 0:
        fail("build failed", 3)

    exe = os.path.join(build, "default", "perfbench", "main.exe")
    cli = os.path.abspath(os.path.join(build, "default", "bin", "amber_cli.exe"))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", cli, "--work", os.path.join(build, "perfbench")]
    proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL, start_new_session=True)

    def on_signal(signum, _frame):
        stop_group(proc)
        fail("stopped by signal %d" % signum, 5)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        fail("run did not finish within %d s" % RUN_TIMEOUT_S, 4)
    stop_group(proc)
    sys.exit(code)


if __name__ == "__main__":
    main()
