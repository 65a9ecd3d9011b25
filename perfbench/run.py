#!/usr/bin/env python3
"""Build the tree and run one benchmark workload pinned to one CPU.

    python3 perfbench/run.py --workload point-read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke     # every workload, short, both modes

Run from the root of a checkout. The script builds `mlds_server` and the
driver with dune inside the checkout (`_build/`), picks the highest CPU of
its allowed set, pins itself there, and runs the driver, which inherits
the pinning and passes it on to the server it spawns. The driver's last
line of standard output is the JSON result; its exit code is ours.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["point-read", "ingest", "multilingual"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    targets = ["bin/mlds_server.exe", "perfbench/bench.exe"]
    proc = subprocess.run(
        ["dune", "build", "--root", ".", *targets],
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")


def cpu_range(cpus):
    return ",".join(str(c) for c in sorted(cpus))


def run(workload, seed, seconds, trace, capture=False):
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})
    cmd = [os.path.join("_build", "default", "perfbench", "bench.exe"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--cpu", str(cpu), "--allowed", cpu_range(allowed),
           "--nproc", str(len(allowed))]
    try:
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE if capture else None, text=True,
            start_new_session=True)
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.wait()
        sys.exit("perfbench: run timed out")
    finally:
        os.sched_setaffinity(0, allowed)
    return proc.returncode, out


def smoke():
    """Each workload, short, untraced and traced: the result line must say
    correct and carry every metric BENCHMARK.json declares."""
    import json
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    bad = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run(workload, 7, 2, trace, capture=True)
            result = json.loads(out.strip().splitlines()[-1])
            missing = want[trace] - set(result["metrics"])
            ok = code == 0 and result["correct"] and not missing
            print(f"smoke {workload} trace={trace}: "
                  f"{'ok' if ok else 'FAILED'} attempted={result['attempted']}"
                  + (f" missing={sorted(missing)}" if missing else ""))
            if not ok:
                bad.append(f"{workload}/{trace}")
    if bad:
        sys.exit("perfbench: smoke failed: " + " ".join(bad))
    print("perfbench smoke OK")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    if not os.path.isfile(os.path.join("bin", "mlds_server.ml")):
        sys.exit("perfbench: run from the root of an MLDS checkout")
    build()
    if a.smoke:
        smoke()
        return
    if None in (a.workload, a.seed, a.seconds, a.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    code, _ = run(a.workload, a.seed, a.seconds, a.trace)
    sys.exit(code)


if __name__ == "__main__":
    main()
