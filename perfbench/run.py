#!/usr/bin/env python3
"""Build the MARP benchmark from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload hot-n9 --seed 1 --seconds 20 --trace 0

The benchmark binary is built with cargo (offline, release profile) into
$CARGO_TARGET_DIR, or perfbench/target when that is unset. The binary's
output is passed through unchanged; its last line is the JSON result.
With --trace 1 the spans of the pool's first simulation are written to
perfbench/out/<workload>.spans.tsv.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run must end within 180 s; the binary sizes its own work well below
# that, so hitting this limit means something hung.
RUN_TIMEOUT_S = 175


def build():
    """Build the benchmark and return the path of its executable."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--bin", "marp-perfbench", "--message-format=json",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    if proc.returncode != 0:
        sys.exit(f"run.py: building the benchmark failed (cargo exit {proc.returncode})")
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            return msg["executable"]
    sys.exit("run.py: cargo reported no marp-perfbench executable")


def main():
    args = sys.argv[1:]
    if "--workload" not in args[:-1]:
        sys.exit("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>")
    exe = build()
    workload = args[args.index("--workload") + 1]
    traced = ["--trace", "1"] in [args[i:i + 2] for i in range(len(args) - 1)]
    # The binary rejects unknown workloads; only a plain name becomes a path.
    if traced and re.fullmatch(r"[a-z0-9-]+", workload):
        out = os.path.join(HERE, "out")
        os.makedirs(out, exist_ok=True)
        args = args + ["--spans", os.path.join(out, f"{workload}.spans.tsv")]
    try:
        proc = subprocess.run([exe] + args, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: the benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
