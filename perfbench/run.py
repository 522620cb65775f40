#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload small_mix --seed 1 --seconds 10 --trace 0

Builds `pp-server` from the checkout and the benchmark harness in
`perfbench/harness`, then runs the harness, which prints a table and, as
its last stdout line, one JSON result object. Build output goes to stderr.
Run from the root of a checkout; `CARGO_TARGET_DIR` (default
`.bench_build`) holds both builds.
"""

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("small_mix", "large_population", "stream_trace")
# The harness must end well inside the 180 s a run may take.
HARNESS_TIMEOUT_S = 170


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(args, env):
    res = subprocess.run(["cargo", "build", "--release", "--offline", *args],
                         cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        fail(f"build failed: cargo build {' '.join(args)}", 3)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "server").is_dir():
        fail(f"{ROOT} holds no pp-server source to build", 2)
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    build(["--bin", "pp-server"], env)
    build(["--manifest-path", str(ROOT / "perfbench" / "harness" / "Cargo.toml")], env)

    cmd = [str(target / "release" / "pp-perfbench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--server", str(target / "release" / "pp-server"),
           "--clk-tck", str(os.sysconf("SC_CLK_TCK"))]
    if a.trace:
        out = ROOT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        cmd += ["--spans", str(out / f"spans-{a.workload}-{a.seed}.jsonl")]
    # Own process group, so a timeout also ends the server the harness runs.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"harness did not finish within {HARNESS_TIMEOUT_S} s", 4)
    sys.exit(code)


if __name__ == "__main__":
    main()
