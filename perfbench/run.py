#!/usr/bin/env python3
"""Benchmark entry point: builds `rexd` and the `perfbench` binary from
source, runs one workload in a fresh process and prints the result.

    python3 perfbench/run.py --workload small-cells|rexd-open \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. `--trace 0` prints the end-to-end
metrics. `--trace 1` runs the same workload and seed twice, untraced and
then traced, each in its own process, and prints the per-layer metrics of
the traced run plus `trace.overhead_pct`, the traced run's slowdown
against the untraced one. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

Builds go to $CARGO_TARGET_DIR (default `.bench_build`); durable state
goes to `.bench_state/`, which each run removes when it ends.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("small-cells", "rexd-open")
# A run of the binary takes --seconds plus its set-ups, checks and traced
# extras (rexd-open offers at least 200 jobs: 33 s or more); a child
# still running this long past --seconds has hung.
CHILD_GRACE_S = 60


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target):
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail(f"{ROOT} is not a checkout of the repository (no Cargo.toml or crates/)")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(ROOT / "Cargo.toml"), "-p", "rex-serve", "--bin", "rexd"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    # A fresh build leaves hundreds of MB of dirty pages; written back
    # during the run, they would slow rexd's fsyncs in the timed phase.
    os.sync()
    return target / "release" / "perfbench", target / "release" / "rexd"


def git_rev():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def src_digest():
    """SHA-256 over the program's sources: names the code measured even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    files += sorted(p for p in (ROOT / "crates").rglob("*") if p.suffix in (".rs", ".toml"))
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def run_child(binary, rexd, args, mode):
    state = ROOT / ".bench_state" / f"{args.workload}-{mode}-{os.getpid()}"
    shutil.rmtree(state, ignore_errors=True)
    cmd = [
        str(binary), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--state-dir", str(state),
        "--rexd", str(rexd), "--reference", str(HERE / "reference.json"),
        "--git-rev", git_rev(), "--src-digest", src_digest(),
    ]
    # The program's defaults are what is measured: no thread, backend or
    # fault-plan overrides leak in from the caller's environment.
    env = {k: v for k, v in os.environ.items()
           if k not in ("REX_NUM_THREADS", "REX_BACKEND", "REX_FAULTS")}
    # Its own process group, so a timeout also stops the rexd it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    timeout = args.seconds + CHILD_GRACE_S
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        # the daemon is the child's child: wait until the group is empty
        for _ in range(100):
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        fail(f"{args.workload} ({mode}) did not finish within {timeout:g} s")
    finally:
        shutil.rmtree(state, ignore_errors=True)
        try:
            (ROOT / ".bench_state").rmdir()
        except OSError:
            pass
    lines = stdout.splitlines()
    for line in lines[:-1]:
        print(f"[{mode}] {line}")
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} ({mode}) exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{args.workload} ({mode}) printed no result line")
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary, rexd = build(target if target.is_absolute() else Path.cwd() / target)

    plain = run_child(binary, rexd, args, "plain")
    if args.trace == 0:
        result = plain
    else:
        traced = run_child(binary, rexd, args, "traced")
        if args.workload == "rexd-open":  # basis: job_ms_p50, lower is better
            ratio = traced["overhead_basis"] / plain["overhead_basis"]
        else:  # basis: steps_per_s, higher is better
            ratio = plain["overhead_basis"] / traced["overhead_basis"]
        result = traced
        result["metrics"]["trace.overhead_pct"] = {"value": (ratio - 1.0) * 100.0, "unit": "%"}
        result["correct"] = plain["correct"] and traced["correct"]
        result["attempted"] = plain["attempted"] + traced["attempted"]
        result["failed"] = plain["failed"] + traced["failed"]
    # The result carries exactly the metrics BENCHMARK.json declares.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(names - result["metrics"].keys())
    if missing:
        fail(f"{args.workload} did not report {', '.join(missing)}")
    extra = sorted(result["metrics"].keys() - names)
    if extra:
        fail(f"{args.workload} reported undeclared metrics {', '.join(extra)}")
    out = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
