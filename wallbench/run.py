#!/usr/bin/env python3
"""Wall-clock benchmark of the replica runtime.

    python3 wallbench/run.py --workload hub-flexibft-write --seed 1 --seconds 10 --trace 0

Builds the Go program in this directory (all build state goes to
.bench_build/ at the repository root), runs one workload and prints, as the
last line, one JSON object with the metrics BENCHMARK.json lists:
the end-to-end ones with --trace 0, the per-layer ones with --trace 1.

A traced run is two processes: the untraced run, then the run built from the
tracing decorators with a CPU profile of its measured window. The
overhead.* metrics are traced minus untraced, cpu_share.* come from the
profile through `go tool pprof -traces`, and the numbers that need no
decorator (Go runtime counters, stalled replicas, per-operation latencies)
are taken from the untraced process.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "wallbench")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 165
TRACED_RUN_TIMEOUT_S = 80

# Per-layer metrics read from the untraced process.
UNTRACED_LAYER_METRICS = (
    "go.allocs_per_op",
    "go.gc_cpu_frac",
    "engine.stalled_replicas",
    "engine.replica_lag_ops",
    "shard.get_us.p50",
    "shard.get_us.p99",
    "shard.put_us.p50",
    "shard.put_us.p99",
)

# Modules a CPU sample is attributed to: the innermost frame in one of the
# repository's packages decides; samples with none go to "go" (scheduler,
# GC workers, network poller).
MODULES = ("runtime", "transport", "wire", "engine", "protocols", "trusted",
           "crypto", "kvstore", "shard", "obs", "types", "bench", "go", "other")
CLIENT_FRAME = "flexitrust/internal/runtime.(*Client)."


def go_env():
    """The environment of every go command and of the program: all caches and
    temporary files stay under .bench_build/."""
    env = dict(os.environ)
    env.update(
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        TMPDIR=os.path.join(BUILD, "tmp"),
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        PPROF_TMPDIR=os.path.join(BUILD, "pprof"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOFLAGS="-buildvcs=false",
    )
    return env


def fail(msg):
    print("wallbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    try:
        p = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                           capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build: %s" % e)
    if p.returncode != 0:
        sys.stderr.write(p.stdout + p.stderr)
        fail("build failed")


def run_child(args, timeout):
    """Runs the program; returns its parsed result after echoing its report."""
    try:
        p = subprocess.run([BINARY] + args, cwd=ROOT, env=go_env(),
                           capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (" ".join(args), timeout))
    sys.stderr.write(p.stderr)
    lines = p.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        res = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(p.stdout)
        fail("%s printed no result (exit %d)" % (" ".join(args), p.returncode))
    if p.returncode != 0 or not res.get("correct"):
        fail("%s failed its correctness checks (exit %d)" % (" ".join(args), p.returncode))
    return res


def module_of(frame):
    if frame.startswith("main."):
        return "bench"
    m = re.match(r"flexitrust/internal/([a-z0-9_]+)", frame)
    if m:
        return m.group(1) if m.group(1) in MODULES else "other"
    return None


def cpu_shares(profile):
    """Share of CPU samples per module, and the share under runtime.Client."""
    try:
        p = subprocess.run(["go", "tool", "pprof", "-traces", BINARY, profile], cwd=ROOT,
                           env=go_env(), capture_output=True, text=True, timeout=120)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("pprof: %s" % e)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        fail("pprof failed")
    units = {"ns": 1e-9, "us": 1e-6, "µs": 1e-6, "ms": 1e-3, "s": 1.0}
    by_module = dict.fromkeys(MODULES, 0.0)
    client = total = 0.0
    stacks, cur = [], None
    for line in p.stdout.splitlines():
        if line.startswith("-----------+"):
            cur = None
            continue
        m = re.match(r"^\s*([0-9.]+)(ns|us|µs|ms|s)\s+(\S.*)$", line)
        if m and cur is None:
            cur = [float(m.group(1)) * units[m.group(2)], []]
            stacks.append(cur)
            line = m.group(3)
        if cur is not None and line.strip():
            cur[1].append(line.strip().replace(" (inline)", ""))
    for value, frames in stacks:
        total += value
        module = next((mod for mod in map(module_of, frames) if mod), "go")
        by_module[module] += value
        if any(f.startswith(CLIENT_FRAME) for f in frames):
            client += value
    if total == 0:
        fail("the CPU profile holds no sample")
    shares = {"cpu_share." + m: {"value": v / total, "unit": "ratio"} for m, v in by_module.items()}
    shares["client.cpu_share"] = {"value": client / total, "unit": "ratio"}
    return shares


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("reading BENCHMARK.json: %s" % e)
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]

    build()
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]
    if a.trace == 0:
        res = run_child(args + ["--trace", "0"], RUN_TIMEOUT_S)
        wanted, got = end_to_end, res["metrics"]
    else:
        plain = run_child(args + ["--trace", "0"], TRACED_RUN_TIMEOUT_S)
        profile = os.path.join(BUILD, "cpu-%s-%d.pprof" % (a.workload, a.seed))
        traced = run_child(args + ["--trace", "1", "--cpuprofile", profile], TRACED_RUN_TIMEOUT_S)
        got = dict(traced["metrics"])
        got.update(cpu_shares(profile))
        for name in UNTRACED_LAYER_METRICS:
            got[name] = plain["metrics"][name]
        for name in end_to_end:
            t, u = traced["metrics"][name], plain["metrics"][name]
            got["overhead." + name] = {"value": t["value"] - u["value"], "unit": u["unit"]}
        res = {"correct": True,
               "attempted": plain["attempted"] + traced["attempted"],
               "failed": plain["failed"] + traced["failed"]}
        wanted = per_layer
        print("per-layer metrics of %s (traced run; overhead.* = traced - untraced):" % a.workload)
        for name in wanted:
            if name in got:
                print("  %-36s %14.4f %s" % (name, got[name]["value"], got[name]["unit"]))
    missing = [n for n in wanted if n not in got]
    if missing:
        fail("the program reported no %s" % ", ".join(missing))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": {n: got[n] for n in wanted}}))


if __name__ == "__main__":
    main()
