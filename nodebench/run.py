#!/usr/bin/env python3
"""Wall-clock benchmark of the assembled node (see nodebench/README.md).

Usage, from the repository root:

  python3 nodebench/run.py --workload cpe_64B --seed 1 --seconds 10 --trace 0
  python3 nodebench/run.py --workload all --seed 1      # every workload
  python3 nodebench/run.py --smoke                      # self-tests + schema

The script builds nodebench/ (CMake, Release) into .bench_build/nodebench,
runs the untraced binary (--trace 0) or the traced one (--trace 1), prints
every metric by name with its unit, and ends with one JSON line:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "nodebench")
RUN_TIMEOUT_S = 170

# Printed beside the bounded metrics but not bounded. loss_frac and
# control_fail_frac are 0 on correct code (they travel in "failed" and
# "correct"); the two p99 tails spread from run to run on a shared host by
# more than any bound the benchmark may set (see README.md).
UNBOUNDED = {"latency_p99_us": "us", "deploy_p99_us": "us",
             "loss_frac": "fraction", "control_fail_frac": "fraction"}


class BenchError(Exception):
    pass


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "node.hpp")):
        raise BenchError(f"no nnfv sources under {ROOT}/src")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "nodebench", "nodebench_traced", "nodebench_selftest"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))


def run_binary(name, args):
    cmd = [os.path.join(BUILD, name)] + args
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name} did not finish in {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        raise BenchError(f"{name} exited {proc.returncode} without a result")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"{name} printed no JSON result: {lines[-1][:200]}")
    return proc.returncode, result


def measure(spec, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, result line, raw result)."""
    base = ["--workload", workload, "--seed", str(seed)]
    if not trace:
        code, raw = run_binary("nodebench", base + ["--seconds", str(seconds)])
        values = dict(raw["metrics"])
        wanted = spec["end_to_end"]
    else:
        # Untraced reference for the tracing overhead: the closed loop
        # alone, run just before and just after the traced run (the host's
        # speed drifts over seconds; the mean of the two brackets it).
        ref_args = base + ["--seconds", str(max(1.0, seconds * 0.2)),
                           "--closed-only"]
        code_before, before = run_binary("nodebench", ref_args)
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        code, raw = run_binary("nodebench_traced", base + [
            "--seconds", str(seconds), "--trace-out",
            os.path.join(traces, workload + ".spans")])
        code_after, after = run_binary("nodebench", ref_args)
        code = code or code_before or code_after
        values = dict(raw["layers"])
        untraced = (before["metrics"]["throughput_mpps"] +
                    after["metrics"]["throughput_mpps"]) / 2
        traced = values["trace.throughput_mpps"]
        values["trace.overhead_frac"] = 1.0 - traced / untraced
        wanted = spec["per_layer"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise BenchError(f"{workload}: metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    line = {"correct": bool(raw["correct"]) and code == 0,
            "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]),
            "metrics": metrics}
    return code, line, raw


def report(raw, line, trace):
    env = raw["env"]
    counts = raw["counts"]
    print(f"nodebench {raw['workload']} seed={raw['seed']} "
          f"trace={int(trace)} nproc={env['nproc']} "
          f"crypto={env['crypto_backend']} build={env['build_type']} "
          f"workers={env['datapath_workers']} "
          f"offered_fps={env['offered_fps']:.0f}")
    print(f"  cpu features: {env['cpu_features']}")
    notes = raw.get("notes", {})
    for name, m in line["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}{note}")
    if not trace:
        for name, unit in UNBOUNDED.items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"  {name:36s} {raw['metrics'][name]:14.6g} {unit}{note}")
    else:
        extra = {k: v for k, v in raw["layers"].items()
                 if k not in line["metrics"]}
        for name, value in sorted(extra.items()):
            print(f"  {name:36s} {value:14.6g}")
    print(f"  frames offered {counts['offered']}, delivered "
          f"{counts['delivered']}, sampled and verified {counts['verified']}, "
          f"wrong {counts['mismatched']}; control ops {counts['control_ops']}, "
          f"failed {counts['control_failed']}")
    if raw.get("first_mismatch"):
        print(f"  first mismatch: {raw['first_mismatch']}")


def smoke(spec):
    """Self-tests, then a one-second run of every workload in both modes,
    checking the result line against BENCHMARK.json."""
    proc = subprocess.run([os.path.join(BUILD, "nodebench_selftest")])
    if proc.returncode != 0:
        raise BenchError("self-test failed")
    for w in spec["workloads"]:
        for trace in (False, True):
            code, line, _ = measure(spec, w["name"], 1, 1.0, trace)
            check_line(spec, line, trace)
            if code != 0 or not line["correct"]:
                raise BenchError(f"{w['name']} trace={int(trace)} incorrect")
            print(f"smoke: {w['name']} trace={int(trace)} ok")
    print("smoke: ok")


def check_line(spec, line, trace):
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError(f"result keys {sorted(line)}")
    if not isinstance(line["correct"], bool):
        raise BenchError("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(line[key], int) or line[key] < 0:
            raise BenchError(f"{key} is not a whole number")
    if line["attempted"] < 1:
        raise BenchError("attempted < 1")
    wanted = spec["per_layer" if trace else "end_to_end"]
    if set(line["metrics"]) != {m["name"] for m in wanted}:
        raise BenchError("metric names differ from BENCHMARK.json")
    for m in wanted:
        got = line["metrics"][m["name"]]
        if set(got) != {"value", "unit"} or got["unit"] != m["unit"]:
            raise BenchError(f"metric {m['name']} malformed: {got}")
        if not isinstance(got["value"], (int, float)):
            raise BenchError(f"metric {m['name']} is not a number")
        if not trace and got["value"] == 0:
            raise BenchError(f"end-to-end metric {m['name']} is 0")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        build()
        if args.smoke:
            smoke(spec)
            return 0
        if args.workload is None:
            parser.error("--workload is required (a name, or 'all')")
        if args.workload != "all" and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload}; one of "
                             + ", ".join(names))
        seconds = args.seconds or spec["run_seconds"]
        todo = names if args.workload == "all" else [args.workload]
        status = 0
        for name in todo:
            code, line, raw = measure(spec, name, args.seed, seconds,
                                      args.trace == 1)
            report(raw, line, args.trace == 1)
            print(json.dumps(line))
            sys.stdout.flush()
            if code != 0 or not line["correct"]:
                status = 1
        return status
    except BenchError as e:
        print(f"nodebench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
