#!/usr/bin/env python3
"""Build and run the Ah-Q simulator benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1> [--size full|tiny] [--corrupt]

Run from the root of a source tree. The first run configures and
builds perfbench/ (with the simulator sources under src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset. The benchmark binary prints a human-readable report; this script
passes it through and ends with one JSON line holding `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

A per-layer metric that perfbench/layers.json does not list as
measured on the workload reads 0. Any other mismatch between what
the binary printed and what BENCHMARK.json names is an error.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def spec():
    return load_json(os.path.join(ROOT, "BENCHMARK.json"))


def layer_map():
    return load_json(os.path.join(HERE, "layers.json"))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure once, then bring the binary up to date."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out, "-j", jobs, "--target", "ahq_perfbench"],
        check=True, stdout=sys.stderr)
    return os.path.join(out, "ahq_perfbench")


def src_digest():
    """SHA-256 over the simulator sources: identifies the code when
    the tree is not a git checkout."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return res.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def run_binary(binary, workload, args):
    """Runs one workload; returns (exit code, printed lines, RESULT)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--git-rev", git_rev(),
           "--src-digest", src_digest()]
    if args.corrupt:
        cmd.append("--corrupt")
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = res.stdout.splitlines()
    result = None
    if lines and lines[-1].startswith("RESULT "):
        result = json.loads(lines.pop()[len("RESULT "):])
    return res.returncode, lines, result


def result_metrics(workload, traced, result):
    """The metrics BENCHMARK.json names for this mode, in its order."""
    bench = spec()
    wanted = bench["per_layer" if traced else "end_to_end"]
    measured = {}
    if traced:
        for layer in layer_map()["layers"].values():
            for name, m in layer["metrics"].items():
                measured[name] = workload in m["measured_on"]
    got = result["metrics"]
    names = {m["name"] for m in wanted}
    extra = sorted(set(got) - names)
    if extra:
        raise ValueError("metrics missing from BENCHMARK.json: %s" % extra)
    out = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name in got:
            if not measured.get(name, True):
                raise ValueError("%s is measured on %s but layers.json "
                                 "says it is not" % (name, workload))
            if got[name]["unit"] != unit:
                raise ValueError("%s: unit %s, BENCHMARK.json says %s"
                                 % (name, got[name]["unit"], unit))
            value = got[name]["value"]
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError("%s is not a finite number" % name)
        elif traced and not measured.get(name, False):
            value = 0
        else:
            raise ValueError("%s missing from the %s output"
                             % (name, workload))
        out[name] = {"value": value, "unit": unit}
    return out


def run_workload(binary, workload, args):
    """Runs one workload and prints its report; returns the result
    line's object, or None when the run printed no result."""
    code, lines, result = run_binary(binary, workload, args)
    for line in lines:
        print(line)
    if result is None:
        print("perfbench: %s printed no result (exit %d)"
              % (workload, code), file=sys.stderr)
        return None
    try:
        metrics = result_metrics(workload, args.trace == 1, result)
    except ValueError as e:
        print("perfbench: %s: %s" % (workload, e), file=sys.stderr)
        return None
    correct = bool(result["correct"]) and code == 0
    return {"correct": correct, "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def main():
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--size", choices=["full", "tiny"], default="full")
    p.add_argument("--corrupt", action="store_true",
                   help="perturb one op's output (self-check only)")
    args = p.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    if args.workload != "all":
        out = run_workload(binary, args.workload, args)
        if out is None:
            return 1
        print(json.dumps(out))
        return 0 if out["correct"] else 1

    # Every workload in turn; the summary keys metrics by workload.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        print("=== %s" % name)
        out = run_workload(binary, name, args)
        if out is None:
            return 1
        print(json.dumps(out))
        summary["correct"] = summary["correct"] and out["correct"]
        summary["attempted"] += out["attempted"]
        summary["failed"] += out["failed"]
        for metric, v in out["metrics"].items():
            summary["metrics"]["%s/%s" % (name, metric)] = v
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
