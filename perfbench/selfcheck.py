#!/usr/bin/env python3
"""Self-check of the benchmark, at a tiny input size.

    python3 perfbench/selfcheck.py

Checks that BENCHMARK.json and perfbench/layers.json agree, then runs
every workload for one second untraced and traced and asserts that
the result line has the expected keys, that every metric BENCHMARK.json
names is printed with its unit, that outputs check clean, that
node_sweep's digest is the same traced and untraced, and that a
deliberately corrupted output raises fail_ratio. Exits 1 on the
first failure.
"""

import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
MODULES = {"sched", "perf", "core", "cluster", "exec", "trace", "obs",
           "experiment"}


def fail(msg):
    print("selfcheck: FAIL: " + msg)
    sys.exit(1)


def check_spec(bench, layers):
    if set(bench) != {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}:
        fail("BENCHMARK.json keys: %s" % sorted(bench))
    names = [w["name"] for w in bench["workloads"]]
    if set(names) != set(layers["workloads"]):
        fail("workloads differ between BENCHMARK.json and layers.json")
    for w in bench["workloads"]:
        if len(w["why"]) > 200 or "\n" in w["why"]:
            fail("why of %s is not one line of <= 200 chars" % w["name"])
    seen = set()
    for m in bench["end_to_end"] + bench["per_layer"]:
        if not NAME.match(m["name"]) or not UNIT.match(m["unit"]):
            fail("bad name or unit: %s" % m)
        if m["name"] in seen:
            fail("duplicate metric %s" % m["name"])
        seen.add(m["name"])
    for m in bench["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            fail("bound of %s out of range" % m["name"])
    if set(layers["layers"]) != MODULES:
        fail("layers.json layers: %s" % sorted(layers["layers"]))
    mapped = {}
    for layer, body in layers["layers"].items():
        for name, m in body["metrics"].items():
            if not name.startswith(layer + "."):
                fail("%s filed under layer %s" % (name, layer))
            if not set(m["measured_on"]) <= set(names):
                fail("%s measured on unknown workloads" % name)
            mapped[name] = m
        for sm in body["should_move"]:
            if sm["workload"] not in names:
                fail("%s should_move names workload %s"
                     % (layer, sm["workload"]))
    per_layer = {m["name"] for m in bench["per_layer"]}
    if per_layer != set(mapped):
        fail("per_layer and layers.json differ: %s"
             % sorted(per_layer ^ set(mapped)))
    e2e = {m["name"] for m in bench["end_to_end"]}
    if e2e != set(layers["end_to_end"]):
        fail("end_to_end and layers.json differ")
    if "setup_s" not in e2e:
        fail("setup_s missing")
    return names


def run(workload, trace, corrupt=False):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    if corrupt:
        cmd.append("--corrupt")
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    lines = res.stdout.splitlines()
    if not lines:
        fail("%s printed nothing: %s" % (workload, res.stderr[-2000:]))
    return res.returncode, lines, json.loads(lines[-1])


def check_result(workload, trace, wanted, code, lines, result):
    if code != 0:
        fail("%s --trace %d exited %d" % (workload, trace, code))
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s result keys %s" % (workload, sorted(result)))
    if not result["correct"] or result["failed"] != 0 or \
            result["attempted"] < 1:
        fail("%s --trace %d: %s" % (workload, trace, result))
    got = result["metrics"]
    if list(got) != [m["name"] for m in wanted]:
        fail("%s --trace %d metric names differ" % (workload, trace))
    text = "\n".join(lines[:-1])
    for m in wanted:
        v = got[m["name"]]
        if v["unit"] != m["unit"] or not isinstance(
                v["value"], (int, float)) or not math.isfinite(v["value"]):
            fail("%s: %s = %s" % (workload, m["name"], v))
        if trace == 0 and v["value"] == 0:
            fail("%s: end-to-end %s is 0" % (workload, m["name"]))
        measured = v["value"] != 0 or trace == 0
        if measured and not re.search(
                r"^\s*%s\s+\S+\s+%s\b" % (re.escape(m["name"]),
                                          re.escape(m["unit"])),
                text, re.M):
            fail("%s: %s not printed with its unit" % (workload, m["name"]))
    if not re.search(r"^\s*fail_ratio\s+0\s", text, re.M):
        fail("%s: fail_ratio 0 not printed" % workload)


def digest(lines):
    for line in lines:
        if line.startswith("digest "):
            return line.split()[1]
    fail("no digest printed")


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    layers = json.load(open(os.path.join(HERE, "layers.json")))
    names = check_spec(bench, layers)

    for w in names:
        code, lines0, res0 = run(w, 0)
        check_result(w, 0, bench["end_to_end"], code, lines0, res0)
        code, lines1, res1 = run(w, 1)
        check_result(w, 1, bench["per_layer"], code, lines1, res1)
        if w == "node_sweep" and digest(lines0) != digest(lines1):
            fail("node_sweep digest differs between traced and untraced")

        code, lines, res = run(w, 0, corrupt=True)
        if code == 0 or res["correct"] or res["failed"] < 1:
            fail("%s: corrupted output not caught: %s" % (w, res))
        print("selfcheck: %s ok (%d ops checked, corruption caught)"
              % (w, res0["attempted"]))
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
