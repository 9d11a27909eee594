#!/usr/bin/env python3
"""Tiny-scale self-test of the end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload, in both modes, it checks that the benchmark exits 0, that
its last line is the result object with exactly the metrics BENCHMARK.json
names (each once, with its unit) and that every check passed. It then checks
that a deliberately corrupted expected body makes the checks fire (exit 1,
"correct": false), and that another seed changes the inputs but not the
metric names.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ingest", "query", "query_routed", "query_during_ingest"]
TINY = ["--seconds", "1", "--scale", "0.02"]


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--trace", str(trace), *TINY,
           *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    lines = done.stdout.strip().splitlines()
    pairs = json.loads(lines[-1], object_pairs_hook=lambda kv: kv)
    return done.returncode, lines, pairs


def as_dict(pairs, what):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        raise AssertionError("%s: a key is printed twice: %s" % (what, keys))
    return dict(pairs)


def expect(cond, what):
    if not cond:
        raise AssertionError(what)


def check_result(pairs, specs, what):
    result = as_dict(pairs, what)
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           what + ": result keys")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           what + ": attempted")
    metrics = as_dict(result["metrics"], what + " metrics")
    want = {m["name"]: m["unit"] for m in specs}
    expect(sorted(metrics) == sorted(want),
           "%s: metric names %s != %s" % (what, sorted(metrics), sorted(want)))
    for name, entry in metrics.items():
        entry = dict(entry)
        expect(entry["unit"] == want[name], "%s: unit of %s" % (what, name))
        expect(isinstance(entry["value"], (int, float)),
               "%s: value of %s" % (what, name))
    return result, metrics


def inputs_line(lines):
    return [l for l in lines if l.startswith("inputs:")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expect([w["name"] for w in bench["workloads"]] == WORKLOADS,
           "BENCHMARK.json workloads")
    for workload in WORKLOADS:
        for trace, specs in ((0, bench["end_to_end"]),
                             (1, bench["per_layer"])):
            what = "%s trace=%d" % (workload, trace)
            code, lines, pairs = run(workload, 1, trace)
            expect(code == 0, "%s: exit %d\n%s" % (what, code,
                                                   "\n".join(lines[-20:])))
            result, metrics = check_result(pairs, specs, what)
            expect(result["correct"] is True and result["failed"] == 0,
                   what + ": checks failed")
            if trace == 0:
                for name in ("setup_s", "query_qps", "update_p50_ms"):
                    expect(dict(metrics[name])["value"] > 0,
                           "%s: %s is 0" % (what, name))

        what = workload + " corrupted"
        code, lines, pairs = run(workload, 1, 0, "--corrupt-expected")
        result, _ = check_result(pairs, bench["end_to_end"], what)
        expect(code == 1 and result["correct"] is False
               and result["failed"] >= 1,
               what + ": a wrong expected body went unnoticed")

        _, lines1, pairs1 = run(workload, 1, 0)
        _, lines2, pairs2 = run(workload, 2, 0)
        expect(inputs_line(lines1) and
               inputs_line(lines1) != inputs_line(lines2),
               workload + ": seed 2 did not change the inputs")
        names1 = [k for k, _ in dict(pairs1)["metrics"]]
        names2 = [k for k, _ in dict(pairs2)["metrics"]]
        expect(names1 == names2, workload + ": seed changed metric names")
        print("ok  %s" % workload)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as err:
        print("selftest FAILED: %s" % err)
        sys.exit(1)
