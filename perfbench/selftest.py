#!/usr/bin/env python3
"""Self-test of the mwsim host-time benchmark (about a minute).

Runs a miniature of every workload (few clients, short windows, one round of
samples) untraced and traced through perfbench/run.py, and checks that:
  - BENCHMARK.json names only workloads the program knows;
  - each run exits 0 and its last line is a JSON result with correct = true;
  - every metric BENCHMARK.json names prints, in the JSON and in the table,
    with its unit;
  - the traced passes reproduce the untraced digest;
  - bad command lines exit non-zero without printing a result.

Usage, from the repository root:  python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Every workload of the program; BENCHMARK.json measures a subset (README.md).
WORKLOADS = ["bookstore_browsing", "auction_bidding", "bbs_ejb"]
MINI = ["--seed", "2", "--seconds", "1", "--clients", "200",
        "--rampup-sec", "4", "--measure-sec", "6"]
BAD = [
    ["--workload", "bookstore_browsing", "--bogus", "1"],
    ["--workload", "no_such_workload"],
    ["--seconds", "5"],
    ["--workload", "bbs_ejb", "--measure-sec", "0"],
    ["--workload", "bbs_ejb", "--measure-sec", "abc"],
    ["--workload", "bbs_ejb", "--rampup-sec", "-1"],
    ["--workload", "bbs_ejb", "--seconds", "nan"],
    ["--workload", "bbs_ejb", "--trace", "2"],
    ["--workload", "bbs_ejb", "--seed"],
]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + args,
                          cwd=ROOT, capture_output=True, text=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for name in [w["name"] for w in spec["workloads"]]:
        check(name in WORKLOADS, "BENCHMARK.json workload %s is a program workload" % name)
    for workload in WORKLOADS:
        for trace, names in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            label = "%s --trace %s" % (workload, trace)
            out = run(["--workload", workload, "--trace", trace] + MINI)
            lines = out.stdout.strip().splitlines()
            check(out.returncode == 0, label + " exits 0")
            if not lines:
                check(False, label + " prints a result")
                continue
            result = json.loads(lines[-1])
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  label + " output checks pass")
            table = "\n".join(lines[:-1])
            for m in names:
                got = result["metrics"].get(m["name"])
                check(got is not None and got["unit"] == m["unit"],
                      "%s prints %s in %s" % (label, m["name"], m["unit"]))
                check(any(l.split()[:1] == [m["name"]] and l.split()[-1] == m["unit"]
                          for l in lines[:-1]),
                      "%s tables %s with its unit" % (label, m["name"]))
            if trace == "1":
                check("reproduced by every repeated pass" in table,
                      label + " traced digest equals the untraced one")
    for args in BAD:
        out = run(args)
        check(out.returncode != 0 and not out.stdout.strip(),
              "rejects %s" % " ".join(args))
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
