#!/usr/bin/env python3
"""Builds the mwsim host-time benchmark and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload bookstore_browsing --seed 1 --seconds 30 --trace 0

The mwsim libraries and the benchmark program (mwsim_perfbench) are built from
source with CMake into .bench_build/perfbench (incremental after the first run;
build output goes to stderr). Every argument is passed to the program, whose
last line of standard output is the JSON result. Traced runs (--trace 1) also write their spans to
.bench_build/perfbench/traces/<workload>.json unless --trace-dir is given.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PROGRAM = os.path.join(BUILD, "mwsim_perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no mwsim sources at %s" % os.path.join(ROOT, "src"))
    # The compiler's temporary files stay inside the build tree too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
                       + generator, stdout=sys.stderr, env=env, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr, env=env,
                   check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    # The default span directory comes first, so a --trace-dir given here wins.
    args = ["--trace-dir", os.path.join(BUILD, "traces")] + sys.argv[1:]
    return subprocess.run([PROGRAM] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
