#!/usr/bin/env python3
"""Build the XPro benchmark from source and run one workload.

    python3 perfbench/run.py --workload design|adaptive_day|population|serve
                             --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is this file's parent
directory. The library is compiled from ../src with CMake into
.bench_build/perfbench (incremental after the first build, which
takes about a minute), then the harness binary runs with the same
arguments. A traced run also writes its spans as Chrome-trace JSON
into the build directory. The last line of standard output is the
harness's JSON result; build output goes to standard error.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "xpro_perfbench")
JOBS = "4"


def build():
    """Configure once, then build incrementally; exits on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("error: no XPro sources at %s" %
                 os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", JOBS], check=True,
                   stdout=sys.stderr)


def trace_path(args):
    """Where a --trace 1 run writes its spans."""
    def arg(name, default):
        return args[args.index(name) + 1] if name in args[:-1] else default
    if arg("--trace", "0") == "0":
        return None
    return os.path.join(BUILD, "trace-%s-seed%s.json" %
                        (arg("--workload", "none"), arg("--seed", "2017")))


def main(args):
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("error: benchmark build failed: %s" % e)
    command = [BINARY] + args
    trace = trace_path(args)
    if trace:
        command += ["--trace-out", trace]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
