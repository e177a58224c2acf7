#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload advise_trace --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. It builds the cdpd library,
tools/advisor_server and the benchmark binary from the sources next to
it (CMake, Release, into $CARGO_TARGET_DIR or .bench_build), runs its
self-tests, then runs one workload for --seconds and checks
every answer.

Output: the per-metric table on stderr; on stdout a provenance line
({"provenance": {...}}) and, as the last line, the result object
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. The full result
(sample counts, notes, provenance) is also written under
<build dir>/results/. Exits 0 when every answer was correct, 1 when one
was wrong, 2 when the benchmark could not run.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("advise_trace", "solve_scale", "serve_mixed")
RUN_TIMEOUT_S = 170
SERIAL_THREADS = "1"


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    """Configures and builds; returns the binaries' directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no cdpd sources next to perfbench/ (src/CMakeLists.txt "
            "missing); run from the root of a source checkout")
        return None
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out_dir, "-j", jobs, "--target", "perfbench",
              "advisor_server"]]
    for step in steps:
        result = subprocess.run(step, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            log(result.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(step))
            return None
    return out_dir


def cmake_cache(out_dir, key):
    try:
        with open(os.path.join(out_dir, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def source_digest():
    """SHA-256 over the build inputs (src/, tools/, perfbench/ and the
    top-level CMake files), for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    paths = []
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                paths.append(os.path.join(dirpath, name))
    paths += [os.path.join(ROOT, "CMakeLists.txt")]
    for path in paths:
        if not os.path.isfile(path):
            continue
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(hashlib.sha256(f.read()).digest())
    return digest.hexdigest()


def provenance(out_dir, args, detail):
    sha = ""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cmake_cache(out_dir, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"],
                                 stdout=subprocess.PIPE, text=True,
                                 timeout=10).stdout.splitlines()
        if version:
            compiler = version[0]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = source_digest()
    return {
        # Outside a git checkout the source tree's digest stands in.
        "git_sha": sha if sha else "tree-sha256:" + digest,
        "source_sha256": digest,
        "cpu_model": cpu_model,
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": compiler,
        "build_type": cmake_cache(out_dir, "CMAKE_BUILD_TYPE"),
        "default_threads": detail.get("default_threads"),
        "cdpd_threads_env": SERIAL_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="only run the binary's self-tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out_dir = build(build_dir())
    if out_dir is None:
        return 2
    binary = os.path.join(out_dir, "perfbench")
    selftest = subprocess.run([binary, "--selftest"])
    if selftest.returncode != 0:
        log("perfbench: self-tests failed")
        return 2
    if args.selftest:
        return 0

    tmp = os.path.join(out_dir, "runs", "%d-%d" % (os.getpid(), time.time_ns()))
    os.makedirs(tmp)
    # The timed runs pin the library's default thread count to 1: at the
    # hardware default the solvers' per-stage pool barriers turn the
    # host's CPU steal into run-to-run swings far wider than any bound.
    # Traced runs still probe the hardware default (core.hw_threads_*).
    env = dict(os.environ, CDPD_THREADS=SERIAL_THREADS)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--server-bin", os.path.join(out_dir, "advisor_server"),
               "--tmp-dir", tmp]
    # Its own process group, so the advisor_server it starts goes down
    # with it whatever happens.
    run = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                           env=env, start_new_session=True)
    try:
        stdout, _ = run.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = ""
        log("perfbench: the benchmark binary did not finish within %d s"
            % RUN_TIMEOUT_S)
    finally:
        try:
            os.killpg(run.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        run.wait()
        shutil.rmtree(tmp, ignore_errors=True)
    lines = stdout.strip().splitlines()
    try:
        full = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: the benchmark binary printed no result (exit %d)"
            % run.returncode)
        return 2

    detail = full.get("detail", {})
    prov = provenance(out_dir, args, detail)
    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(dict(full, provenance=prov), f, indent=1)
    result = {key: full[key]
              for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
