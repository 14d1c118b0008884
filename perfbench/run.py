#!/usr/bin/env python3
"""Builds and runs the CSQ end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload infer_batch --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The first run configures and builds
the library and the benchmark under .bench_build/perfbench; later runs only
rebuild what changed. The last line of standard output is the result object
of the run; a non-zero exit code means the build, the run or an output check
failed.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(BUILD, "work")
WORKLOADS = ("infer_batch", "serve_wire", "train_csq")
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def run_logged(cmd, log_path):
    with open(log_path, "w") as out:
        code = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT)
    if code != 0:
        with open(log_path) as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
        raise RuntimeError("command failed (%d): %s" % (code, " ".join(cmd)))


def build(targets):
    """Configures once, then builds `targets`; returns the build directory."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise RuntimeError("not a source checkout: %s is missing" % needed)
    os.makedirs(WORK, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                   os.path.join(BUILD, "configure.log"))
    jobs = str(max(1, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD, "-j", jobs, "--target"] + list(targets),
               os.path.join(BUILD, "build.log"))
    return BUILD


def portable_flag():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CSQ_PORTABLE_BUILD:"):
                    return line.strip().split("=", 1)[1]
    except OSError:
        pass
    return "unknown"


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        build(["csq_perfbench"])
    except (RuntimeError, OSError) as e:
        log(str(e))
        return 1
    binary = os.path.join(BUILD, "csq_perfbench")

    # The model under test, built from the seed in its own process so its
    # float training state never counts toward the workload's peak memory.
    artifact = os.path.join(WORK, "model_seed%d.csqg" % args.seed)
    prepare = subprocess.run([binary, "prepare", "--seed", str(args.seed),
                              "--out", artifact], cwd=ROOT,
                             capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if prepare.returncode != 0:
        sys.stderr.write(prepare.stdout + prepare.stderr)
        log("prepare failed")
        return 1

    cmd = [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--artifact", artifact, "--out-dir", WORK,
           "--portable", portable_flag(), "--commit", source_id()]
    # The benchmark process is stopped and reaped on timeout and on SIGTERM
    # or SIGINT to this script, so no run outlives its caller.
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        stdout, stderr = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    sys.stderr.write(stderr)
    lines = stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        ok = False
    if not ok:
        sys.stderr.write(stdout)
        log("run produced no result line (exit %d)" % child.returncode)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
