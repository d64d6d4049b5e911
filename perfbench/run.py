#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload offline-diurnal --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0 [--out FILE]

The script builds the benchmark command (perfbench/, a Go module of its own
that imports the repository through a replace directive) and busyschedd into
.bench_build/ with the Go build cache kept there too, then runs the
benchmark. The benchmark prints its metrics and, as its last line, one JSON
result. With --workload all every workload runs in its own process, so
peak_rss_mb is per workload; --out writes all their results to one JSON file.
"""

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
        GOWORK="off",
        GOENV="off",
    )
    return env


def build():
    """Build the benchmark and the daemon; return False (after saying why) on failure."""
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("run.py: no go.mod at %s: the benchmark needs the repository it measures" % ROOT,
              file=sys.stderr)
        return False
    env = go_env()
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    for args in (["go", "build", "-o", os.path.join(BIN, "perfbench"), "."],
                 ["go", "build", "-o", os.path.join(BIN, "busyschedd"), "busytime/cmd/busyschedd"]):
        try:
            proc = subprocess.run(args, cwd=HERE, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as err:
            print("run.py: %s: %s" % (" ".join(args), err), file=sys.stderr)
            return False
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode(errors="replace"))
            print("run.py: %s failed" % " ".join(args), file=sys.stderr)
            return False
    return True


def die_with_parent():
    """Make the benchmark process die if this script is killed."""
    try:
        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


def run_one(workload, seed, seconds, trace, capture):
    args = [os.path.join(BIN, "perfbench"), "-workload", workload, "-seed", str(seed),
            "-seconds", str(seconds), "-trace", str(trace),
            "-daemon", os.path.join(BIN, "busyschedd"),
            "-spans", os.path.join(".bench_build", "spans")]
    proc = subprocess.Popen(args, cwd=ROOT, preexec_fn=die_with_parent,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, (out or b"").decode()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="with --workload all: write every result to this JSON file")
    opts = ap.parse_args()
    if not build():
        return 1
    if opts.workload != "all":
        code, _ = run_one(opts.workload, opts.seed, opts.seconds, opts.trace, capture=False)
        return code
    names = ["offline-diurnal", "offline-lightpath", "offline-clustered", "wire-stream"]
    doc, failed = {}, False
    for name in names:
        code, out = run_one(name, opts.seed, opts.seconds, opts.trace, capture=True)
        sys.stdout.write(out)
        lines = out.strip().splitlines()
        if code != 0 or len(lines) < 2:
            failed = True
            continue
        doc[name] = {"run": json.loads(lines[0]), "result": json.loads(lines[-1])}
        failed = failed or not doc[name]["result"]["correct"]
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
