#!/usr/bin/env python3
"""Build lamad, lamamap and the benchmark from source, then run the benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload hit-4k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py compare old.jsonl new.jsonl

Every build artefact, the Go build cache and the traced spans go under
.bench_build/ in the repository root. Arguments are passed to the benchmark
unchanged (see perfbench/main.go). A failed build exits non-zero without
printing a result.
"""
import os
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
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        # The go command keeps telemetry and its env file under the user
        # config directory; point it inside the build directory.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        HOME=os.path.join(BUILD, "home"),
    )
    return env


def build():
    env = go_env()
    for d in (BIN, env["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)
    steps = [
        (ROOT, ["go", "build", "-o", BIN + os.sep, "./cmd/lamad", "./cmd/lamamap"]),
        (HERE, ["go", "build", "-o", os.path.join(BIN, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        res = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL)
        if res.returncode != 0:
            sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
            sys.exit(res.returncode or 1)


def main():
    build()
    os.chdir(ROOT)
    exe = os.path.join(BIN, "perfbench")
    args = sys.argv[1:]
    if args[:1] != ["compare"]:
        args = ["--bin", BIN] + args
    # git (asked for the revision) must not look above the checkout or
    # read the user's or the system's configuration.
    env = dict(os.environ, HOME=go_env()["HOME"], GIT_CONFIG_NOSYSTEM="1",
               GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    os.execve(exe, [exe] + args, env)


if __name__ == "__main__":
    main()
