#!/usr/bin/env python3
"""Build perfbench from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload sensitivity --seed 1 --seconds 15 --trace 0

Every build artefact, Go cache and temporary file stays under .bench_build/
in the current directory. The build needs the mpipart module at the root
(perfbench/go.mod replaces it with ../), so outside a full checkout it fails
and this script exits non-zero without printing a result.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOMODCACHE=os.path.join(out, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(out, "tmp"),
        TMPDIR=os.path.join(out, "tmp"),
        HOME=os.path.join(out, "home"),
        XDG_CONFIG_HOME=os.path.join(out, "home", ".config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        GOTELEMETRY="off",
        CGO_ENABLED="0",
    )
    for d in ("gocache", "tmp", "home"):
        os.makedirs(os.path.join(out, d), exist_ok=True)
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(root, "perfbench"),
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
