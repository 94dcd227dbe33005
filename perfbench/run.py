#!/usr/bin/env python3
"""Build itdb and the benchmark from source, then run one workload.

usage: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `itdb` and `itdb-shell` binaries
(root workspace) and the `perfbench` binary (its own workspace, in this
directory) in release mode into $CARGO_TARGET_DIR (default `.bench_build`),
then runs it. Build output goes to stderr; the last stdout line of
`perfbench` is the JSON result. Exits nonzero if a build fails or any operation
failed or answered wrongly. See perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(env, manifest, *args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    r = subprocess.run(cmd + list(args), env=env, stdout=sys.stderr)
    if r.returncode != 0:
        print(f"perfbench: build of {manifest} failed", file=sys.stderr)
        sys.exit(r.returncode or 1)


def probe(cmd):
    # Never let git report a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return "unknown"
    out = r.stdout.strip()
    return out.replace(" ", "_") if r.returncode == 0 and out else "unknown"


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(env, os.path.join(ROOT, "Cargo.toml"), "-p", "itdb-cli", "--bin", "itdb", "--bin", "itdb-shell")
    build(env, os.path.join(HERE, "Cargo.toml"))
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--itdb", os.path.join(release, "itdb"),
        "--shell", os.path.join(release, "itdb-shell"),
        "--dir", os.path.join(ROOT, ".bench_run"),
        "--commit", probe(["git", "rev-parse", "--short", "HEAD"]),
        "--rustc", probe(["rustc", "--version"]),
    ]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
