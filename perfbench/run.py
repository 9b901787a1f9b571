#!/usr/bin/env python3
"""Builds and runs the end-to-end SVR benchmark (see README.md).

Run from the repository root:

    python3 perfbench/run.py --workload search_cached --seed 1 \
        --seconds 10 --trace 0

The engine and the benchmark binary are built from source with CMake into the
directory named by $CARGO_TARGET_DIR (default `.bench_build`). The last
line of standard output is the binary's JSON result; the exit code is 0
only when the binary produced one.
"""

import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path.cwd()
BENCH_DIR = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("search_cached", "search_evicting", "update_heavy")
RUN_TIMEOUT_S = 170


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def source_id():
    """A digest of the engine sources (the checkout need not be a git
    repository); prefixed with the git sha when one is available."""
    digest = hashlib.sha256()
    src = BENCH_DIR.parent / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    sha = "nogit"
    # Only the checkout's own repository: git would otherwise search the
    # parent directories.
    if (BENCH_DIR.parent / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                 cwd=BENCH_DIR.parent, capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                sha = out.stdout.strip()
        except OSError:
            pass
    return "%s+src-%s" % (sha, digest.hexdigest()[:12])


def build(out):
    """Configures (once) and builds the benchmark binary; returns its path."""
    out.mkdir(parents=True, exist_ok=True)
    if not (out / "Makefile").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "svr_perfbench",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return out / "svr_perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("paper", "tiny"), default="paper",
                    help="tiny: the smoke test's small corpus and rates")
    args = ap.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    work = out / ("run-%d" % os.getpid())
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--work-dir", str(work),
           "--source-id", source_id()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: benchmark binary timed out", file=sys.stderr)
        return 1
    finally:
        # Spans survive the run (under traces/); WAL files do not.
        if work.exists():
            for spans in work.glob("spans-*.jsonl"):
                (out / "traces").mkdir(exist_ok=True)
                spans.replace(out / "traces" / spans.name)
            shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        print("perfbench: benchmark binary exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
