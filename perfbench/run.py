#!/usr/bin/env python3
"""Build the engine benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (the engine's src/ plus the benchmark binary) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload, checks that the result line carries exactly the metrics
BENCHMARK.json names (end_to_end with --trace 0, per_layer with --trace 1),
and prints that line last. Traced runs write their span log to
<build dir>/spans/<workload>-seed<n>.jsonl.

Exit codes: 0 ok; 1 a result check failed; 2 the build failed or the
engine sources are missing; 3 the run failed, timed out, or printed a
malformed result.
"""
import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log_path):
    with open(log_path, "w") as log:
        return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode


def build(build_dir):
    """Configure (once) and build; returns the benchmark binary's path."""
    if not (ROOT / "src").is_dir():
        fail(2, f"engine sources not found under {ROOT / 'src'}")
    cache = build_dir / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" not in cache.read_text():
        shutil.rmtree(build_dir)  # configured for another checkout
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not cache.exists() and run_logged(configure, log) != 0:
        fail(2, f"cmake configure failed; see {log}")
    jobs = str(max(1, os.cpu_count() or 1))
    if run_logged(["cmake", "--build", str(build_dir), "-j", jobs], log) != 0:
        sys.stderr.write(log.read_text()[-4000:])
        fail(2, f"build failed; see {log}")
    return build_dir / "perfbench"


def commit_id():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def source_digest():
    """SHA-256 over the engine and benchmark sources (stable without git)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".py", ".txt"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(3, f"unknown workload {args.workload!r}; expected one of {names}")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target) / "perfbench"
    binary = build(build_dir)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id(), "--source-digest", source_digest()]
    if args.trace:
        spans = build_dir / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(3, f"run exceeded {RUN_TIMEOUT_S} s")

    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(3, f"run exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(3, "malformed result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(3, f"result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(3, f"metrics {got} differ from BENCHMARK.json {expected}")

    for line in lines:
        print(line)
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
