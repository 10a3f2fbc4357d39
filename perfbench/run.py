#!/usr/bin/env python3
"""Benchmark entry point: build the workload runner, run one workload, check
its outputs, print the metrics.

    python3 perfbench/run.py --workload paper_sweep --seed 0 --seconds 15 --trace 0

Run from the repository root. The runner is built from source under
.bench_build/ (CMake, perfbench/CMakeLists.txt) on first use and rebuilt
incrementally after. Each call runs one workload in its own
single-threaded runner process (the traced run adds one polling thread for
the checkpoint probes) and prints, in order:

  * a `manifest` line: host, nproc, compiler, build type and flags, git
    revision or source digest, and where the checkpoint files lived;
  * a `detail` line: samples behind every median, sample counts, digests;
  * the result, one JSON object with `correct`, `attempted`, `failed` and
    `metrics` (end-to-end metrics with --trace 0, per-layer with --trace 1).

Workloads, metrics and the layer each per-layer metric belongs to are
described in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUN_DIR = ROOT / ".bench_run"
RUNNER = BUILD_DIR / "perfbench_runner"
# A run may take 180 s once built, and its first build 900 s: stop the
# runner and the build well inside those limits.
RUN_DEADLINE_S = 170.0
BUILD_DEADLINE_S = 850.0

# Replays whose digests BENCH_core.json also records (WL1 month, full YEAR).
BENCH_CORE_NAMES = {
    "WL1/BASE_LINE": "BASE_LINE",
    "WL1/MAX_UTIL": "MAX_UTIL",
    "WL1/ADAPTIVE": "ADAPTIVE",
    "YEAR": "YEAR",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(deadline):
    """Configure once, then build the runner incrementally."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR.parent / "perfbench-build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    configured = any((BUILD_DIR / f).exists()
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "perfbench_runner", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      cwd=ROOT,
                                      timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                fail(f"build timed out: {' '.join(cmd)}")
            if proc.returncode != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")


def git_revision():
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unavailable (not a git checkout)"


def source_digest():
    """SHA-256 over the simulator sources and the benchmark itself."""
    h = hashlib.sha256()
    files = sorted(p for d in (ROOT / "src", BENCH_DIR) for p in d.rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    files.append(ROOT / "CMakeLists.txt")
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def filesystem_of(path):
    """Mount point, filesystem type and source device holding `path`."""
    best = {"mount": "", "type": "unknown", "source": "unknown"}
    target = Path(path).resolve()
    try:
        with open("/proc/self/mountinfo") as f:
            for line in f:
                fields = line.split()
                mount = Path(fields[4])
                rest = fields[fields.index("-") + 1:]
                if ((mount == target or mount in target.parents)
                        and len(str(mount)) >= len(best["mount"])):
                    best = {"mount": str(mount), "type": rest[0],
                            "source": rest[1]}
    except OSError:
        pass
    return best


def check_digests(workload, digests, errors):
    """Default-seed gate: every replay digest equals the recorded value, and
    the replays BENCH_core.json also records match it. A replay the runner
    already counted as failed (digest null) is not checked again. Returns
    (checks made, checks failed)."""
    expected = json.loads(
        (BENCH_DIR / "expected_digests.json").read_text())[workload]
    core = {}
    try:
        for line in (ROOT / "BENCH_core.json").read_text().splitlines():
            if '"digest"' in line and '"name"' in line:
                entry = json.loads(line.strip().rstrip(","))
                core[entry["name"]] = entry["digest"]
    except OSError as e:
        errors.append(f"BENCH_core.json unreadable: {e}")
        return 1, 1
    checked = bad = 0
    for name, want in expected.items():
        if name in digests and digests[name] is None:
            continue
        checked += 1
        got = digests.get(name)
        core_name = BENCH_CORE_NAMES.get(name)
        ok = got == want and (core_name is None or core.get(core_name) == got)
        if not ok:
            bad += 1
            errors.append(f"{name}: digest {got}, recorded {want}"
                          + (f", BENCH_core.json {core.get(core_name)}"
                             if core_name else ""))
    return checked, bad


def main():
    # BENCHMARK.json names the workloads and every metric with its unit.
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    build(time.monotonic() + BUILD_DEADLINE_S)

    work_dir = RUN_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    cmd = [str(RUNNER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work_dir, ignore_errors=True)
        fail("workload runner timed out")
    fs_info = filesystem_of(work_dir)
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        RUN_DIR.rmdir()  # only when no other run is using it
    except OSError:
        pass
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"workload runner exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("workload runner printed no result")

    measured = raw["measured"]
    errors = list(raw["errors"])
    attempted = int(raw["attempted"])
    failed = int(raw["failed"])
    digest_gate = "skipped (recorded digests exist for seed 0 only)"
    if args.seed == 0:
        checked, bad = check_digests(args.workload, measured["digests"], errors)
        attempted += checked
        failed += bad
        digest_gate = "checked against expected_digests.json and BENCH_core.json"

    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    metrics = {name: {"value": measured[name], "unit": unit}
               for name, unit in units.items()}

    manifest = {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "compiler": raw["compiler"],
        "build_type": raw["build_type"],
        "cxx_flags": raw["cxx_flags"].strip(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "checkpoint_dir": str(work_dir),
        "checkpoint_fs": fs_info,
        "checkpoint_fsync": True,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    detail = {k: v for k, v in measured.items() if k not in units}
    detail["digest_gate"] = digest_gate
    detail["errors"] = errors
    print("manifest " + json.dumps(manifest, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
