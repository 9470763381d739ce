#!/usr/bin/env python3
"""Parallel run-matrix driver for the bench fleet.

Runs the declarative scenario matrix (bench_fleet's built-in registry
plus every ``bench/scenarios/*.scn`` file) and the other bench_*
binaries the build defines (``<build>/bench/targets.txt``), in parallel with per-job timeouts, and aggregates one
pass/fail table.  Each scenario writes a machine-readable
``BENCH_<scenario>.json`` into the output directory; a one-line summary
of the whole run is appended to ``bench/trajectory/trajectory.jsonl``
so perf history accumulates across commits.

Usage:
    scripts/fleet.py [--smoke] [--jobs N] [--only REGEX]
                     [--skip-legacy] [--bench-compare]
                     [--timeout SECS] [--no-trajectory]

Modes:
    (default)        scenario matrix + legacy --smoke benches
    --bench-compare  additionally gate the kernel and vcscale rows
                     against the committed baselines in bench/baselines/
                     using
                     scripts/bench_compare.py semantics (threshold from
                     HNI_BENCH_THRESHOLD, default 0.15); with --smoke
                     and the whole matrix, also gate every scenario's
                     event census exactly against BENCH_census.json

Exit status: 0 when every job passed, 1 on any acceptance miss,
timeout, or baseline regression, 2 on usage/setup errors.
"""

import argparse
import concurrent.futures
import datetime
import glob
import json
import os
import re
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# --bench-compare: baseline name -> (binary, how to produce the JSON).
BASELINES = {
    "kernel": ("bench_micro", "benchmark_out"),
    "vcscale": ("bench_p2_vc_scale", "json"),
}

# bench_micro rows gated against bench/baselines/BENCH_kernel.json: the
# event kernel and the host-side byte kernels (CRC-32, pattern make and
# verify) that every cell-path scenario runs through.
KERNEL_FILTER = ("BM_Simulator|BM_Crc32_9180|BM_MakePattern_9180|"
                 "BM_VerifyPattern_9180")

# The smoke matrix's event census (bench_fleet's "exact" rows, kernel
# events per delivered cell per layer), merged from every scenario's
# JSON and gated for equality: the census is deterministic, so any
# change is a behaviour change to re-record, never noise.
CENSUS = "census"


class Job:
    def __init__(self, name, kind, cmd, timeout):
        self.name = name
        self.kind = kind  # "scenario" | "legacy"
        self.cmd = cmd
        self.timeout = timeout
        self.rc = None
        self.seconds = 0.0
        self.output = ""

    @property
    def ok(self):
        return self.rc == 0


def run_job(job):
    start = time.monotonic()
    try:
        proc = subprocess.run(
            job.cmd,
            cwd=REPO,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=job.timeout,
            text=True,
        )
        job.rc = proc.returncode
        job.output = proc.stdout
    except subprocess.TimeoutExpired as exc:
        job.rc = "timeout"
        job.output = (exc.stdout or b"").decode() if isinstance(
            exc.stdout, bytes) else (exc.stdout or "")
        job.output += "\n[fleet] killed after %ds" % job.timeout
    except OSError as exc:
        job.rc = "error"
        job.output = str(exc)
    job.seconds = time.monotonic() - start
    return job


def discover_scenarios(fleet_bin, scenario_dir):
    """Built-in names (name, plane) plus *.scn files in scenario_dir.

    Subdirectories of scenario_dir (e.g. demos/) are deliberately not
    globbed: that is where intentionally-failing specs live.
    """
    out = subprocess.run([fleet_bin, "--list"], cwd=REPO, timeout=60,
                         stdout=subprocess.PIPE, text=True, check=True)
    builtin = []
    for line in out.stdout.splitlines():
        parts = line.split()
        if parts:
            builtin.append((parts[0], parts[1] if len(parts) > 1 else "?"))
    files = sorted(glob.glob(os.path.join(scenario_dir, "*.scn")))
    return builtin, files


def scenario_metrics(json_path):
    """Pull the headline rows back out of a BENCH_<scenario>.json."""
    try:
        with open(json_path) as f:
            doc = json.load(f)
    except (OSError, ValueError):
        return {}
    metrics = {}
    for row in doc.get("benchmarks", []):
        name = row.get("name", "")
        leaf = name.rsplit("/", 1)[-1]
        if "items_per_second" in row and leaf == "goodput":
            metrics["goodput_mbps"] = row["items_per_second"] * 8.0 / 1e6
        elif "value" in row:
            metrics[leaf] = row["value"]
    return metrics


def append_trajectory(path, record):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=REPO, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def merge_census(scenario_jsons, dest):
    """Collects the exact rows of the given BENCH_<scenario>.json files
    into one google-benchmark-shaped document at `dest`."""
    rows = []
    for path in scenario_jsons:
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, ValueError):
            continue  # a failed scenario: its rows read as MISSING
        rows += [r for r in doc.get("benchmarks", []) if r.get("exact")]
    with open(dest, "w") as f:  # one row per line, like bench_fleet's
        f.write('{"context": {"executable": "bench_fleet --smoke"},\n'
                ' "benchmarks": [\n  ')
        f.write(",\n  ".join(json.dumps(r) for r in rows))
        f.write("\n ]\n}\n")


def compare_baselines(build_dir, threshold, census):
    """Replicates check.sh --bench-compare's gate in-process; `census`
    adds the exact event-census gate."""
    sys.path.insert(0, os.path.join(REPO, "scripts"))
    import bench_compare

    failures = 0
    keys = sorted(BASELINES) + ([CENSUS] if census else [])
    for key in keys:
        baseline = os.path.join(REPO, "bench", "baselines",
                                "BENCH_%s.json" % key)
        current = os.path.join(build_dir, "BENCH_%s.json" % key)
        if not os.path.exists(baseline):
            print("-- no baseline for %s, skipping" % key)
            continue
        if not os.path.exists(current):
            print("FAIL %s: %s was not produced" % (key, current))
            failures += 1
            continue
        rc = bench_compare.main(
            [baseline, current, "--threshold", str(threshold)])
        if rc != 0:
            failures += 1
    return failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default=os.path.join(REPO, "build"))
    ap.add_argument("--scenario-dir",
                    default=os.path.join(REPO, "bench", "scenarios"))
    ap.add_argument("--smoke", action="store_true",
                    help="CI-sized windows everywhere")
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 2)
    ap.add_argument("--timeout", type=int, default=900,
                    help="per-job wall-clock limit, seconds")
    ap.add_argument("--only", default="",
                    help="regex filter on job names")
    ap.add_argument("--skip-legacy", action="store_true",
                    help="scenario matrix only")
    ap.add_argument("--bench-compare", action="store_true",
                    help="gate headline rows against bench/baselines/")
    ap.add_argument("--no-trajectory", action="store_true",
                    help="do not append to bench/trajectory/")
    args = ap.parse_args(argv)

    bench_dir = os.path.join(args.build_dir, "bench")
    fleet_bin = os.path.join(bench_dir, "bench_fleet")
    if not os.path.exists(fleet_bin):
        print("fleet.py: %s not built (cmake --build %s)"
              % (fleet_bin, args.build_dir), file=sys.stderr)
        return 2

    out_dir = os.path.join(args.build_dir, "fleet")
    os.makedirs(out_dir, exist_ok=True)

    builtin, spec_files = discover_scenarios(fleet_bin, args.scenario_dir)
    jobs = []
    planes = {}
    for name, plane in builtin:
        planes[name] = plane
        cmd = [fleet_bin, "--scenario", name,
               "--json", os.path.join(out_dir, "BENCH_%s.json" % name)]
        if args.smoke:
            cmd.append("--smoke")
        jobs.append(Job(name, "scenario", cmd, args.timeout))
    for path in spec_files:
        name = os.path.splitext(os.path.basename(path))[0]
        cmd = [fleet_bin, "--spec", path,
               "--json", os.path.join(out_dir, "BENCH_%s.json" % name)]
        if args.smoke:
            cmd.append("--smoke")
        jobs.append(Job(name, "scenario", cmd, args.timeout))

    if not args.skip_legacy:
        targets = os.path.join(bench_dir, "targets.txt")
        if not os.path.exists(targets):
            print("fleet.py: %s missing (re-run cmake)" % targets,
                  file=sys.stderr)
            return 2
        with open(targets) as f:
            binaries = sorted(set(f.read().split()) - {"bench_fleet"})
        for binary in binaries:
            path = os.path.join(bench_dir, binary)
            if binary == "bench_micro":
                # bench_micro maps --smoke/--json onto google-benchmark
                # flags itself; --bench-compare needs the 3-repetition
                # statistics the committed baseline was built with.
                if args.bench_compare:
                    cmd = [path, "--benchmark_filter=" + KERNEL_FILTER,
                           "--benchmark_repetitions=3",
                           "--json", os.path.join(args.build_dir,
                                                  "BENCH_kernel.json")]
                else:
                    cmd = [path, "--smoke"]
            else:
                cmd = [path, "--smoke"]
                for key, (owner, how) in BASELINES.items():
                    if owner == binary and how == "json":
                        cmd += ["--json", os.path.join(
                            args.build_dir, "BENCH_%s.json" % key)]
            jobs.append(Job(binary, "legacy", cmd, args.timeout))

    if args.only:
        pattern = re.compile(args.only)
        jobs = [j for j in jobs if pattern.search(j.name)]
    if not jobs:
        print("fleet.py: no jobs selected", file=sys.stderr)
        return 2

    # The baseline-gated rows (kernel events/s, P2 events/s) measure
    # wall-clock throughput; running them while the rest of the fleet
    # saturates the cores reads as a phantom regression. Under
    # --bench-compare those jobs run in a sequential second wave on an
    # otherwise idle machine.
    owners = {binary for binary, _ in BASELINES.values()}
    if args.bench_compare:
        wave1 = [j for j in jobs if j.name not in owners]
        wave2 = [j for j in jobs if j.name in owners]
    else:
        wave1, wave2 = jobs, []

    started = time.monotonic()
    print("== fleet: %d jobs (%d scenarios), %d workers%s ==" % (
        len(jobs), sum(1 for j in jobs if j.kind == "scenario"),
        args.jobs, " [smoke]" if args.smoke else ""))

    def report(job):
        status = "PASS" if job.ok else "FAIL(%s)" % job.rc
        print("%-8s %-28s %6.1fs  %s"
              % (status, job.name, job.seconds, job.kind))

    with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
        for job in pool.map(run_job, wave1):
            report(job)
    for job in wave2:
        report(run_job(job))

    failed = [j for j in jobs if not j.ok]
    for job in failed:
        print("\n---- %s (%s, rc=%s) ----" % (job.name, job.kind, job.rc))
        print(job.output.rstrip()[-4000:])

    compare_failures = 0
    if args.bench_compare:
        print("\n== fleet: baseline gate ==")
        threshold = float(os.environ.get("HNI_BENCH_THRESHOLD", "0.15"))
        census = args.smoke and not args.only
        if census:
            merge_census(
                [os.path.join(out_dir, "BENCH_%s.json" % j.name)
                 for j in jobs if j.kind == "scenario"],
                os.path.join(args.build_dir, "BENCH_%s.json" % CENSUS))
        else:
            print("-- event census gated only on the whole --smoke matrix")
        compare_failures = compare_baselines(args.build_dir, threshold,
                                             census)

    record = {
        "utc": datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"),
        "git": git_sha(),
        "smoke": args.smoke,
        "duration_s": round(time.monotonic() - started, 1),
        "jobs": len(jobs),
        "failed": sorted(j.name for j in failed),
        "scenarios": {},
    }
    for job in jobs:
        if job.kind != "scenario":
            continue
        entry = {"ok": job.ok, "plane": planes.get(job.name, "file"),
                 "seconds": round(job.seconds, 1)}
        entry.update(scenario_metrics(
            os.path.join(out_dir, "BENCH_%s.json" % job.name)))
        record["scenarios"][job.name] = entry
    if not args.no_trajectory:
        append_trajectory(
            os.path.join(REPO, "bench", "trajectory", "trajectory.jsonl"),
            record)

    total_bad = len(failed) + compare_failures
    print("\nfleet: %d/%d jobs passed%s in %.1fs" % (
        len(jobs) - len(failed), len(jobs),
        (", %d baseline regressions" % compare_failures)
        if compare_failures else "",
        record["duration_s"]))
    return 1 if total_bad else 0


if __name__ == "__main__":
    sys.exit(main())
