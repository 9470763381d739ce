#!/usr/bin/env python3
"""Perf-regression gate: compare a google-benchmark JSON run against a
committed baseline.

Usage:
  bench_compare.py BASELINE.json CANDIDATE.json [--threshold 0.15]

For every benchmark present in the baseline, the candidate must reach at
least (1 - threshold) of the baseline's throughput. Throughput is
items_per_second when the benchmark reports it, else 1/real_time.
Aggregate ("median" preferred, then "mean") rows are used when the run
has repetitions; raw single-run rows otherwise. A benchmark that exists
in the baseline but not in the candidate fails the gate: silently
dropping a measurement is how regressions hide.

Entries carrying "lower_is_better": true (e.g. bench_p2's bytes_per_vc
rows) gate the other direction: the candidate's "value" (falling back
to real_time) must not exceed baseline / (1 - threshold) — memory-per-VC
growth fails the gate the same way a throughput drop does.

Entries carrying "higher_is_better": true (e.g. bench_fleet's Jain
fairness-index rows) are plain scores, not rates: the "value" field is
compared directly, so a fairness index slipping more than the threshold
below its baseline fails the gate.

Entries carrying "exact": true (e.g. bench_fleet's event-census rows,
fleet/<scenario>/events_per_cell[/<layer>]) are deterministic counts:
the candidate's "value" must equal the baseline's, and any difference
fails, in either direction. The threshold does not apply: a count that
falls is a behaviour change to re-record, not noise to absorb. An exact
row that only the candidate has fails too, so a new scenario's census
is gated from the commit that adds it (rate rows only the candidate has
are ignored).

Both documents' machine ("context": host_name, num_cpus, mhz_per_cpu,
as google-benchmark records it) are printed when present. When a rate
row fails and the two machines differ, the output says so: a rate
recorded on another machine is not a like-for-like baseline. The note
changes no verdict.

Exit status: 0 = no regression, 1 = regression or missing benchmark,
2 = usage / unreadable input.
"""

import argparse
import json
import sys


def load_doc(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


HOST_KEYS = ("host_name", "num_cpus", "mhz_per_cpu")


def host_of(doc):
    """Returns the machine a document was recorded on, as a tuple of
    (key, value) pairs from its "context"; empty when it names none."""
    context = doc.get("context") or {}
    return tuple((k, context[k]) for k in HOST_KEYS if k in context)


def describe_host(host):
    return ", ".join(f"{k}={v}" for k, v in host) if host else "not recorded"


def load_exact(doc):
    """Returns {benchmark name: value} for the "exact": true rows."""
    return {b["name"]: float(b["value"])
            for b in doc.get("benchmarks", []) if b.get("exact")}


def load_rates(doc):
    """Returns {benchmark name: score} for one JSON document's
    thresholded rows, where score is a higher-is-better throughput —
    lower-is-better entries are stored as their reciprocal so one
    comparison rule covers both."""
    raw, aggregates = {}, {}
    for b in doc.get("benchmarks", []):
        if b.get("exact"):
            continue
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") not in ("median", "mean"):
                continue
            name = b["run_name"]
            # Median wins over mean when both are present.
            if name in aggregates and b["aggregate_name"] == "mean":
                continue
            aggregates[name] = rate_of(b)
        else:
            name = b.get("run_name", b["name"])
            # Repetitions of one benchmark: keep the best (noise on a
            # shared machine only ever subtracts).
            raw[name] = max(raw.get(name, 0.0), rate_of(b))
    return {**raw, **aggregates}


def rate_of(bench):
    if bench.get("lower_is_better"):
        value = float(bench.get("value", bench.get("real_time", 0.0)))
        return 1.0 / value if value > 0 else 0.0
    if bench.get("higher_is_better"):
        # A direct score (fairness index, retention ratio): no rate
        # reconstruction, the value itself is the figure of merit.
        return float(bench.get("value", 0.0))
    if "items_per_second" in bench:
        return float(bench["items_per_second"])
    rt = float(bench.get("real_time", 0.0))
    return 1e9 / rt if rt > 0 else 0.0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="max tolerated fractional regression (default 0.15)")
    args = ap.parse_args(argv)

    base_doc = load_doc(args.baseline)
    cand_doc = load_doc(args.candidate)
    base, base_exact = load_rates(base_doc), load_exact(base_doc)
    cand, cand_exact = load_rates(cand_doc), load_exact(cand_doc)
    if not base and not base_exact:
        print(f"bench_compare: no benchmarks in {args.baseline}",
              file=sys.stderr)
        sys.exit(2)

    base_host, cand_host = host_of(base_doc), host_of(cand_doc)
    if base_host or cand_host:
        print(f"baseline host:  {describe_host(base_host)}")
        print(f"candidate host: {describe_host(cand_host)}")

    failures = 0
    width = max(len(n) for n in [*base, *base_exact, *cand_exact])
    print(f"{'benchmark':<{width}}  {'baseline':>12} {'candidate':>12} "
          f"{'ratio':>7}  verdict")
    for name in sorted(base):
        if name not in cand:
            print(f"{name:<{width}}  {base[name]:12.3e} {'—':>12} {'—':>7}"
                  f"  MISSING")
            failures += 1
            continue
        ratio = cand[name] / base[name] if base[name] > 0 else float("inf")
        ok = ratio >= 1.0 - args.threshold
        verdict = "ok" if ok else f"REGRESSED (> {args.threshold:.0%})"
        print(f"{name:<{width}}  {base[name]:12.3e} {cand[name]:12.3e} "
              f"{ratio:7.2f}  {verdict}")
        failures += 0 if ok else 1
    rate_failures = failures
    for name in sorted(base_exact):
        if name not in cand_exact:
            print(f"{name:<{width}}  {base_exact[name]:12.6g} {'—':>12} "
                  f"{'—':>7}  MISSING")
            failures += 1
            continue
        ok = cand_exact[name] == base_exact[name]
        print(f"{name:<{width}}  {base_exact[name]:12.6g} "
              f"{cand_exact[name]:12.6g} {'exact':>7}  "
              f"{'ok' if ok else 'CHANGED (exact row)'}")
        failures += 0 if ok else 1
    for name in sorted(cand_exact.keys() - base_exact.keys()):
        print(f"{name:<{width}}  {'—':>12} {cand_exact[name]:12.6g} "
              f"{'exact':>7}  NEW (not in the baseline)")
        failures += 1

    if rate_failures and base_host and cand_host and base_host != cand_host:
        print("bench_compare: the baseline was recorded on another host "
              f"({describe_host(base_host)}); a failed rate row may "
              "measure the machine, not the change")
    if failures:
        print(f"bench_compare: {failures} benchmark(s) regressed beyond "
              f"{args.threshold:.0%} of baseline or changed an exact row",
              file=sys.stderr)
        return 1
    print("bench_compare: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
