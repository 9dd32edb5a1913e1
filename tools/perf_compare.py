#!/usr/bin/env python3
"""Compare two perf_runner JSON outputs and fail on regression.

Usage: perf_compare.py BASELINE.json CURRENT.json [--tolerance 0.25]

For every measurement present in both files:
  * the wall-clock time may grow by at most `tolerance` (default 25%)
    relative to the baseline;
  * `peak_descriptor_bytes` may not grow at all. The simulated work is
    deterministic, so this number is the same on every host and any growth
    is a change in the code (for example, descriptors that are never freed).
  * `probe_sim_ms`, the simulated milliseconds of the calibration probes
    behind a row, may not grow at all either, for the same reason (for
    example, probes that no longer stop once their answer is known).

Measurements that got faster or smaller, or that exist on only one side,
never fail the check (new measurements start gating once they land in the
refreshed baseline).

Wall-clock on shared CI runners is noisy; the default tolerance is chosen so
only a real hot-path regression (not scheduler jitter) trips it. Refresh the
baseline with `perf_runner --long --out bench/BENCH_hotpath.json` after an
intentional perf change.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    return {m["name"]: m for m in doc.get("measurements", [])}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional wall-clock growth (default 0.25)")
    args = parser.parse_args()

    base = load(args.baseline)
    cur = load(args.current)

    failures = []
    rows = []
    for name, b in base.items():
        c = cur.get(name)
        if c is None:
            rows.append((name, b["wall_ms"], None, None, "missing (skipped)"))
            continue
        ratio = c["wall_ms"] / b["wall_ms"] if b["wall_ms"] > 0 else 1.0
        problems = []
        if ratio > 1.0 + args.tolerance:
            problems.append("REGRESSION")
        for field, label in (("peak_descriptor_bytes", "DESCRIPTOR BYTES"),
                             ("probe_sim_ms", "PROBE SIM MS")):
            b_work = b.get(field, 0)
            c_work = c.get(field, 0)
            if c_work > b_work:
                problems.append(f"{label} {b_work} -> {c_work}")
        if problems:
            failures.append(name)
        rows.append((name, b["wall_ms"], c["wall_ms"], ratio,
                     ", ".join(problems) or "ok"))
    for name in cur:
        if name not in base:
            rows.append((name, None, cur[name]["wall_ms"], None, "new (not gated)"))

    print(f"{'measurement':38} {'base ms':>10} {'cur ms':>10} {'ratio':>7}  verdict")
    for name, b_ms, c_ms, ratio, verdict in rows:
        b_s = f"{b_ms:.2f}" if b_ms is not None else "-"
        c_s = f"{c_ms:.2f}" if c_ms is not None else "-"
        r_s = f"{ratio:.3f}" if ratio is not None else "-"
        print(f"{name:38} {b_s:>10} {c_s:>10} {r_s:>7}  {verdict}")

    if failures:
        print(f"\nFAIL: {len(failures)} measurement(s) regressed (wall-clock "
              f"beyond {args.tolerance * 100:.0f}%, or peak descriptor bytes "
              f"or probe sim ms grown): {', '.join(failures)}")
        return 1
    print("\nOK: no wall-clock regression beyond tolerance, no descriptor or "
          "probe growth")
    return 0


if __name__ == "__main__":
    sys.exit(main())
