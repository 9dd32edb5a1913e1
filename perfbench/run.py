#!/usr/bin/env python3
"""Benchmark command for the Duet simulator.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. Builds perfbench_driver from the
sources (an optimized build, plus a -pg build for traced runs) under
.bench_build/perfbench, runs one workload, checks the outputs, prints every
metric with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 makes the separate traced
run and reports the per-layer metrics. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
import uuid

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build", "perfbench")

DEFAULT_SEED = 42       # the seed EXPERIMENTS.md and duetsim use
PROFILE_EXPERIMENTS = 4  # experiments in the traced (-pg) window pass
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# Source directories under src/ that the profile splits time across.
PROFILE_LAYERS = ("sim", "block", "cache", "duet", "fs", "cowfs", "logfs",
                  "tasks", "workload", "obs", "util")
HOST_METRICS = {"run_s", "setup_s", "peak_rss_mib", "harness.calibrate_s",
                "harness.populate_s", "sim.host_ns_per_page_event",
                "trace.overhead_frac"}


def time_kind(name):
    """Whether a metric is measured in host time or in simulated time."""
    host = name in HOST_METRICS or name.endswith(("self_frac", "unmapped_frac"))
    return "host" if host else "sim"


def load_spec():
    """BENCHMARK.json: the workloads, the metrics with their units and
    directions, and run_seconds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchError(Exception):
    """A failure that leaves no result to print."""


# ---------------------------------------------------------------- building

def build(name, extra_flags):
    build_dir = os.path.join(BUILD_ROOT, name)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"] + extra_flags
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    commands = [] if os.path.exists(os.path.join(build_dir, "CMakeCache.txt")) \
        else [configure]
    commands.append(["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as out:
        for cmd in commands:
            rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                timeout=BUILD_TIMEOUT_S).returncode
            if rc != 0:
                raise BenchError(f"{name} build failed; see {log_path}")
    return os.path.join(build_dir, "perfbench_driver")


def build_all():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"simulator sources not found under {ROOT}/src")
    release = build("release", [])
    profiled = build("profile", [
        "-DCMAKE_CXX_FLAGS=-g -pg -fno-inline-functions -fno-omit-frame-pointer",
        "-DCMAKE_EXE_LINKER_FLAGS=-pg"])
    return release, profiled


def run_driver(binary, args, cwd=None):
    proc = subprocess.run([binary] + args, cwd=cwd, capture_output=True,
                          text=True, timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"driver failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------- metrics

def ratio(num, den):
    return num / den if den else 0.0


def experiment_run_s(experiments):
    """Mean over experiments of each experiment's median host seconds.
    Experiments whose every call failed a check have no timing to count."""
    medians = [statistics.median(e["run_s"]) for e in experiments if e["run_s"]]
    if not medians:
        raise BenchError("no call passed its checks")
    return statistics.fmean(medians)


def sim_metrics(out, experiments):
    """The four simulated end-to-end metrics over a list of experiments."""
    gc = out["fs"] == "logfs"
    if gc:
        cached = sum(e["gc_reads_cached"] for e in experiments)
        disk = sum(e["gc_reads_disk"] for e in experiments)
        io_saved = ratio(cached, cached + disk)
        # RunGc declares no work total; by the harness's convention
        # (MaintenanceRunResult::WorkCompletedFraction) that reads as 1.
        work_done = 1.0
        cleaned = sum(e["segments_cleaned"] for e in experiments)
        clean_ms = ratio(sum(e["gc_clean_ms"] * e["segments_cleaned"]
                             for e in experiments), cleaned)
    else:
        work = sum(e["work"] for e in experiments)
        io_saved = ratio(sum(min(e["saved_pages"], e["work"]) for e in experiments), work)
        work_done = ratio(sum(e["done"] for e in experiments), work)
        # Pooled over the experiments whose chunks the driver timed.
        clean_ms = ratio(sum(e["chunk_sim_ns"] for e in experiments) / 1e6,
                         sum(e["chunks"] for e in experiments))
    return {
        "io_saved_frac": io_saved,
        "work_done_frac": work_done,
        "fg_lat_p99_ms": statistics.fmean(e["lat_p99_us"] for e in experiments) / 1000,
        "gc_clean_ms": clean_ms,
    }


def end_to_end_metrics(out):
    window, setup = out["window"], out["setup"]
    metrics = {
        "run_s": experiment_run_s(window["experiments"]),
        "setup_s": statistics.median(setup["calibrate_s"]),
        "peak_rss_mib": out["peak_rss_mib"],
    }
    metrics.update(sim_metrics(out, window["experiments"]))
    return metrics


def layer_count_metrics(out):
    """Per-layer counts and ratios from the registry sums and result structs."""
    window, setup = out["window"], out["setup"]
    exps = window["experiments"]
    c = window["counters"]
    sc = setup["counters"]
    gc = out["fs"] == "logfs"
    page_events = c.get("cache.added", 0) + c.get("cache.removed", 0) + \
        c.get("cache.dirtied", 0) + c.get("cache.flushed", 0)
    populate_s = statistics.median(setup["populate_s"])
    window_host_s = sum(statistics.median(e["run_s"]) - populate_s
                        for e in exps if e["run_s"])
    hits, misses = c.get("cache.hits", 0), c.get("cache.misses", 0)
    gc_disk = sum(e["gc_reads_disk"] for e in exps)
    gc_cached = sum(e["gc_reads_cached"] for e in exps)
    task_sum = lambda suffix: sum(v for k, v in c.items()
                                  if k.startswith("tasks.") and k.endswith("." + suffix)
                                  and not k.startswith("tasks.total."))
    saved = gc_cached if gc else c.get("tasks.total.saved_pages", 0)
    mean_of = lambda key: statistics.fmean(e[key] for e in exps) / 1000
    return {
        "harness.calibrate_s": statistics.median(setup["calibrate_s"]),
        "harness.populate_s": populate_s,
        "setup.cache.added": sc.get("cache.added", 0),
        "setup.cache.evictions": sc.get("cache.evictions", 0),
        "setup.workload.ops_completed": sc.get("workload.ops.completed", 0),
        "sim.events_fired": c.get("sim.events.fired", 0),
        "sim.host_ns_per_page_event": ratio(window_host_s * 1e9, page_events),
        "block.submits": c.get("block.submits", 0),
        "block.read_lat_p50_ms": mean_of("read_p50_us"),
        "block.read_lat_p99_ms": mean_of("read_p99_us"),
        "block.write_lat_p99_ms": mean_of("write_p99_us"),
        "block.busy_frac": statistics.fmean(e["measured_util"] for e in exps),
        "block.failed_requests": c.get("block.failed.requests", 0),
        "cache.added": c.get("cache.added", 0),
        "cache.evictions": c.get("cache.evictions", 0),
        "cache.dirtied": c.get("cache.dirtied", 0),
        "cache.flushed": c.get("cache.flushed", 0),
        "cache.hit_frac": ratio(hits, hits + misses),
        "duet.hooks": c.get("duet.hooks", 0),
        "duet.events_delivered": c.get("duet.events.delivered", 0),
        "duet.items_fetched": c.get("duet.items.fetched", 0),
        "duet.fetch_calls": c.get("duet.fetch.calls", 0),
        "duet.events_dropped": c.get("duet.events.dropped", 0),
        "duet.useful_frac": ratio(saved, c.get("duet.items.fetched", 0)),
        "logfs.segments_cleaned": sum(e["segments_cleaned"] for e in exps),
        "logfs.scattered_writes": sum(e["scattered_writes"] for e in exps),
        "gc.reads_disk": gc_disk,
        "gc.reads_cached": gc_cached,
        "tasks.io_pages": gc_disk if gc else c.get("tasks.total.io_pages", 0),
        "tasks.saved_pages": saved,
        "tasks.fetch_calls": task_sum("fetch_calls"),
        "tasks.retries": task_sum("retries"),
        "workload.ops_issued": c.get("workload.ops.issued", 0),
        "workload.ops_completed": c.get("workload.ops.completed", 0),
        "workload.lat_p50_ms": mean_of("lat_p50_us"),
    }


def output_errors(metrics):
    """Checks on a run's metrics beyond the driver's own per-call checks."""
    errors = []
    for name, value in metrics.items():
        if not (math.isfinite(value) and value > 0):
            errors.append(f"{name} is {value}, expected a positive number")
    for name in ("io_saved_frac", "work_done_frac"):
        if metrics[name] > 1:
            errors.append(f"{name} is {metrics[name]} > 1")
    return errors


def check_reference(binary, out):
    """Every run of one workload and seed by one build must match the first.

    The first run stores its fingerprints and dump hashes; later runs in the
    same build tree compare against them. Returns a list of mismatches.
    """
    with open(binary, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    ref_dir = os.path.join(BUILD_ROOT, "refs", build_id)
    os.makedirs(ref_dir, exist_ok=True)
    path = os.path.join(ref_dir, f"{out['workload']}-{out['seed']}.json")
    record = {
        "setup": [out["setup"]["ops_per_sec"], out["setup"]["dump_hash"]],
        "experiments": [[e["seed"], e["fingerprint"], e["dump_hash"], e["chunk_sim_ns"],
                         e["chunks"]] for e in out["window"]["experiments"]],
    }
    if not os.path.exists(path):
        with open(path, "w") as f:
            json.dump(record, f)
        return []
    with open(path) as f:
        stored = json.load(f)
    return [] if stored == record else [
        f"outputs differ from an earlier run of seed {out['seed']} ({path})"]


# ------------------------------------------------------------------ tracing

def symbol_layers(binary):
    """Demangled function name -> layer, from the -pg binary's line info.
    Only functions defined in one of PROFILE_LAYERS get a layer."""
    proc = subprocess.run(["nm", "-C", "-l", "--defined-only", binary],
                          capture_output=True, text=True, check=True)
    layers = {}
    for line in proc.stdout.splitlines():
        parts = line.split(" ", 2)
        if len(parts) != 3 or parts[1] not in "tTwW" or "\t" not in parts[2]:
            continue
        name, location = parts[2].rsplit("\t", 1)
        rel = os.path.relpath(os.path.realpath(location.rsplit(":", 1)[0]),
                              os.path.realpath(ROOT)).split(os.sep)
        if rel[0] == "src" and len(rel) > 2 and rel[1] in PROFILE_LAYERS:
            layers[name] = rel[1]
    return layers


FLAT_ROW = re.compile(
    r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")


def flat_profile(binary, gmon):
    """[(self_seconds, function name)] from gprof's flat profile."""
    proc = subprocess.run(["gprof", "-b", "-p", binary, gmon],
                          capture_output=True, text=True, check=True)
    rows = []
    for line in proc.stdout.splitlines():
        m = FLAT_ROW.match(line)
        if m:
            rows.append((float(m.group(1)), m.group(2)))
    return rows


def layer_shares(binary, gmon, layers):
    """Share of profiled time per layer; 'unmapped' for every function
    outside PROFILE_LAYERS, so the shares sum to 1."""
    rows = flat_profile(binary, gmon)
    total = sum(s for s, _ in rows)
    if total <= 0:
        raise BenchError(f"empty profile in {gmon}")
    shares = {}
    for self_s, name in rows:
        layer = layers.get(name, "unmapped")
        shares[layer] = shares.get(layer, 0.0) + self_s / total
    return shares, total


def span_summary(spans):
    """Per span name: count, total and self host seconds (self = duration
    minus the part covered by child spans)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    summary = {}
    for s in spans:
        covered = sum(c["end_ns"] - c["start_ns"] for c in children.get(s["id"], []))
        entry = summary.setdefault(s["name"], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += (s["end_ns"] - s["start_ns"]) / 1e9
        entry[2] += (s["end_ns"] - s["start_ns"] - covered) / 1e9
    return summary


def traced_run(args, profiled, untraced):
    """The profiled set-up and window passes, with spans. Returns the
    per-layer profile metrics, the driver's errors, the failed checks of the
    traced outputs against the untraced ones, and the call counts."""
    run_id = uuid.uuid4().hex[:12]
    trace_dir = os.path.join(BUILD_ROOT, "traces", f"{args.workload}-{args.seed}-{run_id}")
    os.makedirs(trace_dir)
    spans = [{"id": 0, "parent": None, "name": "run", "start_ns": time.monotonic_ns()}]

    def process(name, driver_args):
        pdir = os.path.join(trace_dir, name)
        os.makedirs(pdir)
        span_file = os.path.join(pdir, "spans.json")
        pid = len(spans)
        spans.append({"id": pid, "parent": 0, "name": "process." + name,
                      "start_ns": time.monotonic_ns()})
        out = run_driver(profiled, driver_args + [f"--spans={span_file}"], cwd=pdir)
        spans[pid]["end_ns"] = time.monotonic_ns()
        with open(span_file) as f:
            for s in json.load(f):
                s.update(id=len(spans), parent=pid)
                spans.append(s)
        return out, os.path.join(pdir, "gmon.out")

    common = [f"--workload={args.workload}", f"--seed={args.seed}"]
    setup_out, setup_gmon = process("profile_setup", common + ["--phase=setup"])
    rate = untraced["setup"]
    window_out, window_gmon = process("profile_window", common + [
        "--phase=window", "--seconds=0", f"--experiments={PROFILE_EXPERIMENTS}",
        f"--rate={rate['ops_per_sec']!r}", f"--unthrottled={rate['unthrottled']}"])
    spans[0]["end_ns"] = time.monotonic_ns()
    for s in spans:
        s["run_id"] = run_id
    with open(os.path.join(trace_dir, "spans.json"), "w") as f:
        json.dump(spans, f)

    driver_errors = setup_out["errors"] + window_out["errors"]
    errors = []
    if (setup_out["setup"]["ops_per_sec"], setup_out["setup"]["dump_hash"]) != \
            (rate["ops_per_sec"], rate["dump_hash"]):
        errors.append("traced calibration differs from the untraced one")
    traced = window_out["window"]["experiments"]
    plain = untraced["window"]["experiments"][:len(traced)]
    if [(e["fingerprint"], e["dump_hash"]) for e in traced] != \
            [(e["fingerprint"], e["dump_hash"]) for e in plain]:
        errors.append("traced runs differ from the untraced runs")
    traced_sim = sim_metrics(window_out, traced)
    plain_sim = sim_metrics(untraced, plain)
    for name in traced_sim:
        if traced_sim[name] != plain_sim[name]:
            errors.append(f"traced {name} {traced_sim[name]!r} != untraced {plain_sim[name]!r}")

    layers = symbol_layers(profiled)
    metrics = {}
    print(f"\ntraced run {run_id}: spans in {trace_dir}/spans.json")
    for prefix, gmon in (("setup.", setup_gmon), ("", window_gmon)):
        shares, total = layer_shares(profiled, gmon, layers)
        phase = "set-up" if prefix else "window"
        ranked = sorted(shares.items(), key=lambda kv: -kv[1])
        print(f"  {phase} profile ({total:.2f} s sampled): " +
              ", ".join(f"{k} {v:.3f}" for k, v in ranked))
        print(f"  {phase} top layer: {ranked[0][0]}; unmapped share "
              f"{shares.get('unmapped', 0.0):.3f}")
        for layer in PROFILE_LAYERS:
            metrics[f"{prefix}{layer}.self_frac"] = shares.get(layer, 0.0)
        metrics[f"{prefix}prof.unmapped_frac"] = shares.get("unmapped", 0.0)
    untraced_s = experiment_run_s(plain)
    traced_s = experiment_run_s(traced)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1
    print(f"  run_s over the first {len(traced)} experiments: untraced {untraced_s:.4f} s, "
          f"traced {traced_s:.4f} s, overhead {metrics['trace.overhead_frac']:+.1%}")
    summary = span_summary(spans)
    print("  spans (count, total s, self s): " + "; ".join(
        f"{k} {n} {t:.3f} {s:.3f}" for k, (n, t, s) in sorted(summary.items())))
    attempted = setup_out["attempted"] + window_out["attempted"]
    failed = setup_out["failed"] + window_out["failed"]
    return metrics, driver_errors, errors, attempted, failed


# --------------------------------------------------------------------- main

def print_table(title, metrics, spec):
    print(title)
    for name, value in metrics.items():
        print(f"  {name:32s} {value:16.6f} {spec[name]['unit']:9s} {time_kind(name):4s}"
              f"  {spec[name]['better']} is better")


def main():
    try:
        spec = load_spec()
    except (OSError, ValueError) as err:
        print(f"perfbench: cannot read BENCHMARK.json: {err}", file=sys.stderr)
        return 1
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="window-phase length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        release, profiled = build_all()
        out = run_driver(release, [
            f"--workload={args.workload}", f"--seed={args.seed}",
            f"--seconds={args.seconds}"])
        e2e = end_to_end_metrics(out)
        checks = output_errors(e2e) + check_reference(release, out)
        errors = out["errors"] + checks
        attempted, failed = out["attempted"], out["failed"] + len(checks)
        print(f"workload {args.workload}, seed {args.seed}: "
              f"{len(out['window']['experiments'])} experiments, rate "
              f"{out['setup']['ops_per_sec']:.3f} ops/s")
        print_table("end-to-end metrics:", e2e, end_to_end)
        report, declared = e2e, end_to_end
        if args.trace:
            report, declared = layer_count_metrics(out), per_layer
            prof, driver_errors, checks, t_attempted, t_failed = traced_run(
                args, profiled, out)
            report.update(prof)
            errors += driver_errors + checks
            attempted += t_attempted
            failed += t_failed + len(checks)
            print_table("per-layer metrics:", report, per_layer)
        if set(report) != set(declared):
            raise BenchError("computed metrics differ from BENCHMARK.json: " +
                             ", ".join(sorted(set(report) ^ set(declared))))
    except (BenchError, subprocess.TimeoutExpired, subprocess.CalledProcessError,
            OSError, ValueError, KeyError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    for err in errors:
        print(f"check failed: {err}")
    result = {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": declared[name]["unit"]}
                    for name, value in report.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
