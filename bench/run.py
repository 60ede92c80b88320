"""Benchmark for projdetect: three cold-start workloads, timed end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs src/projdetect). The parent
generates the workload's operations from the seed, then runs repetitions,
each in a fresh child interpreter with BLAS threads pinned to 1, so the
library's unbounded caches start cold as on every CLI invocation. It is a
closed loop with one client: the child issues one operation at a time and
waits for it. Repetitions continue until --seconds have passed, with at
least the workload's MIN_REPS. Every answer is checked for its meaning after
timing.

The host is shared and its speed drifts by a quarter or more over minutes.
So every child also times a fixed speed kernel between operations, and each
time it reports is scaled to the reference speed by that child's
speed_scale, at the operation's kernel weight (workloads.kernel_weights).
The run record keeps the unscaled figures and each child's scale.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 untraced and traced repetitions alternate and it carries the
per-layer metrics from the spans the traced children record. The line
before it is the run record: environment, per-repetition figures and the
reason for every failed operation. Metric names and units come from
BENCHMARK.json at the checkout root.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer
import workloads
from child import monotonic_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

MIN_TRACED_REPS = 2
# Children that only set up, so setup_s is a median over several start-ups.
SETUP_PROBES = 8
RUN_BUDGET_S = 170
BLAS_PIN = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
TAIL_LEVELS = (0.9, 0.8, 0.75, 0.5)
TAIL_BEYOND = 10
# The speed kernel's interpreter and numpy halves at the reference speed,
# near their usual times on a 2-vCPU Xeon VM at 2.0 GHz. Changing them
# rescales every reported time.
REFERENCE_KERNEL_NS = (4_500_000, 4_500_000)
# Register bytes are 2^t * D * 16 per round, computed, not measured.
COMPUTED = ("qpe.register_bytes_max", "qpe.register_bytes_sum")


def tail_level(samples: int) -> float:
    """Highest level with at least TAIL_BEYOND samples above its nearest rank."""
    for q in TAIL_LEVELS:
        if samples - math.ceil(q * samples) >= TAIL_BEYOND:
            return q
    return TAIL_LEVELS[-1]


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Child:
    """Spawns measured children and keeps every run inside the time budget."""

    def __init__(self, started: float, argv: list[str] | None = None):
        self.started = started
        self.argv = argv or [sys.executable, str(HERE / "child.py")]
        self.env = dict(os.environ, **BLAS_PIN)

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.monotonic() - self.started)

    def run(self, request: dict) -> dict:
        spawn_ns = monotonic_ns()
        try:
            proc = subprocess.run(
                self.argv,
                input=json.dumps(request),
                capture_output=True,
                text=True,
                env=self.env,
                cwd=ROOT,
                timeout=max(1.0, self.remaining()),
            )
        except subprocess.TimeoutExpired:
            return {"crash": "child timed out"}
        wall = (monotonic_ns() - spawn_ns) / 1e9
        if proc.returncode != 0:
            return {"crash": f"child exit {proc.returncode}: {proc.stderr.strip()[-400:]}", "elapsed_s": wall}
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["setup_s"] = (report["ready_ns"] - spawn_ns) / 1e9
        report["elapsed_s"] = wall
        return report


def measure(ops: list[dict], seconds: int, trace: bool, workload: str) -> tuple[list[dict], list[dict]]:
    """Repetitions until `seconds` have passed; traced and untraced alternate under --trace 1."""
    child = Child(time.monotonic())
    spans = str(OUT_DIR / f"spans-{workload}.npz")
    # The set-up probes run first, so the first timed repetition does not
    # pay for a cold page cache.
    probes = []
    for _ in range(SETUP_PROBES):
        probe = child.run({"ops": ops, "trace": False, "spans": None, "setup_only": True})
        if "crash" not in probe:
            probes.append(probe)
    reps = []
    start = time.monotonic()
    while True:
        traced = trace and len(reps) % 2 == 1
        rep = child.run({"ops": ops, "trace": traced, "spans": spans if traced else None})
        rep["traced"] = traced
        if traced and "crash" not in rep:
            # read the spans now: the next traced child overwrites the file
            rep["layers"], rep["consistency"] = span_layers(spans, rep["trace"])
        reps.append(rep)
        if "crash" in rep:
            break
        plain = sum(1 for r in reps if not r["traced"])
        enough = plain >= (MIN_TRACED_REPS if trace else workloads.MIN_REPS[workload]) and (
            not trace or len(reps) - plain >= MIN_TRACED_REPS
        )
        last = rep["elapsed_s"]
        if enough and time.monotonic() - start + last > seconds:
            break
        if child.remaining() < 1.5 * last + 5:
            break
    return reps, probes


def judge(ops: list[dict], reps: list[dict]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    reasons = []
    for i, rep in enumerate(reps):
        attempted += len(ops)
        if "crash" in rep:
            failed += len(ops)
            reasons.append(f"rep {i}: {rep['crash']}")
            continue
        for j, (op, entry) in enumerate(zip(ops, rep["ops"])):
            reason = checks.check(op, entry)
            if reason:
                failed += 1
                reasons.append(f"rep {i} op {j} ({op['kind']} {op['args'].get('argv', '')}): {reason}")
    return attempted, failed, reasons


def speed_scale(rep: dict, weight: float) -> float:
    """Factor that states this child's times at the reference speed.

    Each kernel run gives a slowdown: `weight` times its interpreter half's
    over the reference, plus the rest times its numpy half's. The factor is
    one over the median slowdown.
    """
    py_ref, np_ref = REFERENCE_KERNEL_NS
    return 1 / statistics.median(weight * py / py_ref + (1 - weight) * np_ / np_ref for py, np_ in rep["kernel_ns"])


def latencies_ns(rep: dict, weights: list[float] | None) -> list[float]:
    """Each operation's latency; at the reference speed when `weights` gives each one's kernel weight."""
    if weights is None:
        return [e["ns"] for e in rep["ops"]]
    scales = {w: speed_scale(rep, w) for w in set(weights)}
    return [e["ns"] * scales[w] for e, w in zip(rep["ops"], weights)]


def wall_s(rep: dict, weights: list[float] | None) -> float:
    """Time spent in the repetition's operations, without the client's bookkeeping between them."""
    return sum(latencies_ns(rep, weights)) / 1e9


def timings(plain, starts, level, weights, setup_weight) -> tuple[dict, dict]:
    """The four time metrics at the reference speed, and unscaled."""

    def figures(scaled):
        op_weights = weights if scaled else None
        latencies = [ns / 1e6 for r in plain for ns in latencies_ns(r, op_weights)]
        return {
            "wall_s": statistics.median(wall_s(r, op_weights) for r in plain),
            "op_p50_ms": statistics.median(latencies),
            "op_tail_ms": nearest_rank(latencies, level),
            "setup_s": statistics.median(r["setup_s"] * (speed_scale(r, setup_weight) if scaled else 1) for r in starts),
        }

    return figures(True), figures(False)


def end_to_end(ops, reps, probes, attempted, failed, workload) -> tuple[dict, dict]:
    plain = [r for r in reps if "crash" not in r and not r["traced"]]
    starts = [r for r in reps if "crash" not in r] + probes
    level = tail_level(len(ops) * workloads.MIN_REPS[workload])
    weight = workloads.KERNEL_WEIGHT[workload]
    metrics, unscaled = timings(plain, starts, level, workloads.kernel_weights(workload, ops), weight)
    metrics["peak_rss_mb"] = statistics.median(r["maxrss_kb"] * 1024 / 1e6 for r in plain)
    metrics["pass_frac"] = 1 - failed / attempted
    detail = {
        "op_samples": sum(len(r["ops"]) for r in plain),
        "op_tail_level": level,
        "unscaled": unscaled,
        "kernel_weight": weight,
        "speed_scale_per_rep": [speed_scale(r, weight) for r in plain],
        "speed_scale_per_start": [speed_scale(r, weight) for r in starts],
        "setup_s_per_start": [r["setup_s"] for r in starts],
        "wall_s_per_rep": [wall_s(r, None) for r in plain],
        "fail_frac": failed / attempted,
    }
    return metrics, detail


def span_layers(path: str, trace: dict) -> tuple[dict, dict]:
    """Per-layer figures of one traced repetition, from its spans and counts."""
    import numpy as np

    with np.load(path) as z:
        names = [str(x) for x in z["names"]]
        name, parent = z["name"], z["parent"]
        dur = z["end"] - z["start"]
    index = np.arange(len(dur))
    has_parent = parent >= 0
    child_ns = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_ns = dur - child_ns
    root = np.where(has_parent, parent, index)
    while not np.array_equal(root, root[root]):
        root = root[root]
    op_id = names.index("bench.op")
    ops = np.nonzero(name == op_id)[0]
    op_ns = float(dur[ops].sum())
    calls = np.bincount(name, minlength=len(names))
    total = np.bincount(name, weights=dur, minlength=len(names))
    own = np.bincount(name, weights=self_ns, minlength=len(names))
    layers = {}
    for i, span in enumerate(names):
        layers[f"{span}.calls"] = int(calls[i])
        layers[f"{span}.total_s"] = total[i] / 1e9
        layers[f"{span}.self_s"] = own[i] / 1e9

    def share(*prefixes):
        return sum(own[i] for i, s in enumerate(names) if s.startswith(prefixes)) / op_ns

    muls = np.nonzero(name == names.index("groupalgebra.mul"))[0] if "groupalgebra.mul" in names else []
    layers["groupalgebra.first_mul_s"] = dur[muls[0]] / 1e9 if len(muls) else 0.0
    layers["trace.qpe_share"] = share("qpe.")
    layers["trace.centre_symgroup_share"] = share("centre.", "symgroup.")
    layers["trace.spans"] = len(dur)
    for key, value in trace["counters"].items():
        layers[key] = value
    layers.update(trace["maxima"])
    layers.update(trace["minima"])
    trials = trace["counters"].get("classical.trials", 0)
    if trials:
        layers["classical.correct_ratio"] = trace["counters"]["classical.correct"] / trials
    for cache, stats in trace["caches"].items():
        lookups = stats["hits"] + stats["misses"]
        layers[f"{cache}.cache_size"] = stats["size"]
        layers[f"{cache}.hit_ratio"] = stats["hits"] / lookups if lookups else 0.0
    return layers, {"spans_outside_ops": int(np.count_nonzero(~np.isin(root, ops)))}


def per_layer(reps: list[dict], wanted: list[str], workload: str, weights: list[float]) -> tuple[dict, dict]:
    traced = [r for r in reps if "crash" not in r and r["traced"]]
    plain = [r for r in reps if "crash" not in r and not r["traced"]]
    if not traced:
        raise RuntimeError("no traced repetition completed")
    rows = [rep["layers"] for rep in traced]
    absent = sorted({a for rep in traced for a in rep["trace"]["absent"]})
    hook_errors = {k: v for rep in traced for k, v in rep["trace"]["hook_errors"].items()}
    blind = tracer.blind_metrics(absent, hook_errors)
    unobserved = sorted({m for m in wanted if any(m not in row for row in rows)} - {"trace.overhead_s"} - blind)
    # A layer the workload never calls reads 0; a metric whose target is
    # absent or whose hook failed reads null, so it cannot pass for a gain.
    metrics = {
        m: None if m in blind else statistics.median(row.get(m, 0) for row in rows)
        for m in wanted
        if m != "trace.overhead_s"
    }
    overhead = statistics.median(wall_s(r, weights) for r in traced) - statistics.median(
        wall_s(r, weights) for r in plain
    )
    metrics["trace.overhead_s"] = overhead
    detail = {
        "unobserved": unobserved,
        "blind": sorted(blind & set(wanted)),
        "consistency": [rep["consistency"] for rep in traced],
        "absent": absent,
        "hook_errors": hook_errors,
        "computed": list(COMPUTED),
        "spans_file": str(OUT_DIR.name + "/" + f"spans-{workload}.npz"),
    }
    return metrics, detail


def trace_sound(detail: dict) -> bool:
    """No hook failed and every span lies under an operation."""
    return not detail["hook_errors"] and all(g["spans_outside_ops"] == 0 for g in detail["consistency"])


def environment(workload: str, seed: int, seconds: int, trace: int, numpy_version: str) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
            sha = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_pin": BLAS_PIN,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "projdetect" / "__init__.py").is_file():
        print(f"error: {ROOT} has no src/projdetect; run from a projdetect checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in spec[section]]
    units = {m["name"]: m["unit"] for m in spec[section]}

    ops = workloads.generate(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    reps, probes = measure(ops, args.seconds, bool(args.trace), args.workload)
    attempted, failed, reasons = judge(ops, reps)
    done = next((r for r in reps if "crash" not in r), None)
    record = {
        "env": environment(args.workload, args.seed, args.seconds, args.trace, done["numpy"] if done else None),
        "reps": len(reps),
        "ops_per_rep": len(ops),
        "failures": reasons[:20],
    }
    if not any("crash" not in r and not r["traced"] for r in reps):
        print("error: no untraced repetition completed", *reasons[:5], sep="\n", file=sys.stderr)
        return 1
    correct = failed == 0
    if args.trace:
        values, detail = per_layer(reps, wanted, args.workload, workloads.kernel_weights(args.workload, ops))
        correct = correct and trace_sound(detail)
    else:
        values, detail = end_to_end(ops, reps, probes, attempted, failed, args.workload)
    record.update(detail)
    missing = [m for m in wanted if m not in values]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
