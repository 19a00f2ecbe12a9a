"""Verdict benchmark for the algebroids library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, their reasons and the metrics are listed in BENCHMARK.json at
the repository root; README.md explains them.  The load is one
closed-loop caller: this process starts one fresh worker interpreter at
a time and waits for it.  Each worker makes one pass over the workload's
fixed input set, generated from the seed.  The number of passes is fixed
by the workload and --seconds alone (see `pass_count`), never by how fast
the code under test is, so two commits take the median of the same number
of timings.  Every timing is scaled to a reference host speed by the
speed slices timed around it (see `scaled`).

With --trace 0 the end-to-end metrics are measured; with --trace 1
untraced and traced passes alternate (at least two of each), which gives
the per-layer metrics, the tracing overhead and the counter drift check.
The last line of standard output is the JSON result; the full record of
the run is written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
SPEC_FILE = ROOT / "BENCHMARK.json"

MIN_VERDICTS = 100  # distinct verdicts per pass, so p90 has 10 beyond it
MIN_PASSES = 3  # timings per verdict, at the least, for its median
# Nominal seconds of one pass, fresh interpreter and set-up included, on a
# 2-vCPU x86-64 host with CPython 3.11.  A run makes seconds / PASS_SECONDS
# passes, so it lasts about --seconds on such a host.
PASS_SECONDS = {"ansatz": 6.0, "identities": 2.9, "rank": 4.2, "corpus": 12.0}
# Seconds of one speed slice (worker.speed_slice) that every timing is
# scaled to: a round figure near the slice's time on the 2 GHz Xeon VM the
# benchmark was built on, in the host's fast phases.  It fixes the unit.
REF_SLICE_S = 800e-6
CORPUS_SEEDS = 2  # scenario seeds per bundled scenario
DEADLINE_S = 170  # stop starting work after this, to exit within 180 s
# The load model is one thread issuing one call at a time; numpy's BLAS
# would otherwise start helper threads that spin on the second core.
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Runnable by name but not in BENCHMARK.json, so without a regression bound.
UNBOUNDED = {
    "corpus": "the 11 bundled scenarios at 2 seeds each via the CLI path, one fresh "
    "interpreter per run; too few 12-s passes fit in a run to hold the bounds",
}


# layers whose self time the trace predicts to be the majority of a workload
PREDICTED = {
    "corpus": ("ratlinalg.rat_solve", "cohomology.solve_exact"),
    "ansatz": ("ratlinalg.rat_solve", "cohomology.solve_exact"),
    "identities": "symexpr.",
    "rank": ("ratlinalg.scalar_det", "ratlinalg.float_rank", "symexpr.evaluate"),
}

# predicted call pattern: layer -> workloads where it must be called (> 0)
# and workloads where it must not be (= 0)
CALL_PATTERN = {
    "ratlinalg.rat_solve": ({"ansatz", "corpus"}, {"identities", "rank"}),
    "ratlinalg.scalar_det": ({"rank"}, set()),
    "symexpr.mul": ({"corpus", "ansatz", "identities", "rank"}, set()),
    "core.d_A": ({"corpus", "ansatz", "identities"}, set()),
    "ratlinalg.float_rank": ({"rank", "corpus"}, set()),
    "scenario.parse_scenario": ({"ansatz", "corpus"}, set()),
    "runner.run": ({"ansatz", "corpus"}, set()),
    "extensions.verify_regular_poisson": ({"ansatz", "corpus"}, set()),
}


def fail_setup(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def scaled(out: dict) -> dict:
    """Adds each timing scaled to the reference host speed.

    The shared host this benchmark was built on switches between a fast
    and a slow state every few milliseconds, and the share of slow time
    drifts over tens of seconds: one `ansatz` pass took 5.2 to 9.9 s.  A
    timing is therefore multiplied by REF_SLICE_S over the mean of the two
    speed slices timed right before and right after it, which sample the
    host's speed at that moment.  The slices run no library code, so a
    change to the library moves the scaled time as much as the measured
    one.
    """
    sl = out["slices"]

    def scale(dt: float, n: int) -> float:
        return dt * REF_SLICE_S / ((sl[n] + sl[n + 1]) / 2)

    out["setup_scaled_s"] = scale(out["setup_s"], 0)
    out["verdicts"] = [[vid, got, want, dt, scale(dt, n)] for vid, got, want, dt, n in out["verdicts"]]
    return out


def worker(args: list[str], started: float) -> dict:
    timeout = max(5.0, DEADLINE_S + 5 - (time.monotonic() - started))
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=WORKER_ENV,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} failed:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return scaled(out) if "slices" in out else out


def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, int(seconds / PASS_SECONDS[workload]))


def corpus_plan(seed: int) -> list[tuple[str, int]]:
    """Every bundled scenario, each at CORPUS_SEEDS scenario seeds derived
    from the workload seed."""
    names = sorted(p.name for p in (SRC / "algebroids" / "corpus").glob("*.scn"))
    return [
        (name, (seed * 7919 + 104729 * i + 15485863 * j) % 100003)
        for i, name in enumerate(names)
        for j in range(CORPUS_SEEDS)
    ]


def one_pass(workload: str, seed: int, trace: bool, started: float) -> dict:
    """One pass over the input set; corpus passes merge one worker per
    scenario and seed."""
    flag = ["--trace"] if trace else []
    if workload != "corpus":
        return worker([workload, str(seed), *flag], started)
    merged = {"setup_scaled_s": [], "verdicts": [], "digests": {}, "peak_rss_kb": 0}
    if trace:
        merged.update(traced_s=0.0, layers={}, unwrapped=[])
    for name, scn_seed in corpus_plan(seed):
        out = worker(["corpus", name, str(scn_seed), *flag], started)
        merged["setup_scaled_s"].append(out["setup_scaled_s"])
        merged["verdicts"] += out["verdicts"]
        merged["digests"].update(out["digests"])
        merged["peak_rss_kb"] = max(merged["peak_rss_kb"], out["peak_rss_kb"])
        if trace:
            merged["traced_s"] += out["traced_s"]
            merged["unwrapped"] = out["unwrapped"]
            for key, vals in out["layers"].items():
                acc = merged["layers"].setdefault(key, dict.fromkeys(vals, 0))
                for k, v in vals.items():
                    acc[k] += v
    return merged


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by linear interpolation."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def verdict_times(passes: list[dict]) -> dict[str, float]:
    """Each verdict's median scaled time over the passes of the run."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for vid, _, _, _, t in p["verdicts"]:
            times.setdefault(vid, []).append(t)
    return {vid: statistics.median(ts) for vid, ts in times.items()}


def judge(passes: list[dict]) -> tuple[int, int, list[dict], list[str]]:
    """Oracle and determinism check over all passes of a run.

    Returns (attempted, failed, wrong verdicts by input, mismatches).  A
    verdict fails when it raised or differs from its known answer; every
    pass must give the same verdicts and report digests as the first.
    """
    attempted = failed = 0
    wrong: dict[str, dict] = {}
    mismatches = []
    first = {v[0]: v[1] for v in passes[0]["verdicts"]}
    for n, p in enumerate(passes):
        for vid, got, expect, _, _ in p["verdicts"]:
            attempted += 1
            bad = got != expect
            if first.get(vid) != got:
                mismatches.append(f"pass {n}: {vid} gave {got!r}, pass 0 gave {first.get(vid)!r}")
                bad = True
            if bad:
                failed += 1
                wrong.setdefault(vid, {"input": vid, "expect": expect, "got": got})
        if p["digests"] != passes[0]["digests"]:
            mismatches.append(f"pass {n}: report digests differ from pass 0")
    return attempted, failed, list(wrong.values()), mismatches


def size_ranges(inputs: dict) -> dict:
    out = {}
    for kind, sizes in inputs.items():
        entry = {"count": len(sizes)}
        for key in sizes[0]:
            vals = [s[key] for s in sizes]
            if all(isinstance(v, (int, float)) for v in vals):
                entry[key] = [min(vals), max(vals)]
            elif all(isinstance(v, list) for v in vals):
                entry[key] = sorted({tuple(v) for v in vals})
            else:
                entry[key] = sorted(set(vals))
        out[kind] = entry
    return out


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "algebroids").rglob("*.py"))


def layer_metrics(names: list[str], workload: str, layers: dict, traced_s: float) -> dict:
    """Every per-layer metric of BENCHMARK.json: `<layer>.<counter>` read
    from the trace, plus the derived shares."""

    def get(key, field):
        return layers.get(key, {}).get(field, 0)

    classified = get("cohomology.classify", "calls")
    rank_calls = get("pullback.check_admissible", "calls") + get("pullback.check_transverse", "calls")
    rank_exact = get("pullback.check_admissible", "exact") + get("pullback.check_transverse", "exact")
    derived = {
        "cohomology.unknown_share": get("cohomology.classify", "unknown") / classified if classified else 0.0,
        "pullback.exact_share": rank_exact / rank_calls if rank_calls else 0.0,
        "trace.predicted_share": predicted_self(workload, layers) / traced_s,
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        elif name != "trace.overhead_share":
            key, _, field = name.rpartition(".")
            out[name] = get(key, field)
    return out


def predicted_self(workload: str, layers: dict) -> float:
    """Self time of the layers predicted to dominate the workload."""
    want = PREDICTED[workload]
    if isinstance(want, str):
        return sum(v["self_s"] for k, v in layers.items() if k.startswith(want))
    return sum(layers.get(k, {}).get("self_s", 0.0) for k in want)


def counters(layers: dict) -> dict:
    """The deterministic part of a trace: everything but times."""
    return {k: {f: v for f, v in vals.items() if not f.endswith("_s")} for k, vals in layers.items()}


def measure(workload: str, seed: int, seconds: float, started: float) -> tuple[dict, list[dict], dict]:
    passes: list[dict] = []
    for _ in range(pass_count(workload, seconds)):
        # only code several times slower than the nominal pass stops early
        if len(passes) >= MIN_PASSES and time.monotonic() - started > DEADLINE_S / 2:
            break
        passes.append(one_pass(workload, seed, False, started))
    # a CLI user pays corpus set-up once per scenario run: one sample per worker
    if workload == "corpus":
        setups = [t for p in passes for t in p["setup_scaled_s"]]
    else:
        setups = [p["setup_scaled_s"] for p in passes]
    times_ms = {vid: t * 1000 for vid, t in verdict_times(passes).items()}
    latencies_ms = list(times_ms.values())
    metrics = {
        "wall_s": (sum(latencies_ms) / 1000, "s"),
        "verdict_p50_ms": (percentile(latencies_ms, 50), "ms"),
        "verdict_p90_ms": (percentile(latencies_ms, 90), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_kb"] for p in passes) / 1024, "MB"),
    }
    extra = {
        "passes": len(passes),
        "verdict_samples": len(latencies_ms),
        "setup_scaled_samples": setups,
        "pass_measured_s": [sum(v[3] for v in p["verdicts"]) for p in passes],
        "pass_slice_median_ms": [statistics.median(p["slices"]) * 1000 for p in passes if "slices" in p],
        "verdict_ms": times_ms,
    }
    if len(latencies_ms) < MIN_VERDICTS:
        extra["problems"] = [f"only {len(latencies_ms)} distinct verdicts; p90 has fewer than 10 beyond it"]
    return metrics, passes, extra


def measure_traced(
    spec: dict, workload: str, seed: int, seconds: float, started: float
) -> tuple[dict, list[dict], dict]:
    """Untraced and traced passes alternate, at least two of each."""
    plain: list[dict] = []
    traced: list[dict] = []
    for _ in range(max(2, pass_count(workload, seconds) // 2)):
        if len(traced) >= 2 and time.monotonic() - started > DEADLINE_S / 2:
            break
        plain.append(one_pass(workload, seed, False, started))
        traced.append(one_pass(workload, seed, True, started))
    drift = any(counters(t["layers"]) != counters(traced[0]["layers"]) for t in traced)
    layers = {}
    for key, vals in traced[0]["layers"].items():
        layers[key] = dict(vals)
        for f in ("self_s", "total_s"):
            layers[key][f] = statistics.median(t["layers"][key][f] for t in traced)
    traced_s = statistics.median(t["traced_s"] for t in traced)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    values = layer_metrics(list(units), workload, layers, traced_s)
    values["trace.overhead_share"] = sum(verdict_times(traced).values()) / sum(verdict_times(plain).values()) - 1
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    problems = []
    if drift:
        problems.append("deterministic counters drifted between traced passes")
    if traced[0]["unwrapped"]:
        problems.append(f"layers not wrapped: {traced[0]['unwrapped']}")
    for key, (called, silent) in CALL_PATTERN.items():
        calls = layers.get(key, {}).get("calls", 0)
        if workload in called and calls == 0:
            problems.append(f"{key} made no calls on {workload}; the layer went unmeasured")
        if workload in silent and calls != 0:
            problems.append(f"{key} made {calls} calls on {workload}, predicted 0")
    extra = {
        "layers": layers,
        "counters": counters(traced[0]["layers"]),
        "traced_s": traced_s,
        "predicted_layers": PREDICTED[workload],
        "predicted_majority": values["trace.predicted_share"] > 0.5,
        "problems": problems,
        "passes": {"untraced": len(plain), "traced": len(traced)},
    }
    return metrics, [*plain, *traced], extra


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    if not (SRC / "algebroids" / "__init__.py").is_file():
        return fail_setup(f"library sources not found under {SRC}")
    spec = json.loads(SPEC_FILE.read_text())
    why = {**UNBOUNDED, **{w["name"]: w["why"] for w in spec["workloads"]}}
    if args.workload not in why:
        return fail_setup(f"unknown workload {args.workload!r}; choose from {sorted(why)}")
    try:
        worker(["warm"], started)  # byte-compiles every module before timing
        if args.trace:
            metrics, passes, extra = measure_traced(spec, args.workload, args.seed, args.seconds, started)
        else:
            metrics, passes, extra = measure(args.workload, args.seed, args.seconds, started)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        return fail_setup(str(e))
    attempted, failed, wrong, mismatches = judge(passes)
    problems = mismatches + extra.pop("problems", [])
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(wanted) != sorted(metrics):
        problems.append(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(wanted)}")
    record = {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one caller, one worker process at a time",
        "attempted": attempted,
        "failed": failed,
        "error_share": failed / attempted,
        "wrong_verdicts": wrong,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "digests": passes[0]["digests"],
        "inputs": size_ranges(passes[0]["inputs"]) if "inputs" in passes[0] else {
            "scenario_runs": sorted(passes[0]["digests"]),
            "assertions": len(passes[0]["verdicts"]),
        },
        "src_lines": src_lines(),
        **extra,
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2, sort_keys=True, default=str) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} error_share = {failed}/{attempted} = {failed / attempted:.4g}")
    for line in problems:
        print(f"perfbench: {line}", file=sys.stderr)
    print(f"record: {out_file.relative_to(ROOT)}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
