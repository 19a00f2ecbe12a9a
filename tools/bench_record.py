"""Write or check a committed benchmark record (`BENCH_<n>.json`).

    python tools/bench_record.py --parent DIR [--change DIR] --out BENCH_<n>.json
    python tools/bench_record.py --check

A record compares two checkouts, the parent commit and the change, from
the run records that `perfbench/run.py` leaves in each checkout's
`perfbench/results/`.  Run the untraced runs (`--trace 0`) as pairs: for
each seed one run of the parent and one of the change, back to back,
before the next seed starts.  Per workload of BENCHMARK.json the record
holds:

* for every end-to-end metric, each pair's two values by seed, the median
  of each side, the parent's quartiles, the number of pairs the change
  wins, and `gain_shown`: at least 10 pairs, the change better in at
  least 9 of every 10, and its median better than the parent's by more
  than the parent's interquartile range;
* every per-layer metric of BENCHMARK.json from the traced run
  (`--trace 1`) with the lowest seed, for both sides;
* the seeds, the `--seconds` of the runs and their share of wrong verdicts;
* `digests`: whether every change run's verdict digests equal the parent
  run's at the same seed and `--trace`, and the seeds at which they
  differ.  A difference is recorded, not refused: a change may move a
  verdict on purpose, and a reader weighs any gain against it.

Writing refuses, before any slow step, parent and change checkouts that
are not sibling directories with paths of equal length: the path is in
every module's `__file__` and in `sys.path`, so the two sides then differ
in their code alone.  It refuses a checkout in which `git rev-parse HEAD`
names no commit or that is not the top of its own git checkout (a copy
unpacked inside another checkout would name that one's commit), a run
that reported problems (`"correct": false`), whose
`src_lines` differ from its checkout's, or that is older than the newest
file under the checkout's `src/`; and a workload whose two sides differ in
seeds or `--seconds`, or whose untraced runs were not made as adjacent
pairs.  The record also holds the line count of `src/algebroids` and the
wall time of one tier-1 test run (`python -m pytest -q` with `src` on the
path) of both checkouts.  Timings are those of the host the runs were
made on; compare them only within one record.

`--check` reads every `BENCH_*.json` at the repository root and fails
unless each has, for both sides, the tier-1 time, the line count and a
value of every end-to-end metric of every workload of BENCHMARK.json.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
MIN_PAIRS = 10  # pairs a gain needs, of which the change wins 9 in 10


def src_lines(checkout: Path) -> int:
    """Lines of the library, counted as `perfbench/run.py` counts them."""
    return sum(len(p.read_text().splitlines()) for p in (checkout / "src" / "algebroids").rglob("*.py"))


def load_runs(checkout: Path) -> dict[tuple[str, int], list[dict]]:
    """(workload, trace) -> the run records of that checkout, by seed.

    Each record also gets `mtime`, the time its file was written."""
    lines = src_lines(checkout)
    sources = [p for p in (checkout / "src").rglob("*") if p.is_file() and p.suffix != ".pyc"]
    newest_src = max(p.stat().st_mtime for p in sources)
    runs: dict[tuple[str, int], list[dict]] = {}
    for path in sorted((checkout / "perfbench" / "results").glob("*.json")):
        rec = json.loads(path.read_text())
        rec["mtime"] = path.stat().st_mtime
        if rec["problems"]:
            raise SystemExit(f"{path}: the run reported problems: {rec['problems']}")
        if rec["src_lines"] != lines:
            raise SystemExit(f"{path}: run of {rec['src_lines']} source lines, the checkout has {lines}")
        if rec["mtime"] < newest_src:
            raise SystemExit(f"{path}: run older than the newest file under {checkout / 'src'}")
        runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r["seed"])
    return runs


def tier1_seconds(checkout: Path) -> float:
    env = {**os.environ, "PYTHONPATH": "src"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"tier-1 tests failed in {checkout}:\n{proc.stdout[-2000:]}")
    return round(elapsed, 2)


def commit(checkout: Path) -> str:
    """The commit checked out at `checkout`; refused when git names none,
    since a record that cannot name its commits cannot be re-run, and when
    `checkout` is not the top of its own checkout, whose commit git names."""
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    if not proc.stdout.strip():
        raise SystemExit(f"{checkout}: git rev-parse HEAD names no commit; record from a git checkout")
    top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=checkout, capture_output=True, text=True)
    if Path(top.stdout.strip()).resolve() != checkout.resolve():
        raise SystemExit(f"{checkout}: not the top of its own checkout, which is {top.stdout.strip()}")
    return proc.stdout.strip()


def matched(name: str, trace: int, runs: dict[str, dict]) -> dict[str, list[dict]]:
    """The runs of both sides, refused unless their seeds and seconds agree."""
    out = {side: runs[side].get((name, trace), []) for side in SIDES}
    seeds = {side: [r["seed"] for r in recs] for side, recs in out.items()}
    seconds = {side: {r["seconds"] for r in recs} for side, recs in out.items()}
    if seeds["parent"] != seeds["change"]:
        raise SystemExit(f"{name} --trace {trace}: parent seeds {seeds['parent']}, change seeds {seeds['change']}")
    if len(seconds["parent"] | seconds["change"]) > 1:
        raise SystemExit(f"{name} --trace {trace}: runs of different --seconds {seconds}")
    return out


def check_paired(name: str, plain: dict[str, list[dict]]) -> None:
    """Refuses untraced runs that were not made as back-to-back pairs."""
    order = sorted(((r["mtime"], side, r["seed"]) for side in SIDES for r in plain[side]))
    for (_, s1, seed1), (_, s2, seed2) in zip(order[::2], order[1::2]):
        if s1 == s2 or seed1 != seed2:
            raise SystemExit(f"{name}: untraced runs not made as parent/change pairs (seed {seed1}, {seed2})")


def metric_entry(m: dict, plain: dict[str, list[dict]]) -> dict:
    vals = {side: [r["metrics"][m["name"]]["value"] for r in plain[side]] for side in SIDES}
    sign = 1 if m["better"] == "lower" else -1
    entry = {"unit": m["unit"], "better": m["better"], "bound": m["bound"]}
    entry["pairs"] = {str(r["seed"]): [p, c] for r, p, c in zip(plain["parent"], vals["parent"], vals["change"])}
    for side in SIDES:
        entry[side] = statistics.median(vals[side])
    if entry["parent"]:
        entry["change_share"] = round(entry["change"] / entry["parent"] - 1, 4)
    n = len(vals["parent"])
    wins = sum(sign * (p - c) > 0 for p, c in zip(vals["parent"], vals["change"]))
    entry["wins"] = wins
    if n >= 2:
        q1, _, q3 = statistics.quantiles(vals["parent"], n=4, method="inclusive")
        entry["parent_quartiles"] = [q1, q3]
        gap = sign * (entry["parent"] - entry["change"])
        entry["gain_shown"] = n >= MIN_PAIRS and 10 * wins >= 9 * n and gap > q3 - q1
    else:
        entry["gain_shown"] = False
    return entry


def workload_record(spec: dict, name: str, runs: dict[str, dict]) -> dict:
    plain = matched(name, 0, runs)
    traced = matched(name, 1, runs)
    if not plain["parent"]:
        raise SystemExit(f"no untraced {name} runs")
    check_paired(name, plain)
    out: dict = {"runs": {}, "end_to_end": {}, "per_layer": {}}
    for side in SIDES:
        out["runs"][side] = {
            "seeds": [r["seed"] for r in plain[side]],
            "seconds": plain[side][0]["seconds"],
            "error_share": statistics.median(r["error_share"] for r in plain[side]),
            "traced_seed": traced[side][0]["seed"] if traced[side] else None,
        }
    differ = {
        p["seed"]
        for pair in (plain, traced)
        for p, c in zip(pair["parent"], pair["change"])
        if p["digests"] != c["digests"]
    }
    out["digests"] = {"equal": not differ, "differing_seeds": sorted(differ)}
    for m in spec["end_to_end"]:
        out["end_to_end"][m["name"]] = metric_entry(m, plain)
    for m in spec["per_layer"]:
        entry = {"unit": m["unit"]}
        for side in SIDES:
            entry[side] = traced[side][0]["metrics"][m["name"]]["value"] if traced[side] else None
        out["per_layer"][m["name"]] = entry
    return out


def write(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checkouts = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    parent, change = checkouts.values()
    if parent.parent != change.parent or len(str(parent)) != len(str(change)):
        raise SystemExit(f"{parent}, {change}: record from sibling checkouts whose paths are equal in length")
    commits = {side: commit(path) for side, path in checkouts.items()}
    runs = {side: load_runs(path) for side, path in checkouts.items()}
    workloads = {w["name"]: workload_record(spec, w["name"], runs) for w in spec["workloads"]}
    record = {
        "parent_commit": commits["parent"],
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "src_lines": {side: src_lines(path) for side, path in checkouts.items()},
        "tier1_s": {side: tier1_seconds(path) for side, path in checkouts.items()},
        "workloads": workloads,
    }
    out = ROOT / args.out
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    for name, wl in record["workloads"].items():
        same = wl["digests"]
        print(f"{name} digests: " + ("equal" if same["equal"] else f"differ at seeds {same['differing_seeds']}"))
        for metric, e in wl["end_to_end"].items():
            gain = ", gain shown" if e["gain_shown"] else ""
            print(
                f"{name} {metric}: {e['parent']:.4g} -> {e['change']:.4g} {e['unit']}"
                f" (change wins {e['wins']} of {len(e['pairs'])}{gain})"
            )
    return 0


def number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def check() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    files = sorted(ROOT.glob("BENCH_*.json"))
    problems = [] if files else ["no BENCH_*.json at the repository root"]
    for path in files:
        rec = json.loads(path.read_text())
        for key in ("tier1_s", "src_lines"):
            for side in SIDES:
                if not number((rec.get(key) or {}).get(side)):
                    problems.append(f"{path.name}: {key} has no {side} value")
        for w in spec["workloads"]:
            wl = rec.get("workloads", {}).get(w["name"])
            if wl is None:
                problems.append(f"{path.name}: workload {w['name']} missing")
                continue
            for m in spec["end_to_end"]:
                e = wl.get("end_to_end", {}).get(m["name"], {})
                for side in SIDES:
                    if not number(e.get(side)):
                        problems.append(f"{path.name}: {w['name']} {m['name']} has no {side} value")
    for line in problems:
        print(f"bench_record: {line}", file=sys.stderr)
    if not problems:
        print(f"{len(files)} record(s) cover every workload and end-to-end metric")
    return 1 if problems else 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", help="check the committed records and exit")
    ap.add_argument("--parent", help="checkout of the parent commit, with its perfbench/results/")
    ap.add_argument("--change", default=str(ROOT), help="checkout of the change (default: this one)")
    ap.add_argument("--out", help="record to write, e.g. BENCH_7.json")
    args = ap.parse_args(argv)
    if args.check:
        return check()
    if not (args.parent and args.out):
        ap.error("--parent and --out are needed to write a record")
    return write(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
