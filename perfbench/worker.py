"""One fresh-interpreter workload pass, driven by run.py.

    python3 perfbench/worker.py corpus SCENARIO SEED [--trace]
    python3 perfbench/worker.py WORKLOAD SEED [--trace]
    python3 perfbench/worker.py warm

Set-up (importing `algebroids` and building the inputs through the
library) is timed first, then every verdict is timed on its own, one call
at a time.  A speed slice (`speed_slice`) is timed before set-up, after it
and after every verdict, so each timing has one right before and one
right after it; run.py scales the timings by them.  Prints one JSON object
on the last line of standard output.
"""

from __future__ import annotations

import hashlib
import json
import pkgutil
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_library(trace: bool):
    sys.path.insert(0, str(SRC))
    import algebroids

    if not Path(algebroids.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"algebroids imported from {algebroids.__file__}, not from {SRC}")
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    return tracer, time.perf_counter()


_SLICE_KEYS = dict.fromkeys(range(64), 0)


def speed_slice() -> float:
    """Seconds taken by a fixed slice of interpreter work: integer
    arithmetic and dict updates, about 0.8 ms on a 2 GHz Xeon.

    The slice touches no library code and allocates no container, so no
    garbage collection runs inside it; its time measures how fast the
    host runs Python at that moment.
    """
    acc = _SLICE_KEYS
    x = 1
    t0 = time.perf_counter()
    for i in range(4000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        k = x & 63
        acc[k] = acc[k] ^ i
    return time.perf_counter() - t0


def _timed(call):
    t0 = time.perf_counter()
    try:
        got = call()
    except Exception as e:  # a raised check is a verdict: "error"
        got = f"error: {type(e).__name__}: {e}"
    return got, time.perf_counter() - t0


def run_corpus(scenario: str, seed: int, trace: bool) -> dict:
    slices = [speed_slice()]
    t0 = time.perf_counter()
    tracer, t_traced = _import_library(trace)
    from algebroids import cli, runner

    sc = cli.load_scenario(scenario)
    setup = time.perf_counter() - t0
    slices.append(speed_slice())
    report = runner.run(sc, seed=seed, timings=True)
    slices.append(speed_slice())
    verdicts = []
    for r in report.results:
        # the runner times the assertions; they share the slices around the run
        verdicts.append([f"{sc.name}@{seed}#{r.index:02d}", r.verdict, "pass", r.elapsed, 1])
        r.elapsed = None  # timings are not part of the byte-identical report
    digest = hashlib.sha256((report.to_text() + report.to_json()).encode()).hexdigest()
    return _result(setup, slices, verdicts, {f"{sc.name}@{seed}": digest}, tracer, t_traced)


def run_generated(workload: str, seed: int, trace: bool) -> dict:
    slices = [speed_slice()]
    t0 = time.perf_counter()
    tracer, t_traced = _import_library(trace)
    import workloads  # after install(), so it binds the wrapped names

    cases = workloads.GENERATORS[workload](seed)
    setup = time.perf_counter() - t0
    slices.append(speed_slice())
    verdicts = []
    for n, case in enumerate(cases, start=1):
        got, dt = _timed(case.call)
        slices.append(speed_slice())
        # slices[n] was timed right before this verdict, slices[n + 1] right after
        verdicts.append([case.id, got, case.expect, dt, n])
    listing = json.dumps([[v[0], v[1]] for v in verdicts])
    digest = hashlib.sha256(listing.encode()).hexdigest()
    inputs = {}
    for case in cases:
        inputs.setdefault(case.kind, []).append(case.size)
    out = _result(setup, slices, verdicts, {workload: digest}, tracer, t_traced)
    out["inputs"] = inputs
    return out


def _result(setup_s, slices, verdicts, digests, tracer, t_traced) -> dict:
    """`verdicts` holds [id, verdict, expected, seconds, n]: the verdict
    was timed between slices[n] and slices[n + 1].  Set-up was timed
    between slices[0] and slices[1]."""
    out = {
        "setup_s": setup_s,
        "slices": slices,
        "verdicts": verdicts,
        "digests": digests,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        # the traced region runs from installing the tracer to here, less
        # the speed slices timed in it
        out["traced_s"] = time.perf_counter() - t_traced - sum(slices[1:])
        tracer.check_bound([m for n, m in sys.modules.items() if n.startswith("algebroids") or n == "workloads"])
        out["layers"] = tracer.snapshot()
        out["unwrapped"] = tracer.missing
    return out


def main(argv: list[str]) -> int:
    trace = "--trace" in argv
    args = [a for a in argv if not a.startswith("--")]
    sys.path.insert(0, str(HERE))
    if args[0] == "warm":
        _import_library(False)
        import algebroids
        import workloads  # noqa: F401

        for info in pkgutil.iter_modules(algebroids.__path__):
            __import__(f"algebroids.{info.name}")
        out = {}
    elif args[0] == "corpus":
        out = run_corpus(args[1], int(args[2]), trace)
    else:
        out = run_generated(args[0], int(args[1]), trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
