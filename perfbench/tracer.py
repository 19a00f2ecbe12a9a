"""Alias-safe span tracing of the library, installed from outside it.

Every public module-level function of every `algebroids` module, plus the
ring and calculus methods in `METHODS`, is replaced by a wrapper that
records a span: calls, total time, and self time (duration minus the
time covered by child spans).  Modules bind names at import (`cohomology.rat_solve`,
`pullback.scalar_det`, `cli.run`, ...), so the wrapper is installed in
every namespace that holds the original, not only the defining module;
modules imported after `install` bind the wrappers themselves.  The size
counters run after a span has closed, and their time is kept out of the
enclosing span's self time.

A call that re-enters the layer it is already in (the recursion of
`scalar_det`, or `-` calling `+`) belongs to the span it is in and is not a
new one.  Spans are kept as running totals in memory.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
import types

# (module, class) -> {method name: layer key}
METHODS = {
    ("symexpr", "ScalarFn"): {
        "__add__": "symexpr.add",
        "__radd__": "symexpr.add",
        "__sub__": "symexpr.add",
        "__rsub__": "symexpr.add",
        "__neg__": "symexpr.add",
        "__mul__": "symexpr.mul",
        "__rmul__": "symexpr.mul",
        "partial": "symexpr.partial",
        "substitute": "symexpr.substitute",
        "evaluate": "symexpr.evaluate",
    },
    ("core", "AlgebroidPresentation"): {"rho_apply": "core.rho_apply"},
    ("cohomology", "AnsatzSpace"): {"basis": "cohomology.basis"},
}


def _mul_size(stats, args, result):
    terms = getattr(result, "terms", None)
    if terms is not None:
        stats["terms_out"] += len(terms)


def _solve_size(stats, args, result):
    rows = args[0]
    stats["rows"] += len(rows)
    stats["cols"] += len(rows[0]) if rows else 0
    stats["nnz"] += sum(1 for row in rows for x in row if x != 0)


def _basis_size(stats, args, result):
    stats["size"] += len(result)


def _classify_outcome(stats, args, result):
    key = {"exact": "exact", "nonexact_certified": "certified"}.get(result.status, "unknown")
    stats[key] += 1


def _rank_method(stats, args, result):
    if result.data.get("method") == "exact":
        stats["exact"] += 1


# layer key -> (extra counters, function adding to them after each span)
SIZES = {
    "symexpr.mul": (("terms_out",), _mul_size),
    "ratlinalg.rat_solve": (("rows", "cols", "nnz"), _solve_size),
    "cohomology.basis": (("size",), _basis_size),
    "cohomology.classify": (("exact", "certified", "unknown"), _classify_outcome),
    "pullback.check_admissible": (("exact",), _rank_method),
    "pullback.check_transverse": (("exact",), _rank_method),
}


class TraceError(Exception):
    """A layer could not be wrapped, so it would go unmeasured."""


PACKAGE = "algebroids"


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.stack: list[list] = []
        self.wrappers: dict[int, object] = {}  # id(original) -> wrapper
        self.originals: dict[int, object] = {}
        self.missing: list[str] = []

    # -- wrapping --------------------------------------------------------

    def _wrap(self, key: str, fn):
        extra, sizer = SIZES.get(key, ((), None))
        stats = self.stats.setdefault(
            key, {"calls": 0, "self_s": 0.0, "total_s": 0.0, **{k: 0 for k in extra}}
        )
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == key:
                return fn(*args, **kwargs)
            frame = [key, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                end = clock()
                dur = end - frame[1]
                stats["self_s"] += dur - frame[2]
                stats["total_s"] += dur
                stats["calls"] += 1
                if stack:
                    stack[-1][2] += dur
            if sizer is not None:
                sizer(stats, args, result)
                if stack:
                    # sizing is tracing overhead, not the parent's own work
                    stack[-1][2] += clock() - end
            return result

        self.wrappers[id(fn)] = wrapper
        self.originals[id(fn)] = fn
        return wrapper

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        modules = [package] + [
            importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for name, obj in list(vars(mod).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    self._wrap(f"{short}.{name}", obj)
        for (short, cls_name), methods in METHODS.items():
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            cls = getattr(mod, cls_name, None)
            for meth, key in methods.items():
                fn = cls.__dict__.get(meth) if cls is not None else None
                if not isinstance(fn, types.FunctionType):
                    self.missing.append(f"{short}.{cls_name}.{meth}")
                    continue
                wrapper = self.wrappers.get(id(fn)) or self._wrap(key, fn)
                setattr(cls, meth, wrapper)
        for mod in modules:
            self.bind(mod)

    def bind(self, mod: types.ModuleType) -> None:
        """Point every name in `mod` that holds an original at its wrapper."""
        for name, obj in list(vars(mod).items()):
            wrapper = self.wrappers.get(id(obj))
            if wrapper is not None and self.originals[id(obj)] is obj:
                setattr(mod, name, wrapper)

    def check_bound(self, mods) -> None:
        """Raise if any namespace still holds an unwrapped original."""
        for mod in mods:
            for name, obj in vars(mod).items():
                if id(obj) in self.originals and self.originals[id(obj)] is obj:
                    raise TraceError(f"{mod.__name__}.{name} is not wrapped")

    # -- results ---------------------------------------------------------

    def snapshot(self) -> dict:
        return {key: dict(vals) for key, vals in sorted(self.stats.items())}
