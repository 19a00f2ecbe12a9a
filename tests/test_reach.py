"""The collector of the reach sweep in `tools/reach.py`."""

import importlib.util
import sys
from pathlib import Path

from algebroids.symexpr import Chart

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reach.py"
spec = importlib.util.spec_from_file_location("reach", TOOL)
reach = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reach)

TINY = '''import functools


class Box:
    @property
    def size(self):
        return 1

    @functools.lru_cache(maxsize=None)
    def cached(self):
        return 2

    def never(self):
        return 3


def outer():
    def inner():
        return 4

    return inner()


def unused():
    pass
'''


def test_a_tiny_package_lists_what_a_call_never_enters(tmp_path):
    (tmp_path / "tiny.py").write_text(TINY)
    spec = importlib.util.spec_from_file_location("tiny", tmp_path / "tiny.py")
    tiny = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tiny)

    def run():
        box = tiny.Box()
        return box.size + box.cached() + tiny.outer()

    names = sorted(reach.defined(tmp_path).values())
    assert names == ["tiny.Box.cached", "tiny.Box.never", "tiny.Box.size", "tiny.outer", "tiny.outer.<locals>.inner", "tiny.unused"]
    # decorated methods are found at their first decorator, nested
    # functions by their own code
    assert reach.unreached(run, tmp_path) == ["tiny.Box.never", "tiny.unused"]


def test_the_library_is_traced_and_the_profile_restored():
    previous = sys.getprofile()
    got = reach.entered(lambda: Chart("R", ("x",)).coord("x"))
    assert sys.getprofile() is previous
    names = reach.defined()
    reached = {names[key] for key in got if key in names}
    assert "symexpr.Chart.coord" in reached
    assert "cohomology.classify" not in reached


def test_the_committed_list_gives_each_name_a_reason():
    names = set(reach.defined().values())
    listed = reach.listed()
    assert listed and all(listed.values())
    assert set(listed) <= names
    assert list(listed) == sorted(listed)


def test_the_list_reads_one_name_and_reason_per_line(tmp_path):
    path = tmp_path / "list.txt"
    path.write_text("# header\n\ncore.zero_form  # public constructor\nsymexpr.point_chart # kept\n")
    assert reach.listed(path) == {"core.zero_form": "public constructor", "symexpr.point_chart": "kept"}


def test_the_check_fails_unless_the_list_names_exactly_the_printed_names(tmp_path):
    path = tmp_path / "list.txt"
    path.write_text("cli.gone  # removed\ncore.zero_form  # kept\nsymexpr.point_chart  # kept\n")
    library = {"cli.new", "core.zero_form", "symexpr.point_chart"}
    where = reach.LISTED.relative_to(reach.ROOT)
    assert reach.differences(["cli.new", "core.zero_form"], reach.listed(path), library) == [
        f"unreached and not listed in {where}: cli.new",
        f"reached now, remove it from {where}: symexpr.point_chart",
        f"no longer defined, remove it from {where}: cli.gone",
    ]
    assert reach.differences(["core.zero_form", "symexpr.point_chart"], reach.listed(path), library | {"cli.gone"}) == [
        f"reached now, remove it from {where}: cli.gone"
    ]
    assert reach.differences(["core.zero_form"], ["core.zero_form"], library) == []
