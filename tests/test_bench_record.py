"""The benchmark record writer in `tools/bench_record.py`."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


class TestCommit:
    def test_a_directory_outside_git_is_refused_by_name(self, tmp_path):
        checkout = tmp_path / "parent"
        checkout.mkdir()
        with pytest.raises(SystemExit, match="parent: git rev-parse HEAD names no commit"):
            bench_record.commit(checkout)

    def test_a_checkout_names_its_commit(self, tmp_path):
        head = one_commit_repository(tmp_path)
        assert bench_record.commit(tmp_path) == head

    def test_a_directory_inside_a_checkout_is_refused(self, tmp_path):
        one_commit_repository(tmp_path)
        inner = tmp_path / "parent"
        inner.mkdir()
        with pytest.raises(SystemExit, match="parent: not the top of its own checkout"):
            bench_record.commit(inner)


def one_commit_repository(path) -> str:
    """Make a git repository with one empty commit at ``path``; its commit."""
    git = ["git", "-C", str(path), "-c", "user.name=bench", "-c", "user.email=bench@example.invalid"]
    git += ["-c", "commit.gpgsign=false"]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", "empty"], check=True)
    return subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True, check=True).stdout.strip()


class TestWrite:
    @pytest.mark.parametrize("parent, change", [("a/parent", "b/change"), ("parent", "change2")])
    def test_checkouts_must_be_siblings_with_paths_of_equal_length(self, tmp_path, parent, change):
        # refused before the checkouts are read: neither directory exists
        argv = ["--parent", str(tmp_path / parent), "--change", str(tmp_path / change), "--out", "BENCH_0.json"]
        with pytest.raises(SystemExit, match="sibling checkouts whose paths are equal in length"):
            bench_record.main(argv)


def entry(parent, change, better="lower", bound=0.24):
    """`metric_entry` of one metric over synthetic pairs, seeds from 1."""
    m = {"name": "wall_s", "unit": "s", "better": better, "bound": bound}
    runs = {
        side: [{"seed": i + 1, "metrics": {"wall_s": {"value": v}}} for i, v in enumerate(vals)]
        for side, vals in (("parent", parent), ("change", change))
    }
    return bench_record.metric_entry(m, runs)


TIGHT = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
WIDE = [0.6, 1.4, 0.7, 1.3, 1.0, 0.6, 1.4, 0.7, 1.3, 1.0]


class TestMetricEntry:
    def test_a_tight_parent_resolves_a_regression_beyond_the_bound(self):
        e = entry(TIGHT, [1.3 * v for v in TIGHT])
        assert e["regressed"] and not e["unresolved"] and not e["gain_shown"]

    def test_a_slower_change_within_the_bound_has_not_regressed(self):
        e = entry(TIGHT, [1.2 * v for v in TIGHT])
        assert not e["regressed"] and not e["unresolved"]

    def test_a_parent_spread_wider_than_the_bound_is_unresolved(self):
        e = entry(WIDE, WIDE[::-1])
        assert e["unresolved"] and not e["regressed"] and not e["gain_shown"]

    def test_a_change_that_beats_every_parent_run_is_resolved(self):
        e = entry(WIDE, [0.3] * 10)
        assert not e["unresolved"] and not e["regressed"] and e["gain_shown"]

    def test_worse_follows_the_better_direction(self):
        e = entry(TIGHT, [0.7 * v for v in TIGHT], better="higher")
        assert e["regressed"] and not e["unresolved"]
        e = entry(TIGHT, [0.7 * v for v in TIGHT])
        assert not e["regressed"] and e["gain_shown"]

    def test_one_pair_shows_no_spread(self):
        assert entry([1.0], [1.01])["unresolved"]
        assert not entry([1.0], [0.9])["unresolved"]
