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
        git = ["git", "-C", str(tmp_path), "-c", "user.name=bench", "-c", "user.email=bench@example.invalid"]
        git += ["-c", "commit.gpgsign=false"]
        subprocess.run([*git, "init", "-q"], check=True)
        subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", "empty"], check=True)
        head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True, check=True)
        assert bench_record.commit(tmp_path) == head.stdout.strip()
