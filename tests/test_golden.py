"""Golden corpus reports: every bundled scenario at seeds 0 and 1.

The files under tests/golden/ pin the text and JSON reports byte for
byte, so a refactor that changes any verdict or detail line shows here.
Regenerate them (only when a report change is intended, and say why in
CHANGES.md) with:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

from pathlib import Path

import pytest

from algebroids.cli import corpus_scenarios, load_scenario
from algebroids.runner import run

GOLDEN = Path(__file__).parent / "golden"
SEEDS = (0, 1)
CASES = [(name, seed) for name in corpus_scenarios() for seed in SEEDS]


def _names(name: str, seed: int) -> tuple[str, str]:
    stem = f"{Path(name).stem}.seed{seed}"
    return f"{stem}.txt", f"{stem}.json"


def _reports(name: str, seed: int) -> dict[str, str]:
    rep = run(load_scenario(name), seed=seed, timings=False)
    txt, js = _names(name, seed)
    return {txt: rep.to_text() + "\n", js: rep.to_json() + "\n"}


def test_golden_set_complete():
    want = {f for name, seed in CASES for f in _names(name, seed)}
    assert {p.name for p in GOLDEN.iterdir()} == want


@pytest.mark.parametrize("name,seed", CASES)
def test_golden_report(name, seed):
    for fname, text in _reports(name, seed).items():
        assert text == (GOLDEN / fname).read_text(), fname


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, seed in CASES:
        for fname, text in _reports(name, seed).items():
            (GOLDEN / fname).write_text(text)
    print(f"wrote {2 * len(CASES)} files to {GOLDEN}")
