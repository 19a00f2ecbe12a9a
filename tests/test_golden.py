"""Golden corpus reports: every bundled scenario at seeds 0 and 1.

The files under tests/golden/ pin the text and JSON reports byte for
byte, so a refactor that changes any verdict or detail line shows here.
Regenerate them (only when a report change is intended, and say why in
CHANGES.md) with:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import importlib
import json
import pkgutil
from pathlib import Path

import pytest

import algebroids
import algebroids.cohomology as cohomology
import algebroids.ratlinalg as ratlinalg
from algebroids.cli import corpus_scenarios, load_scenario
from algebroids.runner import run
from test_golden_cli import COMMANDS, _fname, _output
from test_golden_cli import GOLDEN as CLI_GOLDEN

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


@pytest.fixture
def operator_route(monkeypatch):
    """Every class through `solve_exact` and every circle section through
    `rat_solve`: no algebroid reads as tangent."""
    monkeypatch.setattr(cohomology, "is_tangent", lambda a: False)


@pytest.mark.parametrize("name", corpus_scenarios())
def test_golden_report_on_the_operator_route(name, operator_route):
    """The tangent shortcuts (integration, read circle sections) never
    show in a report."""
    for fname, text in _reports(name, 0).items():
        assert text == (GOLDEN / fname).read_text(), fname


@pytest.mark.parametrize("stem", [s for s in COMMANDS if s.split(".")[0] in ("modular", "relmod", "char")])
@pytest.mark.parametrize("fmt", ("text", "json"))
def test_golden_cli_output_on_the_operator_route(stem, fmt, operator_route):
    assert _output(stem, fmt) == (CLI_GOLDEN / _fname(stem, fmt)).read_text()


@pytest.mark.parametrize("name", corpus_scenarios())
def test_reports_do_not_depend_on_the_seed(name):
    """Past the seed in the text header and the JSON "seed" key, the seed-0
    and seed-1 reports are equal: no sampled value reaches a report line."""
    texts, payloads = [], []
    for seed in SEEDS:
        txt, js = _names(name, seed)
        texts.append((GOLDEN / txt).read_text().split("\n", 1)[1])
        payload = json.loads((GOLDEN / js).read_text())
        assert payload.pop("seed") == seed
        payloads.append(payload)
    assert texts[0] == texts[1]
    assert payloads[0] == payloads[1]


# Ratchet: over a corpus run at seed 0, the most `sampled_ranks` calls (all
# of them `check_extension`'s), the most `pointwise_rank` verdicts left
# uncertified and the most `classify` results that the ansatz leaves
# undecided.  A change that lowers a count lowers its constant; the end
# state is 0 for all three.
MAX_SAMPLED_RANKS = 11
MAX_UNCERTIFIED_RANKS = 0
MAX_UNDECIDED_CLASSES = 3


def test_the_corpus_samples_and_leaves_undecided_no_more_than_before(monkeypatch):
    counts = {"sampled_ranks": 0, "uncertified ranks": 0, "undecided classes": 0}
    sampled_ranks, pointwise_rank, classify = ratlinalg.sampled_ranks, ratlinalg.pointwise_rank, cohomology.classify

    def sampling(*args, **kwargs):
        counts["sampled_ranks"] += 1
        return sampled_ranks(*args, **kwargs)

    def ranking(*args, **kwargs):
        verdict = pointwise_rank(*args, **kwargs)
        counts["uncertified ranks"] += verdict.method == "uncertified"
        return verdict

    def classifying(*args, **kwargs):
        cls = classify(*args, **kwargs)
        counts["undecided classes"] += cls.status == "nonexact_in_ansatz"
        return cls

    # wrap each name where a library module binds it
    for info in pkgutil.iter_modules(algebroids.__path__):
        module = importlib.import_module(f"algebroids.{info.name}")
        for real, wrapper in ((sampled_ranks, sampling), (pointwise_rank, ranking), (classify, classifying)):
            if getattr(module, real.__name__, None) is real:
                monkeypatch.setattr(module, real.__name__, wrapper)
    for name in corpus_scenarios():
        run(load_scenario(name), seed=0)
    assert counts["sampled_ranks"] <= MAX_SAMPLED_RANKS, counts
    assert counts["uncertified ranks"] <= MAX_UNCERTIFIED_RANKS, counts
    assert counts["undecided classes"] <= MAX_UNDECIDED_CLASSES, counts


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, seed in CASES:
        for fname, text in _reports(name, seed).items():
            (GOLDEN / fname).write_text(text)
    print(f"wrote {2 * len(CASES)} files to {GOLDEN}")
