"""Structured pass/fail reports for verification operations.

Checks never throw on mathematical failure; they return a report listing
each residual (pretty-printed exactly) so a caller or the CLI can decide.
An item holds, fails or is undecided (`ok` True, False or None: printed
`ok`, `FAIL` or `??`, and `null` in JSON), and so does the report.
A failing residual item holds the residual itself and formats it the
first time its `detail` is read, so a caller that reads only `passed`
formats nothing, and a report that is printed prints the same text.

A `Decision` is what every exact-or-undecided routine returns
(`cohomology.classify` and `cohomologous`, `ratlinalg.pointwise_rank`).
This module imports nothing from the package, so any layer can return one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

# the header mark of a report and the mark of an item, by outcome
_HEADS = {True: "PASS", False: "FAIL", None: "UNKNOWN"}
_MARKS = {True: "ok ", False: "FAIL", None: "??"}


class Decision(NamedTuple):
    """A three-valued answer: ``holds`` True, False or None (undecided), the
    ``status`` word that names it, and the ``evidence`` behind it (a
    primitive, a certificate or a witness; None when there is none)."""

    holds: Optional[bool]
    status: str
    evidence: object = None

    @property
    def verdict(self) -> str:
        """`status`, under the name the benchmark reads from `cohomologous`."""
        return self.status


class CheckItem:
    """One line of a report: a label, `ok` (True, False or None), a detail.

    ``detail`` may be given as a residual, which is formatted with `str`
    the first time `detail` is read and held after that.  Equality and repr
    read `detail`, so they are those of the item with the formatted string.
    """

    __slots__ = ("label", "ok", "_detail")
    __hash__ = None  # mutable, like a dataclass with eq

    def __init__(self, label: str, ok: bool | None, detail="") -> None:
        self.label = label
        self.ok = ok
        self._detail = detail

    @property
    def detail(self) -> str:
        if not isinstance(self._detail, str):
            self._detail = str(self._detail)
        return self._detail

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.label, self.ok, self.detail) == (other.label, other.ok, other.detail)

    def __repr__(self) -> str:
        return f"CheckItem(label={self.label!r}, ok={self.ok!r}, detail={self.detail!r})"


@dataclass
class CheckReport:
    title: str
    items: list[CheckItem] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool | None:
        """False if an item fails, else None if one is undecided, else True."""
        oks = {item.ok for item in self.items}
        return False if False in oks else None if None in oks else True

    def add(self, label: str, ok: bool | None, detail: str = "") -> None:
        self.items.append(CheckItem(label, None if ok is None else bool(ok), detail))

    def residual(self, label: str, res) -> None:
        """An item that passes iff the exact residual ``res`` is zero,
        with the residual as its detail otherwise."""
        zero = res.is_zero()
        self.add(label, zero, "" if zero else res)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def merge(self, other: "CheckReport", prefix: str = "") -> None:
        """Append ``other``'s items, labels prefixed, and its notes; a
        residual not formatted yet stays unformatted."""
        for item in other.items:
            self.items.append(CheckItem(prefix + item.label, item.ok, item._detail))
        self.notes.extend(other.notes)

    def pretty(self) -> str:
        lines = [f"[{_HEADS[self.passed]}] {self.title}"]
        for item in self.items:
            line = f"  {_MARKS[item.ok]} {item.label}"
            if item.detail:
                line += f": {item.detail}"
            lines.append(line)
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "items": [
                {"label": i.label, "ok": i.ok, "detail": i.detail} for i in self.items
            ],
            "notes": list(self.notes),
        }
