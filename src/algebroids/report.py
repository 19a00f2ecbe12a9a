"""Structured pass/fail reports for verification operations.

Checks never throw on mathematical failure; they return a report listing
each residual (pretty-printed exactly) so a caller or the CLI can decide.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckItem:
    label: str
    ok: bool
    detail: str = ""


@dataclass
class CheckReport:
    title: str
    items: list[CheckItem] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(item.ok for item in self.items)

    def add(self, label: str, ok: bool, detail: str = "") -> None:
        self.items.append(CheckItem(label, bool(ok), detail))

    def residual(self, label: str, res) -> None:
        """An item that passes iff the exact residual ``res`` is zero,
        with the residual as its detail otherwise."""
        zero = res.is_zero()
        self.add(label, zero, "" if zero else str(res))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def merge(self, other: "CheckReport", prefix: str = "") -> None:
        for item in other.items:
            self.items.append(
                CheckItem(prefix + item.label if prefix else item.label, item.ok, item.detail)
            )
        self.notes.extend(other.notes)

    def pretty(self) -> str:
        lines = [f"[{'PASS' if self.passed else 'FAIL'}] {self.title}"]
        for item in self.items:
            mark = "ok " if item.ok else "FAIL"
            line = f"  {mark} {item.label}"
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
