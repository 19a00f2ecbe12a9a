"""Report items: residuals are formatted when their detail is read."""

import pytest

from algebroids import core, symexpr
from algebroids.core import AlgebroidPresentation, check_axioms, one_form
from algebroids.report import CheckItem, CheckReport
from algebroids.symexpr import Chart


def broken_algebroid():
    """[a, b] = a with anchors d/dx and d/dy: the anchor is no homomorphism,
    so several residuals of `check_axioms` are non-zero."""
    R2 = Chart("R2", ("x", "y"))
    one, zero = R2.one(), R2.zero()
    return AlgebroidPresentation("X", R2, ("a", "b"), [[one, zero], [zero, one]], {(0, 1): {0: one}})


@pytest.fixture
def formatted(monkeypatch):
    """The number of top-level `str` calls on forms and functions."""
    calls = []
    depth = [0]
    for cls in (core._AltTable, symexpr.ScalarFn):
        def counted(self, fmt=cls.__str__):
            if not depth[0]:
                calls.append(self)
            depth[0] += 1
            try:
                return fmt(self)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(cls, "__str__", counted)
    return calls


READS = {
    "detail": lambda rep: [item.detail for item in rep.items],
    "pretty": lambda rep: rep.pretty(),
    "to_dict": lambda rep: rep.to_dict(),
}


class TestResidualItems:
    @pytest.mark.parametrize("read", sorted(READS))
    def test_a_failing_report_formats_only_when_read(self, formatted, read):
        rep = check_axioms(broken_algebroid())
        assert not rep.passed
        failing = [item for item in rep.items if not item.ok]
        assert len(failing) >= 2
        assert formatted == []
        READS[read](rep)
        assert len(formatted) == len(failing)
        details = [item.detail for item in failing]
        assert all(details)
        assert [item.detail for item in failing] == details
        assert all(item.detail is d for item, d in zip(failing, details))
        assert len(formatted) == len(failing)

    def test_the_printed_report_is_that_of_the_formatted_residuals(self):
        rep = check_axioms(broken_algebroid())
        eager = CheckReport(rep.title, [CheckItem(i.label, i.ok, str(i._detail)) for i in rep.items])
        assert rep.pretty() == eager.pretty()
        assert rep.to_dict() == eager.to_dict()

    def test_a_merged_report_keeps_its_details(self, formatted):
        inner = check_axioms(broken_algebroid())
        rep = CheckReport("outer")
        rep.merge(inner, prefix="X: ")
        assert formatted == []
        assert [(i.label, i.ok, i.detail) for i in rep.items] == [
            ("X: " + i.label, i.ok, i.detail) for i in inner.items
        ]
        assert rep.pretty().splitlines()[1:] == [
            line.replace("  ok  ", "  ok  X: ").replace("  FAIL ", "  FAIL X: ")
            for line in inner.pretty().splitlines()[1:]
        ]


class TestCheckItem:
    def test_equality_and_repr(self):
        item = CheckItem("a", False, "x")
        assert item == CheckItem("a", False, "x")
        assert item != CheckItem("a", True, "x")
        assert item != CheckItem("a", False, "y")
        assert item != ("a", False, "x")
        assert repr(item) == "CheckItem(label='a', ok=False, detail='x')"
        assert CheckItem("b", True) == CheckItem("b", True, "")
        assert repr(CheckItem("b", True)) == "CheckItem(label='b', ok=True, detail='')"
        with pytest.raises(TypeError):
            hash(item)

    def test_a_residual_item_is_its_formatted_item(self):
        a = broken_algebroid()
        res = one_form(a, [a.chart.coord("x"), a.chart.one()])
        item = CheckItem("r", False, res)
        assert item == CheckItem("r", False, str(res))
        assert repr(item) == repr(CheckItem("r", False, str(res)))
        assert item.detail == str(res)


class TestUndecidedItems:
    def test_a_failure_outweighs_an_undecided_item(self):
        rep = CheckReport("three values")
        assert rep.passed is True
        rep.add("holds", 1)
        assert rep.passed is True
        rep.add("undecided", None)
        assert rep.passed is None
        rep.add("fails", 0)
        assert rep.passed is False
        assert [i.ok for i in rep.items] == [True, None, False]

    def test_an_undecided_report_prints_its_third_mark_and_null(self):
        rep = CheckReport("three values")
        rep.add("holds", True)
        rep.add("undecided", None, "unknown_in_ansatz")
        outer = CheckReport("outer")
        outer.merge(rep, prefix="inner: ")
        assert outer.pretty() == "[UNKNOWN] outer\n  ok  inner: holds\n  ?? inner: undecided: unknown_in_ansatz"
        assert outer.to_dict()["passed"] is None
        assert [i["ok"] for i in outer.to_dict()["items"]] == [True, None]
