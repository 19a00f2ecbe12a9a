import json
import re
from pathlib import Path

import pytest

from algebroids import extensions, runner
from algebroids.cli import corpus_scenarios, load_scenario, main
from algebroids.runner import Session, run
from algebroids.scenario import _ASSERTIONS, ScenarioError, parse_scenario

README = Path(__file__).resolve().parent.parent / "README.md"


CYL_SNIPPET = """
chart N { coords theta* x }
chart S1 { coords theta* }
algebroid TS1 tangent of S1
algebroid B on N { frame b ; anchor b = (1, x) }
morphism incl : TS1 -> B { base = (theta, 0) ; fiber = [[1]] }
assert morphism incl pass
assert equal relmod incl = form TS1 (-1)
"""


class TestParsing:
    def test_empty_scenario(self):
        sc = parse_scenario("")
        assert sc.assertions == []
        assert sc.algebroids == {}

    def test_snippet_resolves(self):
        sc = parse_scenario(CYL_SNIPPET)
        assert set(sc.algebroids) == {"TS1", "B"}
        assert set(sc.morphisms) == {"incl"}
        assert len(sc.assertions) == 2

    def test_cylinder_corpus_resolves(self):
        sc = load_scenario("cylinder.scn")
        assert "B" in sc.algebroids and "TS1" in sc.algebroids
        assert "incl" in sc.morphisms
        assert len(sc.assertions) >= 4

    def test_unknown_symbol_diagnostic(self):
        bad = "chart N { coords x }\nalgebroid B on N { frame b ; anchor c = (1) }\n"
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(bad)
        assert "c" in str(exc.value)
        assert "line" in str(exc.value)

    def test_unknown_frame_in_bracket(self):
        bad = (
            "chart N { coords x }\n"
            "algebroid B on N { frame b ; bracket [b, q] = b }\n"
        )
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(bad)
        assert "q" in str(exc.value)

    def test_parse_error_has_line_number(self):
        bad = "chart N { coords x }\nalgebroid B on\n"
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(bad)
        assert "line 2" in str(exc.value) or "line 3" in str(exc.value)

    @pytest.mark.parametrize("field", ["degree -3", "modes -1"])
    def test_negative_ansatz_size_names_the_line(self, field):
        bad = f"chart N {{ coords x }}\nansatz {{ {field} }}\n"
        with pytest.raises(ScenarioError, match="line 2: ansatz .* must be non-negative"):
            parse_scenario(bad)

    def test_assertion_table_matches_handlers_and_readme(self):
        handlers = {n[len("_assert_"):] for n in dir(Session) if n.startswith("_assert_")}
        assert set(_ASSERTIONS) == handlers
        block = README.read_text().split("Assertions (", 1)[1].split("```", 2)[1]
        assert set(re.findall(r"\bassert (\w+)", block)) == set(_ASSERTIONS)

    def test_comments_and_semicolons(self):
        sc = parse_scenario(
            "# leading comment\nchart N { coords x }  # trailing\n"
            "algebroid B on N { frame b ; anchor b = (x) }\n"
        )
        assert sc.algebroids["B"].rank == 1


class TestRunner:
    def test_snippet_passes(self):
        sc = parse_scenario(CYL_SNIPPET, "snippet")
        report = run(sc, seed=3)
        assert report.passed
        assert len(report.results) == 2

    def test_failing_assertion_reported_not_raised(self):
        sc = parse_scenario(
            CYL_SNIPPET + "assert equal relmod incl = form TS1 (1)\n", "bad"
        )
        report = run(sc)
        assert not report.passed
        assert report.results[-1].verdict == "fail"
        assert "difference" in report.results[-1].detail

    def test_deterministic_reports(self):
        for name in ("cylinder.scn", "submersion.scn"):
            r1 = run(load_scenario(name), seed=7)
            r2 = run(load_scenario(name), seed=7)
            assert r1.to_json() == r2.to_json()
            assert r1.to_text() == r2.to_text()

    def test_poisson_kit_built_once_per_name(self, monkeypatch):
        built = []
        kit = runner.poisson_kit

        def counting_kit(pi, *args, **kwargs):
            built.append(pi)
            return kit(pi, *args, **kwargs)

        monkeypatch.setattr(runner, "poisson_kit", counting_kit)
        monkeypatch.setattr(extensions, "poisson_kit", counting_kit)
        sc = load_scenario("poisson_spiral.scn")
        report = run(sc, seed=0)
        assert report.passed
        assert len(built) == len(sc.poissons) == 1

    def test_json_shape(self):
        report = run(parse_scenario(CYL_SNIPPET, "snippet"), seed=0)
        data = json.loads(report.to_json())
        assert data["passed"] is True
        assert data["results"][0]["verdict"] == "pass"
        assert data["results"][0]["line"] > 0


class TestCorpus:
    def test_corpus_listing(self):
        names = corpus_scenarios()
        assert "cylinder.scn" in names
        assert len(names) >= 10

    @pytest.mark.parametrize("name", corpus_scenarios())
    def test_every_corpus_scenario_passes(self, name):
        report = run(load_scenario(name), seed=0)
        failing = [r for r in report.results if r.verdict != "pass"]
        assert not failing, "\n".join(f"{r.text}: {r.detail}" for r in failing)


class TestCLI:
    def test_run_exit_codes(self, capsys):
        assert main(["run", "corrupted.scn"]) == 0
        capsys.readouterr()

    def test_validate(self, capsys):
        assert main(["validate", "isomorphism.scn"]) == 0
        out = capsys.readouterr().out
        assert "axioms" in out

    def test_modular_subcommand(self, capsys):
        assert main(["modular", "cylinder.scn", "B"]) == 0
        out = capsys.readouterr().out
        assert "modular_cocycle: b*" in out

    def test_oversized_ansatz_exits_2(self, capsys):
        # cylinder chart: (4 + 1) monomials times (2 * 5000 + 1) trig atoms
        code = main(["modular", "cylinder.scn", "B", "--fourier-modes", "5000"])
        out, err = capsys.readouterr()
        assert code == 2 and not out
        assert err.startswith("ansatz error: ") and "50005 basis functions" in err

    def test_relmod_subcommand(self, capsys):
        assert main(["relmod", "cylinder.scn", "incl"]) == 0
        out = capsys.readouterr().out
        assert "-1*theta*" in out.replace("dtheta", "theta*")
        assert "nonexact_certified" in out

    def test_char_subcommand(self, capsys):
        assert main(["char", "cylinder.scn", "D", "--section", "exp(x)"]) == 0
        out = capsys.readouterr().out
        assert "characteristic_cocycle" in out

    def test_pullback_subcommand(self, capsys):
        assert main(["pullback", "cylinder.scn", "PB", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["projection_passes"] is True
        assert data["rank"] == 1

    def test_extension_subcommand(self, capsys):
        assert main(["extension", "extension_rank1.scn", "EXT"]) == 0
        capsys.readouterr()

    def test_diagram_subcommand(self, capsys):
        assert main(["diagram", "diagram_point.scn", "DIA"]) == 0
        capsys.readouterr()

    def test_extension_aborted_identity_is_a_failing_block(self, capsys):
        assert main(["extension", "extension_so3.scn", "AFF", "--format", "json"]) == 1
        blocks = json.loads(capsys.readouterr().out)
        identity = [b for b in blocks if b["title"] == "extension modular identity"]
        assert len(identity) == 1 and identity[0]["passed"] is False
        assert "UnimodularityFailure" in identity[0]["items"][0]["detail"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["modular", "cylinder.scn", "B"],
            ["modular", "cylinder.scn", "TS1"],
            ["relmod", "cylinder.scn", "incl"],
            ["relmod", "cylinder.scn", "iB"],
            ["relmod", "submersion.scn", "prS"],
            ["char", "cylinder.scn", "D", "--section", "exp(x)"],
        ],
    )
    def test_cocycle_payload_fields_follow_status(self, capsys, argv):
        assert main(argv + ["--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert ("primitive" in data) == (data["status"] == "exact")
        assert ("certificate" in data) == (data["status"] == "nonexact_certified")

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "corrupted.scn", "--seed", "1"],
            ["diagram", "diagram_point.scn", "DIA", "--ansatz-degree", "2"],
            ["pullback", "cylinder.scn", "PB", "--fourier-modes", "2"],
        ],
    )
    def test_unread_flags_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit):
            main(argv)
        capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--ansatz-degree", "--fourier-modes"])
    def test_negative_ansatz_size_flag_exits_2(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["char", "cylinder.scn", "D", flag, "-1"])
        assert exc.value.code == 2
        assert "must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, line",
        [
            ("chart T { coords x y }\nbivector PI on T {\n  comp [x, q] = 1\n}\n", 3),
            ("chart N { coords x }\nalgebroid B on N { frame b b }\n", 2),
            ("chart N { coords x }\nalgebroid B on N {\n  frame b b\n}\n", 2),
            (
                "chart N { coords x }\nalgebroid B on N { frame b ; anchor b = (1) }\n"
                "morphism m : Q -> B { fiber = [[1]] }\n",
                3,
            ),
            (
                "chart N { coords theta* }\nalgebroid B on N { frame b ; anchor b = (1) }\n"
                "assert period form B (1) combo (1/0) coord theta mean 1\n",
                3,
            ),
            (
                "chart N { coords theta* }\nalgebroid B on N { frame b ; anchor b = (1) }\n"
                "assert period form B (1) combo (1/2/3) coord theta mean 1\n",
                3,
            ),
            (
                "chart N { coords theta* x }\nchart S1 { coords theta* }\n"
                "algebroid B on N { frame b ; anchor b = (1, x) }\n"
                "pullback PB of B from S1 { mode whatever ; base = (theta, 0) }\n",
                4,
            ),
            (
                "chart N { coords x }\nalgebroid B on N { frame b ; anchor b = (1) }\n"
                "assert flat Q pass\n",
                3,
            ),
            (
                "chart N { coords x }\nassert exact modular Q yes\n"
                "algebroid B on N { frame b ; anchor b = (1) }\n",
                2,
            ),
            (
                "chart N { coords x }\nalgebroid B on N { frame b ; anchor b = (1) }\n"
                "assert equal zero B =\n  pull m zero B\n",
                4,
            ),
        ],
        ids=[
            "unknown-coordinate",
            "duplicate-frame",
            "duplicate-frame-block",
            "unknown-algebroid",
            "zero-denominator",
            "malformed-number",
            "pullback-mode",
            "assertion-unknown-rep",
            "spec-unknown-algebroid",
            "spec-unknown-morphism",
        ],
    )
    def test_parse_errors_exit_2_with_their_line(self, capsys, tmp_path, text, line):
        path = tmp_path / "bad.scn"
        path.write_text(text)
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"scenario error: line {line}: ")
        assert "Traceback" not in captured.err and captured.out == ""

    def test_assertion_names_resolve_once_the_file_is_read(self, capsys, tmp_path):
        # an assertion may name what a later statement defines; a name no
        # statement defines is a parse error at its line, before any verdict
        good = "chart N { coords x }\nassert axioms B pass\nalgebroid B on N { frame b ; anchor b = (1) }\n"
        assert len(parse_scenario(good).assertions) == 1
        path = tmp_path / "bad.scn"
        path.write_text(good + "assert flat Q pass\n")
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "scenario error: line 4: unknown rep 'Q'\n" and captured.out == ""

    def test_missing_scenario(self, capsys):
        assert main(["run", "no_such_file.scn"]) == 2
        capsys.readouterr()

    def test_json_run_deterministic(self, capsys):
        main(["run", "isomorphism.scn", "--format", "json", "--seed", "5"])
        out1 = capsys.readouterr().out
        main(["run", "isomorphism.scn", "--format", "json", "--seed", "5"])
        out2 = capsys.readouterr().out
        assert out1 == out2
