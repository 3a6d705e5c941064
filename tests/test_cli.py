import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from alcnr import parse_interpretation, parse_kb
from alcnr.syntax import _MAX_NESTING

from conftest import EX21_TEXT, EX33_TEXT, UNA_CLASH_TEXT, cli

PATHOLOGICAL_TEXT = """\
(implies (atmost 2 (and R S)) (all (and R S) (not C)))
(implies (or (all (and R S) (and (not C) TOP)) (atleast 2 S)) (some R (all R (not B))))
(instance b (or (not C) (some R (atmost 0 (and R S)))))
(related b c R)
"""


class TestVerdictCommands:
    def test_check_sat(self, kb_file):
        code, out, err = cli("check-sat", kb_file(EX33_TEXT))
        assert (code, out) == (0, "SAT\n")
        code, out, _ = cli("check-sat", kb_file(UNA_CLASH_TEXT, "una.txt"))
        assert (code, out) == (1, "UNSAT\n")

    def test_check_sat_from_stdin(self):
        code, out, _ = cli("check-sat", "-", stdin_text=EX33_TEXT)
        assert (code, out) == (0, "SAT\n")

    def test_concept_sat(self, kb_file):
        path = kb_file(EX21_TEXT)
        code, out, _ = cli("concept-sat", path, "(and Prof (atmost 1 DEGREE))")
        assert (code, out) == (1, "UNSAT\n")
        code, out, _ = cli("concept-sat", path, "Prof")
        assert (code, out) == (0, "SAT\n")

    def test_subsumes(self, kb_file):
        path = kb_file(EX21_TEXT)
        code, out, _ = cli("subsumes", path, "(some DEGREE MS)", "(some DEGREE BS)")
        assert (code, out) == (0, "true\n")
        code, out, _ = cli("subsumes", path, "Student", "Prof")
        assert (code, out) == (1, "false\n")

    def test_instance(self, kb_file):
        path = kb_file(EX21_TEXT)
        code, out, _ = cli("instance", path, "john", "Student")
        assert (code, out) == (0, "true\n")
        code, out, _ = cli("instance", path, "john", "Prof")
        assert (code, out) == (1, "false\n")

    def test_instances(self, kb_file):
        code, out, _ = cli("instances", kb_file(EX21_TEXT), "Student")
        assert (code, out) == (0, "john\n")
        code, out, _ = cli("instances", kb_file(EX21_TEXT), "TOP")
        assert (code, out) == (0, "cs156\njohn\n")
        code, out, _ = cli("instances", kb_file(EX21_TEXT), "BOTTOM")
        assert (code, out) == (0, "")


class TestModelCommands:
    def test_model_output_passes_check_model(self, kb_file, tmp_path):
        path = kb_file(EX33_TEXT)
        code, out, _ = cli("model", path)
        assert code == 0
        interp = parse_interpretation(out)
        assert interp.individuals["peter"] == "peter"
        model_path = tmp_path / "model.txt"
        model_path.write_text(out, encoding="utf-8")
        code, out, _ = cli("check-model", path, str(model_path))
        assert (code, out) == (0, "ok\n")

    def test_check_model_rejects_a_wrong_model(self, kb_file, tmp_path):
        path = kb_file(EX33_TEXT)
        _, out, _ = cli("model", path)
        broken = out.replace("concept Italian = {_v0,_v1}", "concept Italian = {}")
        model_path = tmp_path / "broken.txt"
        model_path.write_text(broken, encoding="utf-8")
        code, out, _ = cli("check-model", path, str(model_path))
        assert (code, out) == (1, "invalid\n")

    def test_model_on_unsat_kb(self, kb_file):
        code, out, err = cli("model", kb_file(UNA_CLASH_TEXT))
        assert code == 1 and out == "" and "UNSAT" in err

    def test_transform_output_reparses(self, kb_file):
        code, out, _ = cli("transform", kb_file(EX21_TEXT))
        assert code == 0
        transformed = parse_kb(out)
        assert len(transformed.tbox) == 1
        code2, out2, _ = cli("check-sat", "-", stdin_text=out)
        assert (code2, out2) == (0, "SAT\n")


class TestTrace:
    def test_trace_shows_the_derivation_and_result(self, kb_file):
        code, out, _ = cli("trace", kb_file(EX33_TEXT))
        assert code == 0
        assert out.endswith("result: SAT\n")
        created = set(re.findall(r"_v\d+", out))
        assert created == {"_v0", "_v1"}
        assert len([l for l in out.splitlines() if "blocked" in l]) == 1

    def test_trace_file_flag(self, kb_file, tmp_path):
        trace_path = tmp_path / "trace.log"
        code, _, _ = cli("check-sat", kb_file(EX33_TEXT), "--trace-file", str(trace_path))
        assert code == 0
        content = trace_path.read_text(encoding="utf-8")
        assert content.startswith("step 1:")


class TestErrorsAndGuards:
    def test_parse_error_exits_3_with_location(self, kb_file):
        code, out, err = cli("check-sat", kb_file("(implies A\n(bogus B))"))
        assert code == 3 and out == ""
        assert "parse error" in err and "2:" in err

    def test_missing_file(self):
        code, _, err = cli("check-sat", "/nonexistent/kb.txt")
        assert code == 3 and "error" in err

    @pytest.mark.parametrize("opener", ["(not ", "(all R ", "(some R "])
    def test_every_command_works_at_the_nesting_limit(self, opener, kb_file, tmp_path):
        depth = _MAX_NESTING - 1  # the statement's own form is one level
        path = kb_file(f"(instance a {opener * depth}A{')' * depth})")
        code, model, _ = cli("model", path)
        assert code == 0
        (tmp_path / "model.txt").write_text(model, encoding="utf-8")
        oracle = ["--oracle-check", "2"]
        for argv in (
            ["check-sat", path, *oracle], ["concept-sat", path, "A", *oracle],
            ["subsumes", path, "A", "B", *oracle], ["instance", path, "a", "A", *oracle],
            ["instances", path, "A"], ["model", path, *oracle], ["trace", path],
            ["transform", path], ["check-model", path, str(tmp_path / "model.txt")],
        ):
            code, _, err = cli(*argv)
            assert code in (0, 1) and err == "", argv

    def test_nesting_past_the_limit_exits_3(self, kb_file):
        deep = "(not " * _MAX_NESTING + "A" + ")" * _MAX_NESTING
        code, out, err = cli("check-sat", kb_file(f"(instance a {deep})"))
        column = len("(instance a ") + 5 * (_MAX_NESTING - 1) + 1
        assert (code, out) == (3, "")
        assert err == f"parse error: 1:{column}: forms nest deeper than {_MAX_NESTING} levels\n"
        code, out, err = cli("concept-sat", kb_file("(instance a A)"), f"(not {deep})")
        assert (code, out) == (3, "") and "deeper than" in err

    @staticmethod
    def _wide(k: int) -> str:
        return "(and " + " ".join(f"A{i}" for i in range(k)) + ")"

    def test_wide_forms_count_their_folded_depth(self, kb_file):
        """A k-argument (and ...) folds into k - 1 levels, so in (instance a
        C) a 257-wide one is refused, and a 255-wide one decides in every
        decision command (the BOTTOM settles each at once)."""
        ok = kb_file(f"(instance a {self._wide(255)}) (instance a BOTTOM)", "ok.txt")
        for argv, want in (
            (["check-sat", ok], (1, "UNSAT\n")), (["concept-sat", ok, "A0"], (1, "UNSAT\n")),
            (["subsumes", ok, self._wide(255), "B"], (0, "true\n")),
            (["instance", ok, "a", self._wide(255)], (0, "true\n")),
            (["instances", ok, self._wide(255)], (0, "a\n")), (["model", ok], (1, "")),
            (["trace", ok], (1, "step 1: clash: bottom on a\nresult: UNSAT\n")),
        ):
            assert cli(*argv)[:2] == want, argv
        for width in (257, 1000):
            path = kb_file(f"(instance a {self._wide(width)})", f"{width}.txt")
            for argv in (["check-sat", path], ["concept-sat", path, "A0"],
                         ["subsumes", path, "A0", "A1"], ["instance", path, "a", "A0"],
                         ["instances", path, "A0"], ["model", path], ["trace", path]):
                code, out, err = cli(*argv)
                assert (code, out) == (3, ""), argv
                assert err == f"parse error: 1:13: forms nest deeper than {_MAX_NESTING} levels\n"
        code, _, err = cli("concept-sat", ok, self._wide(258))
        assert code == 3 and "deeper than" in err

    @pytest.mark.parametrize("argv", [
        ["check-sat"], ["concept-sat", "Prof"], ["subsumes", "Student", "Prof"],
        ["instance", "john", "Student"], ["instances", "Student"], ["model"], ["trace"],
    ])
    def test_an_engine_crash_exits_5(self, kb_file, monkeypatch, argv):
        from alcnr import services

        def complete(system, guards=None, trace=None):
            raise RuntimeError("engine crashed")

        monkeypatch.setattr(services, "complete", complete)
        code, out, err = cli(argv[0], kb_file(EX21_TEXT), *argv[1:])
        assert (code, out) == (5, "")
        assert err == "internal error: RuntimeError: engine crashed\n"

    @pytest.mark.parametrize("argv", [
        ["check-sat"], ["concept-sat", "Prof"], ["subsumes", "Student", "Prof"],
        ["instance", "john", "Prof"], ["instances", "(not Prof)"], ["model"], ["trace"],
    ])
    def test_an_engine_value_error_exits_5(self, kb_file, monkeypatch, argv):
        """A ValueError raised by the engine is an internal error, not an
        input error: each command here reaches a SAT search, whose
        completion the services check."""
        from alcnr import services

        def check_completion(system):
            raise ValueError("cannot extract a model from an incomplete system")

        monkeypatch.setattr(services, "check_completion", check_completion)
        code, out, err = cli(argv[0], kb_file(EX21_TEXT), *argv[1:])
        assert (code, out) == (5, "")
        assert err == ("internal error: ValueError: "
                       "cannot extract a model from an incomplete system\n")

    @pytest.mark.parametrize("case", [
        "missing-kb", "parse-error", "concept-parse-error", "unknown-individual",
        "missing-model", "malformed-model", "unwritable-trace-file",
    ])
    def test_every_input_error_exits_3(self, kb_file, tmp_path, case):
        path = kb_file(EX21_TEXT)
        model = kb_file("not a model\n", "model.txt")
        argv = {
            "missing-kb": ["check-sat", str(tmp_path / "none.txt")],
            "parse-error": ["check-sat", kb_file("(instance a", "bad.txt")],
            "concept-parse-error": ["subsumes", path, "Student", "(or Prof"],
            "unknown-individual": ["instance", path, "nobody", "Student"],
            "missing-model": ["check-model", path, str(tmp_path / "none.txt")],
            "malformed-model": ["check-model", path, model],
            "unwritable-trace-file": ["check-sat", path, "--trace-file",
                                      str(tmp_path / "no" / "trace.txt")],
        }[case]
        code, out, err = cli(*argv)
        assert (code, out) == (3, "")
        assert err.startswith(("error: ", "parse error: ")) and err.count("\n") == 1

    def test_unknown_individual(self, kb_file):
        code, _, err = cli("instance", kb_file(EX21_TEXT), "nobody", "Student")
        assert code == 3 and "nobody" in err

    def test_usage_error(self):
        code, out, err = cli("no-such-command", "x")
        assert (code, out) == (3, "")
        assert err.startswith("usage: alcnr")
        assert "alcnr: error: argument command: invalid choice: 'no-such-command'" in err

    ENGINE_FLAGS = (
        ("--max-vars", "5"), ("--max-constraints", "5"), ("--max-branches", "5"),
        ("--oracle-check", "3"), ("--trace-file", "t.txt"),
    )

    @pytest.mark.parametrize("command, flag", [
        *((("instances", "Student"), f) for f in ENGINE_FLAGS[3:]),
        *((("transform",), f) for f in ENGINE_FLAGS),
        *((("check-model", "model.txt"), f) for f in ENGINE_FLAGS),
    ])
    def test_a_flag_the_command_does_not_read_is_rejected(
        self, kb_file, tmp_path, monkeypatch, command, flag
    ):
        monkeypatch.chdir(tmp_path)
        name, *rest = command
        code, out, err = cli(name, kb_file(EX21_TEXT), *rest, *flag)
        assert (code, out) == (3, "")
        assert f"unrecognized arguments: {' '.join(flag)}" in err
        assert not (tmp_path / "t.txt").exists()

    def test_instances_reads_the_guard_flags(self, kb_file):
        code, out, err = cli(
            "instances", kb_file(EX21_TEXT), "Student", "--max-branches", "1"
        )
        assert (code, out) == (2, "")
        assert err == "inconclusive for: cs156 john\n"

    def test_guard_exhaustion_reports_unknown(self, kb_file):
        code, out, err = cli(
            "check-sat", kb_file(PATHOLOGICAL_TEXT), "--max-branches", "100"
        )
        assert (code, out) == (2, "UNKNOWN\n")
        assert "max-branches" in err

    def test_oracle_check_passes_on_the_worked_examples(self, kb_file):
        code, out, err = cli("check-sat", kb_file(EX33_TEXT), "--oracle-check", "4")
        assert (code, out) == (0, "SAT\n")
        assert "FAILED" not in err
        code, out, err = cli(
            "check-sat", kb_file(UNA_CLASH_TEXT), "--oracle-check", "4"
        )
        assert (code, out) == (1, "UNSAT\n")
        assert "FAILED" not in err


class TestDeterminism:
    COMMANDS = [
        ("check-sat",),
        ("model",),
        ("trace",),
        ("transform",),
        ("instances", "Italian"),
    ]

    def test_repeated_runs_are_byte_identical(self, kb_file):
        path = kb_file(EX33_TEXT)
        for command in self.COMMANDS:
            first = cli(command[0], path, *command[1:])
            second = cli(command[0], path, *command[1:])
            assert first == second

    def test_runs_in_one_process_match_first_runs(self, kb_file, capsys):
        # the CLI builds its parser once per process; a usage error or --help
        # must leave nothing behind for the next run
        from alcnr.cli import _build_parser

        path = kb_file(EX21_TEXT)
        runs = [("no-such-command", "x"), ("--help",), ("check-sat", path),
                ("instance", path, "john", "Student")]

        def once(args):
            code, out, _ = cli(*args)
            return code, out + capsys.readouterr().out  # argparse prints help to sys.stdout

        first = []
        for args in runs:
            _build_parser.cache_clear()
            first.append(once(args))
        assert [code for code, _ in first] == [3, 0, 0, 0]
        assert [once(args) for args in runs] == first

    def test_output_is_stable_across_hash_seeds(self, kb_file):
        path = kb_file(EX21_TEXT)
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = []
        for seed in ("0", "1", "31337"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "alcnr", "model", path],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0
            outputs.append(proc.stdout)
        assert len(set(outputs)) == 1
