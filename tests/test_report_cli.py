"""Analysis runs, report rendering, determinism, and the CLI surface."""

import contextlib
import io
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import nonlocal_audit as na
from nonlocal_audit import cli, steering
from nonlocal_audit.classical import MAX_LISTED_MAXIMIZERS
from nonlocal_audit.cli import main
from nonlocal_audit.errors import AmbiguousDegenerateError
from nonlocal_audit.games import game_to_dict
from nonlocal_audit.report import _real, run_document

from conftest import OMEGA_Q_G1, perfbench_modules, wide_binary_game

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def g1_run():
    return na.run_analyze("g1")


@pytest.fixture(scope="module")
def cglmp_run():
    return na.run_analyze("cglmp")


def _tie_heavy_game(game_id, n_x, n_y, n_a, n_b, seed) -> dict:
    # every output pair wins on some input pairs and none on the rest: every
    # strategy pair is a maximizer
    rows = np.random.default_rng(seed).random((n_x, n_y)) < 0.6
    spec = na.GameSpec(
        id=game_id,
        predicate=np.broadcast_to(rows[:, :, None, None], (n_x, n_y, n_a, n_b)).astype(float),
        input_dist=np.full((n_x, n_y), 1.0 / (n_x * n_y)),
    )
    return game_to_dict(spec)


def _benchmark_game(name) -> dict:
    workloads, _ = perfbench_modules()
    return next(i.game for i in workloads.generate("classical_scaling", 0) if i.name == name)


def _reference_classical_stdout(path) -> str:
    """``classical`` stdout printed one line per maximizer, each formatted on its own."""
    spec = na.load_game(path)
    value, maximizers, count = na.classical_value(spec)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        print(f"game {spec.id!r}: omega_c = {value:.12g} (normalized)")
        if spec.is_uniform():
            print(f"raw sum over input pairs: {value * spec.n_x * spec.n_y:.12g}")
        if count > MAX_LISTED_MAXIMIZERS:
            print(f"maximizers listed: the first {MAX_LISTED_MAXIMIZERS} in lexicographic "
                  f"(f_a, f_b) order")
        print(f"{count} maximizing deterministic strategies:")
        for s in maximizers:
            print(f"  f_a = {list(s.f_a)}  f_b = {list(s.f_b)}")
    assert all(type(label) is int for s in maximizers for f in (s.f_a, s.f_b) for label in f)
    return out.getvalue()


class TestRunAnalyze:
    def test_g1_summary(self, g1_run):
        assert g1_run.solution.method == "closed_form"
        assert g1_run.classical[0] == 0.5
        assert abs(g1_run.solution.value - OMEGA_Q_G1) <= 1e-10
        assert abs(g1_run.solution.value - 0.544598646541) <= 1e-9
        assert not g1_run.report.correspondence_holds

    def test_cglmp_summary(self, cglmp_run):
        assert cglmp_run.solution.method == "fixed_catalog_strategy"
        assert cglmp_run.report.correspondence_holds
        assert 4.0 * cglmp_run.classical[0] == 6.0

    def test_each_stage_computed_once(self, monkeypatch):
        calls = []
        for name in ("classical_value", "fine_grained_relations"):
            original = getattr(na, name)

            def counted(spec, *args, _name=name, _original=original):
                calls.append((_name, spec.id))
                return _original(spec, *args)

            # patch every module of the package that imported the function
            for module in list(sys.modules.values()):
                in_package = getattr(module, "__name__", "").startswith("nonlocal_audit")
                if in_package and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        na.run_analyze("g1")
        assert sorted(calls) == [
            ("classical_value", "g1"),
            ("fine_grained_relations", "g1"),
            ("fine_grained_relations", "g1:swapped"),
        ]

    def test_planar_refusal_comes_before_classical_enumeration(self, tmp_path, capsys):
        # The strategy stage runs first: a game that no quantum route covers
        # is refused as such, not for its 2^48 classical strategy pairs.
        path = tmp_path / "wide.json"
        na.save_game(wide_binary_game(), path)
        assert main(["analyze", str(path), "--format", "json"]) == 2
        assert capsys.readouterr().err == (
            "error: game 'wide-24x24' is 24x24 inputs / 2x2 outputs; "
            "the planar family covers 2x2x2x2\n")

    def test_unknown_game_raises(self):
        from nonlocal_audit.errors import UnknownGameError

        with pytest.raises(UnknownGameError):
            na.run_analyze("nosuchgame")

    def test_file_game(self, tmp_path, chsh_spec):
        path = tmp_path / "mychsh.json"
        na.save_game(chsh_spec, path)
        run = na.run_analyze(str(path))
        assert run.solution.method == "planar_search"
        assert abs(run.solution.value - (2.0 + math.sqrt(2.0)) / 4.0) <= 1e-7
        assert run.report.correspondence_holds

    def test_file_with_catalog_id_but_other_tables(self, tmp_path, g1_spec, chsh_spec):
        # a modified game reusing the id "g1" must not get g1's closed form
        import numpy as np

        variant = na.GameSpec(
            id="g1",
            predicate=chsh_spec.predicate, input_dist=chsh_spec.input_dist,
        )
        path = tmp_path / "variant.json"
        na.save_game(variant, path)
        run = na.run_analyze(str(path))
        assert run.solution.method == "planar_search"
        assert abs(run.solution.value - (2.0 + math.sqrt(2.0)) / 4.0) <= 1e-7

    def test_residual_only_for_catalog_tables(self, tmp_path, chsh_spec):
        # a charpoly residual belongs to the catalog tables, not to the id
        variant = na.GameSpec(
            id="g1",
            predicate=chsh_spec.predicate, input_dist=chsh_spec.input_dist,
        )
        path = tmp_path / "variant.json"
        na.save_game(variant, path)
        run = na.run_analyze(str(path))
        assert json.loads(na.render_report(run, "json"))["quantum"]["residual"] is None
        assert abs(na.optimize_planar(na.builtin_game("g1")).residual) <= 1e-9

    def test_file_matching_catalog_gets_closed_form(self, tmp_path, g1_spec):
        path = tmp_path / "same-g1.json"
        na.save_game(g1_spec, path)
        run = na.run_analyze(str(path))
        assert run.solution.method == "closed_form"


class TestJsonReport:
    def test_contains_conventions(self, g1_run):
        text = na.render_report(g1_run, "json")
        doc = json.loads(text)
        values = {v["convention"]: v["value"] for v in doc["verdict"]["omega_c"]}
        assert values["normalized"] == 0.5
        assert values["times4"] == 2.0

    def test_cglmp_raw_sum_convention(self, cglmp_run):
        doc = json.loads(na.render_report(cglmp_run, "json"))
        values = {v["convention"]: v["value"] for v in doc["verdict"]["omega_q"]}
        assert abs(values["raw_sum"] - 4.0 * values["normalized"]) <= 1e-9

    def test_g2_xi_decimal_appears(self):
        run = na.run_analyze("g2")
        text = na.render_report(run, "json")
        assert '"xi":0.881461927856' in text

    def test_round_trip_fixed_point(self, g1_run):
        text = na.render_report(g1_run, "json")
        doc = json.loads(text)
        again = json.dumps(doc, separators=(",", ":")) + "\n"
        assert again == text

    def test_round_trip_negative_zero(self):
        doc = {"re": [_real(-0.0), _real(0.5)], "im": [_real(-0.0), _real(0.0)]}
        text = json.dumps(doc, separators=(",", ":"))
        assert text == '{"re":[0,0.5],"im":[0,0]}'
        assert json.dumps(json.loads(text), separators=(",", ":")) == text

    def test_nearly_uniform_game_quotes_only_normalized(self, tmp_path, chsh_spec, capsys):
        # pi off uniform by 2e-6, far above PI_SUM_ATOL: no rescaled value is quoted
        pi = np.array([[0.25 + 2e-6, 0.25 - 2e-6], [0.25, 0.25]])
        spec = na.GameSpec(id="chsh-tilted", predicate=chsh_spec.predicate, input_dist=pi)
        assert na.validate_game(spec) == []
        assert not spec.is_uniform()
        path = tmp_path / "tilted.json"
        na.save_game(spec, path)
        doc = json.loads(na.render_report(na.run_analyze(str(path)), "json"))
        for values in (doc["classical"]["value"], doc["quantum"]["value"],
                       doc["verdict"]["omega_c"], doc["verdict"]["omega_q"]):
            assert [v["convention"] for v in values] == ["normalized"]
        assert main(["classical", str(path)]) == 0
        assert "raw sum" not in capsys.readouterr().out

    def test_round_trip_matches_run_values(self, g1_run):
        doc = json.loads(na.render_report(g1_run, "json"))
        assert abs(doc["verdict"]["up_bound"] - g1_run.report.alice.up_bound) <= 1e-9
        quantum = {v["convention"]: v["value"] for v in doc["quantum"]["value"]}
        assert abs(quantum["normalized"] - g1_run.solution.value) <= 1e-9 * max(
            1.0, abs(g1_run.solution.value)
        )

    def test_byte_identical_reports(self):
        first = na.render_report(na.run_analyze("g1"), "json")
        second = na.render_report(na.run_analyze("g1"), "json")
        assert first == second

    def test_byte_identical_planar(self, tmp_path, chsh_spec):
        path = tmp_path / "chsh.json"
        na.save_game(chsh_spec, path)
        first = na.render_report(na.run_analyze(str(path)), "json")
        second = na.render_report(na.run_analyze(str(path)), "json")
        assert first == second

    def test_omega_q_upper(self, g1_run, cglmp_run, tmp_path, chsh_spec):
        path = tmp_path / "chsh.json"
        na.save_game(chsh_spec, path)
        planar = json.loads(na.render_report(na.run_analyze(str(path)), "json"))["quantum"]
        assert list(planar)[:3] == ["method", "value", "omega_q_upper"]
        value = next(v["value"] for v in planar["value"] if v["convention"] == "normalized")
        assert 0.0 <= planar["omega_q_upper"] - value <= 1e-9
        for run in (g1_run, cglmp_run):
            assert json.loads(na.render_report(run, "json"))["quantum"]["omega_q_upper"] is None

    def test_top_level_keys_match_schema(self, g1_run):
        schema = (ROOT / "docs" / "report-schema.md").read_text(encoding="utf-8")
        key_block = schema.split("Top-level keys, in order:")[1].split("```")[1]
        documented = re.findall(r"^(\w+) ", key_block, flags=re.MULTILINE)
        doc = json.loads(na.render_report(g1_run, "json"))
        assert list(doc) == documented
        assert "options" not in doc

    def test_wall_time_not_in_json(self, g1_run):
        doc = run_document(g1_run)
        assert "wall_time" not in json.dumps(doc)

    def test_twelve_significant_digits(self, g1_run):
        doc = json.loads(na.render_report(g1_run, "json"))
        quantum = {v["convention"]: v["value"] for v in doc["quantum"]["value"]}
        assert abs(quantum["normalized"] - OMEGA_Q_G1) <= 1e-11


class TestTextReport:
    def test_unknown_format_refused(self, g1_run):
        with pytest.raises(ValueError, match="^unknown report format 'xml'$"):
            na.render_report(g1_run, "xml")

    def test_sections(self, g1_run):
        text = na.render_report(g1_run, "text")
        assert "Alice steers Bob:" in text
        assert "Bob steers Alice:" in text
        assert "correspondence_holds: False" in text
        assert "saturated" in text

    def test_vacuous_marker(self, g1_spec, g1_solution):
        # a strategy whose state kills one of Alice's outcomes entirely
        meas_a = np.array([[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]] * 2, dtype=complex)
        ket = np.zeros(4, dtype=complex)
        ket[0] = 1.0
        strat = na.QuantumStrategy(state=ket, meas_a=meas_a, meas_b=g1_solution.strategy.meas_b)
        verdicts = na.correspondence_verdict(g1_spec, strat).alice.verdicts
        assert any(v.vacuous for v in verdicts)


    def test_gap_just_below_zero_prints_unsigned(self):
        from nonlocal_audit.report import _verdict_table

        verdict = na.SteeringVerdict(
            pair=(0, 1), probability=0.5, xi=0.75, achieved=0.75 + 1e-12, gap=-1e-12,
            saturated=True, vacuous=False, trivial_relation=False,
        )
        row = _verdict_table("Bob steers Alice:", [verdict])[-1]
        assert "-0.000000" not in row
        assert row.split()[4] == "0.000000"


class TestCli:
    def test_list_games(self, capsys):
        assert main(["list-games"]) == 0
        out = capsys.readouterr().out
        for game_id in na.GAME_IDS:
            assert game_id in out

    def test_classical(self, capsys):
        assert main(["classical", "g1"]) == 0
        out = capsys.readouterr().out
        assert "omega_c = 0.5" in out

    def test_quantum_closed_form(self, capsys):
        assert main(["quantum", "g1"]) == 0
        out = capsys.readouterr().out
        assert "0.544598646541" in out
        assert "residual" in out

    def test_quantum_cglmp_fixed_strategy(self, capsys):
        assert main(["quantum", "cglmp"]) == 0
        assert "[fixed_catalog_strategy]" in capsys.readouterr().out

    def test_quantum_and_analyze_share_closed_form_default(self, capsys):
        assert main(["quantum", "g1"]) == 0
        assert "[closed_form]" in capsys.readouterr().out
        assert main(["analyze", "g1", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["quantum"]["method"] == "closed_form"

    @pytest.mark.parametrize("game, maximizers", [
        (lambda: _benchmark_game("classical-ties-6x6"), 4096),
        # Bob's 2**4 response functions are enumerated, not Alice's 2**6
        (lambda: _tie_heavy_game("ties-bob-enumerated", 6, 4, 2, 2, 4), 1024),
        # labels of two digits
        (lambda: _tie_heavy_game("ties-11-outputs", 1, 2, 11, 10, 5), 1100),
        # under the listing cap: no note line
        (lambda: _tie_heavy_game("ties-under-cap", 5, 4, 2, 2, 6), 512),
    ], ids=["benchmark-ties-6x6", "bob-enumerated", "11-outputs", "under-cap"])
    def test_classical_matches_per_line_writer(self, tmp_path, capsys, game, maximizers):
        path = tmp_path / "game.json"
        path.write_text(json.dumps(game()))
        assert main(["classical", str(path)]) == 0
        out, err = capsys.readouterr()
        assert (out, err) == (_reference_classical_stdout(path), "")
        assert f"\n{maximizers} maximizing deterministic strategies:\n" in out
        assert out.count("\n  f_a = ") == min(maximizers, MAX_LISTED_MAXIMIZERS)
        assert ("maximizers listed:" in out) == (maximizers > MAX_LISTED_MAXIMIZERS)

    def test_closed_stdout_exits_1_quietly(self, tmp_path, capsys, monkeypatch):
        class ClosedPipe(io.TextIOBase):
            # takes `room` characters, then refuses as a pipe closed by its reader
            def __init__(self, room):
                self.room = room

            def write(self, text):
                if len(text) > self.room:
                    raise BrokenPipeError(32, "Broken pipe")
                self.room -= len(text)
                return len(text)

        ties = tmp_path / "ties.json"
        ties.write_text(json.dumps(_benchmark_game("classical-ties-6x6")))
        # classical's header fits, its maximizer lines break off part way
        for command, room in ((["list-games"], 0), (["classical", str(ties)], 1000)):
            monkeypatch.setattr(sys, "stdout", ClosedPipe(room))
            assert main(command) == 1
            with sys.stdout as switched:
                assert switched.name == os.devnull
            assert capsys.readouterr().err == ""

    def test_uncertainty(self, capsys):
        assert main(["uncertainty", "g2", "--side", "alice"]) == 0
        out = capsys.readouterr().out
        assert "pair (1,0)" in out
        assert "0.823244" in out

    def test_uncertainty_bob_side(self, capsys):
        assert main(["uncertainty", "g2", "--side", "bob"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "game 'g2', side bob_steers_alice: relations on Alice's system"
        relations = na.run_analyze("g2").report.bob.relations
        pairs = [line.split(":")[0].strip() for line in out if line.startswith("  pair ")]
        assert pairs == [f"pair ({rel.pair[0]},{rel.pair[1]})" for rel in relations]
        xis = [line.split()[2] for line in out if line.startswith("    xi = ")]
        assert xis == [f"{rel.xi:.12g}" for rel in relations]

    def test_steer(self, capsys):
        assert main(["steer", "g2"]) == 0
        out = capsys.readouterr().out
        assert "saturated" in out
        assert "correspondence_holds: False" in out

    def test_steer_is_the_analyze_steering_block(self, capsys):
        assert main(["steer", "g2"]) == 0
        block = capsys.readouterr().out.splitlines()
        text = na.render_report(na.run_analyze("g2"), "text").splitlines()
        assert block[0] == "Alice steers Bob:"
        assert any(text[i:i + len(block)] == block for i in range(len(text)))

    def test_analyze_vacuous_degenerate_pair(self, tmp_path, capsys):
        # Alice's pair (1, 1) wins nowhere, so its relation operator is zero
        # (the whole space is certain), and the optimal strategy never produces it.
        wins = [(0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 1, 1), (1, 0, 0, 1), (1, 1, 0, 0)]
        doc = {
            "id": "vacuous-degenerate", "inputs": [2, 2], "outputs": [2, 2],
            "pi": [[0.25, 0.25], [0.25, 0.25]],
            "predicate": [{"x": x, "y": y, "a": a, "b": b, "v": 1} for x, y, a, b in wins],
        }
        path = tmp_path / "vacuous.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 0
        assert "  (1,1)   0.000000    0.000000" in capsys.readouterr().out

    def test_analyze_json_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["analyze", "cglmp", "--format", "json", "--out", str(out_path)]) == 0
        capsys.readouterr()
        doc = json.loads(out_path.read_text())
        assert doc["verdict"]["correspondence_holds"] is True

    def test_analyze_out_into_missing_directory_exit_2(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "report.json"
        assert main(["analyze", "cglmp", "--format", "json", "--out", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(out_path) in captured.err
        assert "Traceback" not in captured.err
        assert not out_path.parent.exists()

    def test_numeric_failure_in_a_stage_exit_1(self, capsys, monkeypatch):
        def failing(relations, reference):
            raise AmbiguousDegenerateError("steered state is orthogonal to the certain space")

        monkeypatch.setattr(steering, "certain_state_assemblage", failing)
        assert main(["analyze", "g1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "internal numeric failure: steered state is orthogonal to the certain space\n")

    def test_unknown_game_exit_code(self, capsys):
        assert main(["analyze", "nosuchgame"]) == 2
        err = capsys.readouterr().err
        assert "nosuchgame" in err

    @pytest.mark.parametrize("command", [
        ["classical", ""],
        ["quantum", ""],
        ["uncertainty", "", "--side", "alice"],
        ["steer", ""],
        ["analyze", ""],
    ])
    def test_empty_game_reference_exit_2(self, capsys, command):
        # Path("") is the current directory, which exists but is no game file
        assert main(command) == 2
        assert capsys.readouterr() == (
            "", "error: '' is neither a catalog id (g1, g2, chsh, cglmp) nor a game file\n")

    def test_game_no_route_covers_exit_code(self, tmp_path, capsys):
        doc = {
            "id": "three-inputs", "inputs": [3, 2], "outputs": [2, 2],
            "pi": [[0.125, 0.125], [0.25, 0.25], [0.125, 0.125]],
            "predicate": [{"x": x, "y": y, "a": 0, "b": (x + y) % 2, "v": 1}
                          for x in range(3) for y in range(2)],
        }
        path = tmp_path / "three-inputs.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 2
        assert "3x2 inputs" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["quantum", "chsh"],
        ["uncertainty", "cglmp", "--side", "alice"],
    ])
    def test_amplitudes_rounding_to_zero_print_unsigned(self, capsys, command):
        assert main(command) == 0
        out = capsys.readouterr().out
        assert "0.000000" in out
        assert "-0.000000" not in out

    def test_invalid_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["classical", str(path)]) == 2

    def test_bad_usage_exit_code(self, capsys):
        assert main(["uncertainty", "g1"]) == 2  # missing --side
        capsys.readouterr()

    @pytest.mark.parametrize("command", [
        ["quantum", "chsh"],
        ["uncertainty", "chsh", "--side", "alice"],
        ["steer", "chsh"],
        ["analyze", "chsh"],
    ])
    def test_grid_option_removed(self, capsys, command):
        # The planar search starts from a fixed partition and the route
        # follows from the game's tables; no option sets either.
        for option in (["--grid", "721"], ["--closed-form"], ["--no-closed-form"]):
            assert main([*command, *option]) == 2
            assert f"unrecognized arguments: {option[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["abc", "-3"])
    def test_bad_thread_setting_exit_code(self, capsys, monkeypatch, raw):
        # The thread setting is gone: a value that used to exit 2 is not read.
        assert main(["quantum", "chsh"]) == 0
        expected = capsys.readouterr()
        monkeypatch.setenv("NONLOCAL_AUDIT_THREADS", raw)
        assert main(["quantum", "chsh"]) == 0
        assert capsys.readouterr() == expected

    def test_parser_built_once_and_reused(self, capsys):
        calls = [
            ["classical", "g1"],
            ["quantum", "chsh", "--grid", "32"],
            ["quantum", "g1"],
            ["list-games"],
            ["steer", "chsh"],
            ["analyze", "nosuchgame"],
            ["classical", "g1"],
        ]

        def run(argv):
            code = main(argv)
            out, err = capsys.readouterr()
            return code, out, err

        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(run(argv))
        cli._parser.cache_clear()
        reused = [run(argv) for argv in calls]
        assert cli._parser.cache_info().misses == 1
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 2, 0, 0, 0, 2, 0]
        assert "unrecognized arguments: --grid 32" in reused[1][2]
