"""Analysis runs, report rendering, determinism, and the CLI surface."""

import json
import math
import os
import sys

import numpy as np
import pytest

import nonlocal_audit as na
from nonlocal_audit import cli
from nonlocal_audit.cli import build_parser, main
from nonlocal_audit.quantum import GRID_MAX
from nonlocal_audit.report import AnalysisOptions, run_document

from conftest import OMEGA_Q_G1


@pytest.fixture(scope="module")
def g1_run():
    return na.run_analyze("g1")


@pytest.fixture(scope="module")
def cglmp_run():
    return na.run_analyze("cglmp")


class TestRunAnalyze:
    def test_g1_summary(self, g1_run):
        assert g1_run.method == "closed_form"
        assert g1_run.report.omega_c == 0.5
        assert abs(g1_run.solution.value - OMEGA_Q_G1) <= 1e-10
        assert abs(g1_run.solution.value - 0.544598646541) <= 1e-9
        assert not g1_run.report.correspondence_holds

    def test_cglmp_summary(self, cglmp_run):
        assert cglmp_run.method == "fixed_catalog_strategy"
        assert cglmp_run.report.correspondence_holds
        assert 4.0 * cglmp_run.report.omega_c == 6.0

    def test_each_stage_computed_once(self, monkeypatch):
        calls = []
        for name in ("classical_value", "fine_grained_relations"):
            original = getattr(na, name)

            def counted(spec, *args, _name=name, _original=original):
                calls.append((_name, *args[:1]))
                return _original(spec, *args)

            # patch every module of the package that imported the function
            for module in list(sys.modules.values()):
                in_package = getattr(module, "__name__", "").startswith("nonlocal_audit")
                if in_package and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        na.run_analyze("g1")
        assert sorted(calls, key=str) == [
            ("classical_value",),
            ("fine_grained_relations", na.Side.ALICE_STEERS_BOB),
            ("fine_grained_relations", na.Side.BOB_STEERS_ALICE),
        ]

    def test_unknown_game_raises(self):
        from nonlocal_audit.errors import UnknownGameError

        with pytest.raises(UnknownGameError):
            na.run_analyze("nosuchgame")

    def test_file_game(self, tmp_path, chsh_spec):
        path = tmp_path / "mychsh.json"
        na.save_game(chsh_spec, path)
        run = na.run_analyze(str(path), AnalysisOptions(grid_points=121))
        assert run.method == "planar_grid"
        assert abs(run.solution.value - (2.0 + math.sqrt(2.0)) / 4.0) <= 1e-7
        assert run.report.correspondence_holds

    def test_file_with_catalog_id_but_other_tables(self, tmp_path, g1_spec, chsh_spec):
        # a modified game reusing the id "g1" must not get g1's closed form
        import numpy as np

        variant = na.GameSpec(
            id="g1", n_x=2, n_y=2, n_a=2, n_b=2,
            predicate=chsh_spec.predicate, input_dist=chsh_spec.input_dist,
        )
        path = tmp_path / "variant.json"
        na.save_game(variant, path)
        run = na.run_analyze(str(path), AnalysisOptions(grid_points=121))
        assert run.method == "planar_grid"
        assert abs(run.solution.value - (2.0 + math.sqrt(2.0)) / 4.0) <= 1e-7

    def test_residual_only_for_catalog_tables(self, tmp_path, chsh_spec):
        # a charpoly residual belongs to the catalog tables, not to the id
        variant = na.GameSpec(
            id="g1", n_x=2, n_y=2, n_a=2, n_b=2,
            predicate=chsh_spec.predicate, input_dist=chsh_spec.input_dist,
        )
        path = tmp_path / "variant.json"
        na.save_game(variant, path)
        run = na.run_analyze(str(path), AnalysisOptions(grid_points=121))
        assert json.loads(na.render_report(run, "json"))["quantum"]["residual"] is None
        catalog = na.run_analyze("g1", AnalysisOptions(grid_points=121, closed_form=False))
        assert catalog.method == "planar_grid"
        assert abs(catalog.solution.residual) <= 1e-9

    def test_file_matching_catalog_gets_closed_form(self, tmp_path, g1_spec):
        path = tmp_path / "same-g1.json"
        na.save_game(g1_spec, path)
        run = na.run_analyze(str(path))
        assert run.method == "closed_form"


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
        from nonlocal_audit.report import canonical_json

        again = canonical_json(doc) + "\n"
        assert again == text

    def test_round_trip_negative_zero(self):
        from nonlocal_audit.report import canonical_json

        text = canonical_json({"re": [-0.0, 0.5], "im": [-0.0, 0.0]})
        assert text == '{"re":[0,0.5],"im":[0,0]}'
        assert canonical_json(json.loads(text)) == text

    def test_round_trip_matches_run_values(self, g1_run):
        doc = json.loads(na.render_report(g1_run, "json"))
        assert abs(doc["verdict"]["up_bound"] - g1_run.report.up_bound) <= 1e-9
        quantum = {v["convention"]: v["value"] for v in doc["quantum"]["value"]}
        assert abs(quantum["normalized"] - g1_run.solution.value) <= 1e-9 * max(
            1.0, abs(g1_run.solution.value)
        )

    def test_byte_identical_reports(self):
        first = na.render_report(na.run_analyze("g1"), "json")
        second = na.render_report(na.run_analyze("g1"), "json")
        assert first == second

    def test_byte_identical_with_grid(self, tmp_path, chsh_spec):
        path = tmp_path / "chsh.json"
        na.save_game(chsh_spec, path)
        options = AnalysisOptions(grid_points=121)
        first = na.render_report(na.run_analyze(str(path), options), "json")
        second = na.render_report(na.run_analyze(str(path), options), "json")
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

    def test_options_keys(self, g1_run):
        doc = json.loads(na.render_report(g1_run, "json"))
        assert list(doc["options"]) == ["grid_points", "closed_form"]

    def test_wall_time_not_in_json(self, g1_run):
        doc = run_document(g1_run)
        assert "wall_time" not in json.dumps(doc)

    def test_twelve_significant_digits(self, g1_run):
        doc = json.loads(na.render_report(g1_run, "json"))
        quantum = {v["convention"]: v["value"] for v in doc["quantum"]["value"]}
        assert abs(quantum["normalized"] - OMEGA_Q_G1) <= 1e-11


class TestTextReport:
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
        verdicts = na.saturation_report(g1_spec, strat, na.Side.ALICE_STEERS_BOB)
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
        assert main(["quantum", "g1", "--closed-form"]) == 0
        out = capsys.readouterr().out
        assert "0.544598646541" in out
        assert "residual" in out

    def test_quantum_cglmp_fixed_strategy(self, capsys):
        assert main(["quantum", "cglmp"]) == 0
        assert "[fixed_catalog_strategy]" in capsys.readouterr().out

    def test_closed_form_refused_for_other_games(self, capsys):
        assert main(["quantum", "cglmp", "--closed-form"]) == 2
        assert "--closed-form" in capsys.readouterr().err

    def test_analyze_closed_form_refused_like_quantum(self, capsys):
        assert main(["analyze", "chsh", "--closed-form"]) == 2
        analyze_err = capsys.readouterr().err
        assert "--closed-form" in analyze_err
        assert main(["quantum", "chsh", "--closed-form"]) == 2
        assert capsys.readouterr().err == analyze_err
        assert main(["analyze", "g1", "--closed-form", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["quantum"]["method"] == "closed_form"

    def test_closed_stdout_exits_1_quietly(self, capsys, monkeypatch):
        class ClosedPipe:
            def write(self, _text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["list-games"]) == 1
        with sys.stdout as switched:
            assert switched.name == os.devnull
        assert "error" not in capsys.readouterr().err

    def test_uncertainty(self, capsys):
        assert main(["uncertainty", "g2", "--side", "alice"]) == 0
        out = capsys.readouterr().out
        assert "pair (1,0)" in out
        assert "0.823244" in out

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

    def test_unknown_game_exit_code(self, capsys):
        assert main(["analyze", "nosuchgame"]) == 2
        err = capsys.readouterr().err
        assert "nosuchgame" in err

    def test_invalid_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["classical", str(path)]) == 2

    def test_bad_usage_exit_code(self, capsys):
        assert main(["uncertainty", "g1"]) == 2  # missing --side
        capsys.readouterr()

    @pytest.mark.parametrize("grid", ["32", "0", "-5", str(GRID_MAX + 1)])
    @pytest.mark.parametrize("command", [
        ["quantum", "chsh"],
        ["uncertainty", "chsh", "--side", "alice"],
        ["steer", "chsh"],
        ["analyze", "chsh"],
    ])
    def test_grid_out_of_range_exit_code(self, capsys, command, grid):
        assert main([*command, "--grid", grid]) == 2
        assert "argument --grid" in capsys.readouterr().err

    def test_grid_cap_accepted_at_parse_time(self):
        args = build_parser().parse_args(["analyze", "chsh", "--grid", str(GRID_MAX)])
        assert args.grid == GRID_MAX

    @pytest.mark.parametrize("raw", ["abc", "-3"])
    def test_bad_thread_setting_exit_code(self, capsys, monkeypatch, raw):
        # The thread setting is gone: a value that used to exit 2 is not read.
        assert main(["quantum", "chsh", "--grid", "64"]) == 0
        expected = capsys.readouterr()
        monkeypatch.setenv("NONLOCAL_AUDIT_THREADS", raw)
        assert main(["quantum", "chsh", "--grid", "64"]) == 0
        assert capsys.readouterr() == expected

    def test_parser_built_once_and_reused(self, capsys):
        calls = [
            ["classical", "g1"],
            ["quantum", "chsh", "--grid", "32"],
            ["quantum", "g1", "--closed-form"],
            ["list-games"],
            ["steer", "chsh", "--grid", "64"],
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
        assert "argument --grid" in reused[1][2]
