"""Catalog content, validation, and the JSON game-file round trip."""

import json
import math
import warnings

import numpy as np
import pytest

import nonlocal_audit as na
from nonlocal_audit.cli import main
from nonlocal_audit.errors import ParseError, UnknownGameError, ValidationError
from nonlocal_audit.games import game_from_dict, game_to_dict, swap_parties

G1_WINS = {(0, 0, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0), (1, 1, 0, 1)}
G2_WINS = {
    (0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0),
    (1, 0, 0, 1), (1, 0, 1, 0), (1, 1, 0, 1),
}


def _unit_entries(spec):
    return {
        idx
        for idx in np.ndindex(*spec.predicate.shape)
        if spec.predicate[idx] == 1.0
    }


def test_g1_predicate_entries(g1_spec):
    assert _unit_entries(g1_spec) == G1_WINS
    assert float(g1_spec.predicate.sum()) == 5.0


def test_g2_predicate_entries(g2_spec):
    assert _unit_entries(g2_spec) == G2_WINS
    assert float(g2_spec.predicate.sum()) == 7.0


def test_chsh_predicate(chsh_spec):
    for x, y, a, b in np.ndindex(2, 2, 2, 2):
        expected = 1.0 if (a ^ b) == x * y else 0.0
        assert chsh_spec.predicate[x, y, a, b] == expected


def test_cglmp_predicate_weights(cglmp_spec):
    pred = cglmp_spec.predicate
    assert not cglmp_spec.binary_predicate
    assert set(np.unique(pred)) == {0.0, 1.0, 2.0}
    # weight-2 outcome classes: a = b on the first three input pairs,
    # a = b + 2 (mod 3) on (1, 1)
    for b in range(3):
        assert pred[0, 0, b, b] == 2.0
        assert pred[0, 1, b, b] == 2.0
        assert pred[1, 0, b, b] == 2.0
        assert pred[1, 1, (b + 2) % 3, b] == 2.0
        assert pred[0, 0, (b + 2) % 3, b] == 1.0
        assert pred[0, 1, (b + 1) % 3, b] == 1.0
        assert pred[1, 0, (b + 1) % 3, b] == 1.0
        assert pred[1, 1, (b + 1) % 3, b] == 1.0
    # per input pair: one weight-2 and one weight-1 class of three entries each
    assert float(pred.sum()) == 4 * (3 * 2.0 + 3 * 1.0)


def test_uniform_input_distribution():
    for game_id in na.GAME_IDS:
        spec = na.builtin_game(game_id)
        assert spec.is_uniform()
        assert abs(float(spec.input_dist.sum()) - 1.0) <= 1e-12


def test_unknown_game():
    with pytest.raises(UnknownGameError):
        na.builtin_game("nosuchgame")


def test_catalog_validates():
    for game_id, entry in na.catalog().items():
        assert na.validate_game(entry.spec) == []
        assert entry.provenance


def test_catalog_known_values():
    entries = na.catalog()
    assert entries["g1"].known_classical_value == 0.5
    assert entries["g2"].known_classical_value == 0.75
    assert entries["cglmp"].known_classical_value == 6.0
    assert entries["cglmp"].value_convention == "raw_sum"


def test_validate_negative_pi(g1_spec):
    pi = np.array(g1_spec.input_dist)
    pi[0, 0] = -0.25
    pi[1, 1] = 0.75
    spec = na.GameSpec(
        id="bad", n_x=2, n_y=2, n_a=2, n_b=2,
        predicate=g1_spec.predicate, input_dist=pi,
    )
    violations = na.validate_game(spec)
    assert any("pi[0][0]" in v for v in violations)


def test_validate_empty_output_set(g1_spec):
    spec = na.GameSpec(
        id="bad", n_x=2, n_y=2, n_a=0, n_b=2,
        predicate=g1_spec.predicate, input_dist=g1_spec.input_dist,
    )
    violations = na.validate_game(spec)
    assert violations == ["n_a: empty output set"]


def test_validate_binary_range(g1_spec):
    pred = np.array(g1_spec.predicate)
    pred[0, 0, 0, 0] = 2.0
    spec = na.GameSpec(
        id="bad", n_x=2, n_y=2, n_a=2, n_b=2,
        predicate=pred, input_dist=g1_spec.input_dist,
    )
    violations = na.validate_game(spec)
    assert len(violations) == 1
    assert "outside {0, 1}" in violations[0]


def test_validate_mixed_faults_in_table_order():
    # Every fault kind in one table; each entry names only its first fault,
    # and the messages follow C order of (x, y, a, b) and then of (x, y).
    pred = np.zeros((2, 2, 2, 2))
    pred[0, 0, 0, 1] = 0.5
    pred[0, 1, 1, 0] = np.nan
    pred[1, 0, 0, 0] = -1.0
    pred[1, 0, 1, 1] = -np.inf
    pred[1, 1, 0, 1] = 3.0
    pred[1, 1, 1, 1] = 1.0
    pi = np.array([[0.5, -0.25], [np.inf, 0.25]])
    spec = na.GameSpec(id="bad", n_x=2, n_y=2, n_a=2, n_b=2, predicate=pred, input_dist=pi)
    assert na.validate_game(spec) == [
        "pi[0][1]: negative probability",
        "pi[1][0]: not a finite number",
        "pi: entries sum to inf, expected 1",
        "predicate[x=0,y=0,a=0,b=1]: value 0.5 outside {0, 1}",
        "predicate[x=0,y=1,a=1,b=0]: weight nan is not finite",
        "predicate[x=1,y=0,a=0,b=0]: negative weight",
        "predicate[x=1,y=0,a=1,b=1]: weight -inf is not finite",
        "predicate[x=1,y=1,a=0,b=1]: value 3.0 outside {0, 1}",
    ]
    weighted = na.GameSpec(id="bad", n_x=2, n_y=2, n_a=2, n_b=2, predicate=pred,
                           input_dist=np.full((2, 2), 0.25), binary_predicate=False)
    assert na.validate_game(weighted) == [
        "predicate[x=0,y=1,a=1,b=0]: weight nan is not finite",
        "predicate[x=1,y=0,a=0,b=0]: negative weight",
        "predicate[x=1,y=0,a=1,b=1]: weight -inf is not finite",
    ]


def _entry_violations_by_loop(spec):
    # The per-entry loop validate_game used before its numpy masks: the reference.
    violations = []
    for x in range(spec.n_x):
        for y in range(spec.n_y):
            if not math.isfinite(spec.input_dist[x, y]):
                violations.append(f"pi[{x}][{y}]: not a finite number")
            elif spec.input_dist[x, y] < 0.0:
                violations.append(f"pi[{x}][{y}]: negative probability")
    for idx in np.ndindex(*spec.predicate.shape):
        v = spec.predicate[idx]
        where = "predicate[x={},y={},a={},b={}]".format(*idx)
        if not math.isfinite(v):
            violations.append(f"{where}: weight {float(v)} is not finite")
        elif v < 0.0:
            violations.append(f"{where}: negative weight")
        elif spec.binary_predicate and v not in (0.0, 1.0):
            violations.append(f"{where}: value {float(v)} outside {{0, 1}}")
    return violations


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("binary", [True, False])
def test_validate_matches_entry_loop(binary):
    rng = np.random.default_rng(31)
    entries = [0.0, 1.0, 0.5, -2.0, np.nan, np.inf, -np.inf]
    weights = [0.4, 0.3, 0.1, 0.05, 0.05, 0.05, 0.05]
    for _ in range(20):
        pred = rng.choice(entries, size=(3, 2, 2, 3), p=weights)
        pi = rng.choice(entries, size=(3, 2), p=[0.4, 0.3, 0.1, 0.1, 0.04, 0.03, 0.03])
        spec = na.GameSpec(id="random", n_x=3, n_y=2, n_a=2, n_b=3, predicate=pred,
                           input_dist=pi, binary_predicate=binary)
        expected = _entry_violations_by_loop(spec)
        assert [v for v in na.validate_game(spec) if not v.startswith("pi: ")] == expected


@pytest.mark.parametrize("pi, total", [
    ([[np.inf, -np.inf]], "nan"),
    ([[1e308, 1e308]], "inf"),
])
def test_validate_pi_sum_without_numpy_warnings(pi, total):
    spec = na.GameSpec(id="sum", n_x=1, n_y=2, n_a=1, n_b=1,
                       predicate=np.zeros((1, 2, 1, 1)), input_dist=np.array(pi))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        violations = na.validate_game(spec)
    assert f"pi: entries sum to {total}, expected 1" in violations


def test_predicate_is_readonly(g1_spec):
    with pytest.raises(ValueError):
        g1_spec.predicate[0, 0, 0, 0] = 0.0


def test_round_trip_bit_for_bit(tmp_path):
    for game_id in na.GAME_IDS:
        spec = na.builtin_game(game_id)
        path = tmp_path / f"{game_id}.json"
        na.save_game(spec, path)
        loaded = na.load_game(path)
        assert loaded.equals(spec)


def test_file_matching_builtin_table(tmp_path, g1_spec):
    doc = {
        "id": "g1",
        "inputs": [2, 2],
        "outputs": [2, 2],
        "pi": [[0.25, 0.25], [0.25, 0.25]],
        "predicate": [
            {"x": x, "y": y, "a": a, "b": b, "v": 1}
            for (x, y, a, b) in sorted(G1_WINS)
        ],
        "binary_predicate": True,
    }
    path = tmp_path / "g1.json"
    path.write_text(json.dumps(doc))
    assert na.load_game(path).equals(g1_spec)


def test_load_rejects_bad_normalization(tmp_path, g1_spec):
    doc = game_to_dict(g1_spec)
    doc["pi"] = [[0.25, 0.25], [0.25, 0.15]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as err:
        na.load_game(path)
    assert any("sum" in v for v in err.value.violations)


def test_load_rejects_weighted_entry_in_binary_mode(tmp_path, g1_spec):
    doc = game_to_dict(g1_spec)
    doc["predicate"][0]["v"] = 2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        na.load_game(path)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        na.load_game(path)


def test_load_missing_file():
    with pytest.raises(ParseError):
        na.load_game("/nonexistent/game.json")


def test_game_from_dict_missing_field(g1_spec):
    doc = game_to_dict(g1_spec)
    del doc["outputs"]
    with pytest.raises(ParseError):
        game_from_dict(doc)


def _nan_pi(doc):
    doc["pi"][0][0] = float("nan")


def _negative_index(doc):
    doc["predicate"][3]["x"] = -1


def _infinite_weight(doc):
    doc["binary_predicate"] = False
    doc["predicate"][0]["v"] = float("inf")


def _duplicate_entry(doc):
    doc["predicate"].append(dict(doc["predicate"][1], v=0))


def _fractional_size(doc):
    doc["inputs"] = [2.7, 2]


def _string_flag(doc):
    doc["binary_predicate"] = "false"


def _string_weight(doc):
    doc["predicate"][3]["v"] = "1"


def _boolean_weight(doc):
    doc["predicate"][3]["v"] = True


def _string_probability(doc):
    doc["pi"][0][1] = "0.25"


def _huge_inputs(doc):
    # numpy refuses a table this size without allocating it; the message
    # must name the field before any allocation is tried.
    doc["inputs"] = [1000000000, 1000000000]


def _huge_outputs(doc):
    doc["outputs"] = [2, 300000]


@pytest.mark.parametrize("corrupt, field", [
    (_nan_pi, "pi[0][0]"),
    (_negative_index, "predicate[3].x"),
    (_infinite_weight, "predicate[x=0,y=0,a=0,b=0]"),
    (_duplicate_entry, "predicate[5]: duplicates predicate[1]"),
    (_fractional_size, "inputs[0]"),
    (_string_flag, "binary_predicate: 'false' is not a boolean"),
    (_string_weight, "predicate[3].v: '1' is not a number"),
    (_boolean_weight, "predicate[3].v: True is not a number"),
    (_string_probability, "pi[0][1]: '0.25' is not a number"),
    (_huge_inputs, "inputs: [1000000000, 1000000000]"),
    (_huge_outputs, "inputs, outputs: [2, 2] x [2, 300000]"),
])
def test_game_file_holes_exit_2(tmp_path, capsys, g1_spec, corrupt, field):
    doc = game_to_dict(g1_spec)
    corrupt(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["classical", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


_HUGE_INT = "9" * 401  # beyond float range
_OVER_DIGIT_LIMIT = "1" * 5000  # beyond the digits int() reads


@pytest.mark.parametrize("replace, field", [
    (('"pi": [[0.25', f'"pi": [[{_HUGE_INT}'), "pi[0][0]: integer outside the float range"),
    (('"v": 1.0', f'"v": {_HUGE_INT}'), "predicate[0].v: integer outside the float range"),
    (('"v": 1.0', f'"v": {_OVER_DIGIT_LIMIT}'), "bad.json: an integer literal has too many digits"),
    (('"pi": [[0.25, 0.25]', '"pi": [[Infinity, -Infinity]'), "pi: entries sum to nan, expected 1"),
    (('"pi": [[0.25, 0.25]', '"pi": [[1e308, 1e308]'), "pi: entries sum to inf, expected 1"),
])
def test_game_file_number_faults_exit_2(tmp_path, capsys, g1_spec, replace, field):
    text = json.dumps(game_to_dict(g1_spec))
    assert replace[0] in text
    path = tmp_path / "bad.json"
    path.write_text(text.replace(replace[0], replace[1], 1))
    assert main(["classical", str(path)]) == 2
    err = capsys.readouterr().err
    # one line, naming the field or the file, without the huge value or a numpy warning
    assert err.startswith("error: ") and err.count("\n") == 1 and field in err
    assert "99999" not in err and "11111" not in err


@pytest.mark.parametrize("content, fault", [
    (b"\xff\xfe{}", "is not valid JSON: 'utf-8' codec can't decode"),
    (b"[" * 100000 + b"]" * 100000, "nested too deeply"),
], ids=["not-utf8", "deep-nesting"])
def test_unreadable_game_file_exit_2(tmp_path, capsys, content, fault):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["classical", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and fault in err


def test_swap_parties_involution(g2_spec):
    swapped = swap_parties(g2_spec)
    assert swapped.n_a == g2_spec.n_b
    back = swap_parties(swapped)
    assert np.array_equal(back.predicate, g2_spec.predicate)
    # predicate indices transpose as V'(b,a|y,x) = V(a,b|x,y)
    for x, y, a, b in np.ndindex(2, 2, 2, 2):
        assert swapped.predicate[y, x, b, a] == g2_spec.predicate[x, y, a, b]
