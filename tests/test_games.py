"""Catalog content, validation, and the JSON game-file round trip."""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import nonlocal_audit as na
from nonlocal_audit.cli import main
from nonlocal_audit.errors import ParseError, UnknownGameError, ValidationError
from nonlocal_audit.games import PI_SUM_ATOL, game_from_dict, game_to_dict, swap_parties

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the Hypothesis test below is skipped, the others run
    given = None

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


if given is not None:
    @st.composite
    def input_dists(draw) -> na.GameSpec:
        """An unvalidated spec whose pi is uniform but for a few drawn entries,
        some off by PI_SUM_ATOL or by the next float beyond it; its shape is the
        predicate's (x, y) axes or, at times, another one, empty included."""
        n_x, n_y = draw(st.integers(1, 4)), draw(st.integers(1, 5))
        target = 1.0 / (n_x * n_y)
        shape = draw(st.one_of(st.just((n_x, n_y)),
                               st.tuples(st.integers(0, 5), st.integers(0, 5))))
        pi = np.full(shape, target)
        high, low = target + PI_SUM_ATOL, target - PI_SUM_ATOL
        odd = st.sampled_from([high, low, np.nextafter(high, np.inf), np.nextafter(low, -np.inf),
                               np.nan, np.inf, -np.inf, 0.0])
        if pi.size:
            for _ in range(draw(st.integers(0, 3))):
                at = draw(st.integers(0, pi.size - 1))
                pi.flat[at] = draw(st.one_of(odd, st.floats()))
        return na.GameSpec(id="pi", predicate=np.zeros((n_x, n_y, 1, 1)), input_dist=pi)

    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(input_dists())
    def test_is_uniform_is_allclose_to_one_over_the_input_pairs(spec):
        expected = np.allclose(spec.input_dist, 1 / (spec.n_x * spec.n_y),
                               rtol=0, atol=PI_SUM_ATOL)
        assert spec.is_uniform() is bool(expected)


def test_unknown_game():
    with pytest.raises(UnknownGameError) as info:
        na.builtin_game("nosuchgame")
    assert str(info.value) == "unknown game 'nosuchgame'; catalog ids are g1, g2, chsh, cglmp"


@pytest.mark.parametrize("call, shown", [
    (lambda: na.builtin_game(["g1"]), "['g1']"),
    (lambda: na.builtin_game(None), "None"),
    (lambda: na.builtin_game(1), "1"),
    (lambda: na.closed_form_optimum(na.builtin_game("g1")),
     "GameSpec(id='g1', predicate=array([[[..."),
], ids=["list", "none", "int", "spec"])
def test_unknown_game_not_a_string(call, shown):
    with pytest.raises(UnknownGameError) as info:
        call()
    assert str(info.value) == f"unknown game {shown}; catalog ids are g1, g2, chsh, cglmp"


def test_catalog_validates():
    for game_id, entry in na.catalog().items():
        assert na.validate_game(entry.spec) == []
        assert entry.provenance


@pytest.mark.parametrize("game_id", na.GAME_IDS)
def test_catalog_spec_shared_and_readonly(game_id):
    spec = na.builtin_game(game_id)
    assert na.builtin_game(game_id) is spec
    for table in (spec.predicate, spec.input_dist):
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 0.5


def test_catalog_returns_a_new_dict():
    entries = na.catalog()
    del entries["g1"]
    assert na.builtin_game("g1").id == "g1"
    assert na.GAME_IDS == ("g1", "g2", "chsh", "cglmp")
    assert tuple(na.catalog()) == na.GAME_IDS


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
        id="bad",
        predicate=g1_spec.predicate, input_dist=pi,
    )
    violations = na.validate_game(spec)
    assert any("pi[0][0]" in v for v in violations)


def test_validate_empty_output_set(g1_spec):
    spec = na.GameSpec(
        id="bad",
        predicate=np.zeros((2, 2, 0, 2)), input_dist=g1_spec.input_dist,
    )
    violations = na.validate_game(spec)
    assert violations == ["n_a: empty output set"]


def test_validate_binary_range(g1_spec):
    pred = np.array(g1_spec.predicate)
    pred[0, 0, 0, 0] = 2.0
    spec = na.GameSpec(
        id="bad",
        predicate=pred, input_dist=g1_spec.input_dist,
    )
    violations = na.validate_game(spec)
    assert len(violations) == 1
    assert "outside {0, 1}" in violations[0]


@pytest.mark.parametrize("field, value, message", [
    ("id", "", "id: must be a non-empty string"),
    ("input_dist", np.full((2, 3), 1.0 / 6.0), "pi: expected shape (2, 2), got (2, 3)"),
    ("predicate", np.zeros((2, 2, 2)), "predicate: expected 4 axes (x, y, a, b), got shape (2, 2, 2)"),
], ids=["id", "pi", "predicate"])
def test_validate_built_spec_names_field(g1_spec, field, value, message):
    spec = replace(g1_spec, **{field: value})
    assert na.validate_game(spec) == [message]


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
    spec = na.GameSpec(id="bad", predicate=pred, input_dist=pi)
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
    weighted = na.GameSpec(id="bad", predicate=pred,
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
        elif v != 0.0 and not 1e-100 <= v <= 1e100:
            violations.append(f"{where}: weight {float(v)} outside [1e-100, 1e+100]")
    return violations


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("binary", [True, False])
def test_validate_matches_entry_loop(binary):
    rng = np.random.default_rng(31)
    entries = [0.0, 1.0, 0.5, -2.0, np.nan, np.inf, -np.inf, 1e300, 1e-300]
    weights = [0.4, 0.3, 0.1, 0.05, 0.05, 0.03, 0.03, 0.02, 0.02]
    for _ in range(20):
        pred = rng.choice(entries, size=(3, 2, 2, 3), p=weights)
        pi = rng.choice(entries[:7], size=(3, 2), p=[0.4, 0.3, 0.1, 0.1, 0.04, 0.03, 0.03])
        spec = na.GameSpec(id="random", predicate=pred, input_dist=pi, binary_predicate=binary)
        expected = _entry_violations_by_loop(spec)
        assert [v for v in na.validate_game(spec) if not v.startswith("pi: ")] == expected


@pytest.mark.parametrize("pi, total", [
    ([[np.inf, -np.inf]], "nan"),
    ([[1e308, 1e308]], "inf"),
])
def test_validate_pi_sum_without_numpy_warnings(pi, total):
    spec = na.GameSpec(id="sum", predicate=np.zeros((1, 2, 1, 1)), input_dist=np.array(pi))
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


@pytest.mark.parametrize("game_id", na.GAME_IDS)
def test_sizes_are_the_predicate_axes(tmp_path, game_id):
    spec = na.builtin_game(game_id)
    path = tmp_path / f"{game_id}.json"
    na.save_game(spec, path)
    for game in (spec, swap_parties(spec), na.load_game(path)):
        assert (game.n_x, game.n_y, game.n_a, game.n_b) == game.predicate.shape
    # weights is pi * V, and swapping the parties transposes it bit for bit
    assert np.array_equal(spec.weights, spec.input_dist[:, :, None, None] * spec.predicate)
    assert np.array_equal(swap_parties(spec).weights, spec.weights.transpose(1, 0, 3, 2))


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


@pytest.mark.parametrize("weight", [1e308, 1e101, 1e-310])
def test_weight_outside_range_exit_2(tmp_path, capsys, weight):
    # past the range the planar Newton polish overflowed with a numpy warning
    doc = {"id": "weighted", "inputs": [2, 2], "outputs": [2, 2],
           "pi": [[0.25, 0.25], [0.25, 0.25]], "binary_predicate": False,
           "predicate": [{"x": 0, "y": 0, "a": 0, "b": 0, "v": weight},
                         {"x": 1, "y": 1, "a": 1, "b": 1, "v": weight}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: predicate[x=0,y=0,a=0,b=0]: weight {weight} outside "
                          "[1e-100, 1e+100]")


def _set(path, value):
    def corrupt(doc):
        *keys, last = path
        target = doc
        for key in keys:
            target = target[key]
        target[last] = value
    return corrupt


_LONG_TEXT = "z" * 100_000


@pytest.mark.parametrize("corrupt, field", [
    (_set(("predicate", 0, "x"), 10**400), "predicate[0].x"),
    (_set(("inputs", 0), 10**400), "inputs"),
    (_set(("pi", 0, 1), _LONG_TEXT), "pi[0][1]"),
    (_set(("binary_predicate",), _LONG_TEXT), "binary_predicate"),
], ids=["index", "inputs", "pi", "binary_predicate"])
def test_game_file_huge_value_not_echoed(tmp_path, capsys, g1_spec, corrupt, field):
    doc = game_to_dict(g1_spec)
    corrupt(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["classical", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}") and len(err.encode()) < 300


@pytest.mark.parametrize("game_id", [None, 5, True, {"a": 1}, ["g1"]],
                         ids=["null", "number", "boolean", "object", "array"])
def test_game_file_id_not_a_string_exit_2(tmp_path, capsys, g1_spec, game_id):
    # str() read these as the games 'None', '5', 'True', ...
    doc = game_to_dict(g1_spec)
    doc["id"] = game_id
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["classical", str(path)]) == 2
    assert capsys.readouterr().err == f"error: id: {game_id!r} is not a string\n"


def _replaced(path, value):
    def corrupt(doc):
        _set(path, value)(doc)
        return doc
    return corrupt


@pytest.mark.parametrize("corrupt, field", [
    (_replaced(("inputs",), [2, 2, 5]), "inputs"),
    (_replaced(("outputs",), 4), "outputs"),
    (_replaced(("pi",), 0.25), "pi"),
    (_replaced(("pi",), [[0.5], [0.25, 0.25]]), "pi"),
    (_replaced(("predicate",), {"x": 0}), "predicate"),
    (_replaced(("predicate", 0), [0, 0, 0, 0, 1]), "predicate[0]"),
    (lambda doc: [doc], "game document"),
], ids=["inputs", "outputs", "pi-number", "pi-ragged", "predicate-object", "entry-array",
        "document-array"])
def test_structural_fault_names_field(tmp_path, capsys, g1_spec, corrupt, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(corrupt(game_to_dict(g1_spec))))
    assert main(["classical", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: malformed (") and err.count("\n") == 1


@pytest.mark.parametrize("corrupt, message", [
    (_set(("binary_predicat",), False), "binary_predicat: unknown field"),
    (_set(("predicate", 3, "w"), 5), "predicate[3].w: unknown field"),
    (_set(("bad key",), 1), "'bad key': unknown field"),
    (_set(("predicate", 0, _LONG_TEXT), 1), "predicate[0].'" + "z" * 36 + "...: unknown field"),
], ids=["top-level", "entry", "not-an-identifier", "long"])
def test_game_file_unknown_field_exit_2(tmp_path, capsys, g1_spec, corrupt, message):
    # a misspelt field was dropped unread: "binary_predicat" loaded as binary
    doc = game_to_dict(g1_spec)
    corrupt(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["classical", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("pi, field", [
    ("ab", "pi"),
    ({"0": [0.5, 0.5]}, "pi"),
    ([[0.25, 0.25], {"0": 0.25, "1": 0.25}], "pi[1]"),
], ids=["string", "object", "row-object"])
def test_game_file_pi_not_an_array_exit_2(tmp_path, capsys, g1_spec, pi, field):
    # iterated as an array, these were refused as pi[0][0]: 'a' is not a number
    doc = game_to_dict(g1_spec)
    doc["pi"] = pi
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["classical", str(path)]) == 2
    shown = repr(pi if field == "pi" else pi[1])
    assert capsys.readouterr().err == (
        f"error: {field}: malformed ({TypeError(f'{shown} is not an array')!r})\n")


@pytest.mark.parametrize("field", ["inputs", "outputs"])
@pytest.mark.parametrize("sizes", ["22", {"a": 2, "b": 2}], ids=["string", "object"])
def test_game_file_sizes_not_an_array_exit_2(tmp_path, capsys, g1_spec, field, sizes):
    # unpacked as an array, these were refused as inputs[0]: '2' is not an integer
    doc = game_to_dict(g1_spec)
    doc[field] = sizes
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["classical", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {field}: malformed ({TypeError(f'{sizes!r} is not an array')!r})\n")


@pytest.mark.parametrize("field, sizes, message", [
    ("outputs", [0, 2], "n_a: empty output set"),
    ("outputs", [-1, 2], "n_a: empty output set"),
    ("inputs", [2, 0], "n_y: empty input set"),
    ("inputs", [0, 2000000], "n_x: empty input set"),
    ("outputs", [0, 2000000], "n_a: empty output set"),
    ("inputs", [0, 10**30], "n_x: empty input set"),
    ("outputs", [0, 10**30], "n_a: empty output set"),
], ids=["outputs-zero", "outputs-negative", "inputs-zero", "inputs-zero-by-2e6",
        "outputs-zero-by-2e6", "inputs-zero-by-1e30", "outputs-zero-by-1e30"])
def test_game_file_empty_sizes_exit_2(tmp_path, capsys, g1_spec, field, sizes, message):
    # no entry can index an empty axis, so the document lists none; an empty
    # axis is named as such, not as a table over the size limit
    doc = dict(game_to_dict(g1_spec), predicate=[], **{field: sizes})
    with pytest.raises(ValidationError) as info:
        game_from_dict(doc)
    assert info.value.violations == [message]
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


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
