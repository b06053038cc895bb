"""Predicate entries against an independent per-entry reference loop.

``game_from_dict`` checks each predicate entry of a game file in turn. The
loop below checks them again with its own code, writing each refusal as
docs/game-file-format.md states it. Both must give the same table, or
refuse with the same message: the same entry, and the same first fault in
it.

A game file that repeats a key in any of its objects is refused as a whole.
"""

import enum

import numpy as np
import pytest

from nonlocal_audit.cli import main
from nonlocal_audit.errors import ParseError, ValidationError
from nonlocal_audit.games import GameSpec, game_from_dict, load_game, validate_game

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


class Label(enum.IntEnum):
    ZERO = 0
    ONE = 1


class Entry(dict):
    pass


def shown(value) -> str:
    """A refusal echoes at most 40 characters of a value, a cut marked by '...'."""
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def malformed(field: str, exc: Exception) -> ParseError:
    return ParseError(f"{field}: malformed ({exc!r})")


def reference_table(entries, shape) -> np.ndarray:
    """The predicate table read one entry at a time, each entry checked in full:
    its keys, then its four indices, then a repeat, then its weight."""
    table = np.zeros(tuple(max(n, 0) for n in shape))
    first_entry = {}
    for k, entry in enumerate(entries):
        field = f"predicate[{k}]"
        if not isinstance(entry, dict):
            raise malformed(field, TypeError(f"{shown(entry)} is not an object"))
        for key in entry:
            if key not in ("x", "y", "a", "b", "v"):
                plain = isinstance(key, str) and key.isidentifier() and len(key) <= 40
                raise ValidationError([f"{field}.{key if plain else shown(key)}: unknown field"])
        for key in "xyab":
            if key not in entry:
                raise malformed(field, KeyError(key))
        index = tuple(entry[key] for key in "xyab")
        for key, i, n in zip("xyab", index, shape):
            # a JSON integer: bool is an int in Python but not in JSON
            if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < n:
                raise ValidationError([f"{field}.{key}: {shown(i)} is not an index in [0, {n})"])
        if index in first_entry:
            raise ValidationError([
                f"{field}: duplicates predicate[{first_entry[index]}] at (x, y, a, b) = {index}"])
        first_entry[index] = k
        if "v" not in entry:
            raise malformed(field, KeyError("v"))
        v = entry["v"]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValidationError([f"{field}.v: {shown(v)} is not a number"])
        try:
            table[index] = float(v)
        except OverflowError:
            raise ValidationError([f"{field}.v: integer outside the float range"]) from None
    return table


def reference_game(doc) -> GameSpec:
    n_x, n_y = doc["inputs"]
    n_a, n_b = doc["outputs"]
    spec = GameSpec(id=doc["id"],
                    predicate=reference_table(doc["predicate"], (n_x, n_y, n_a, n_b)),
                    input_dist=np.array(doc["pi"], dtype=float), binary_predicate=False)
    violations = validate_game(spec)
    if violations:
        raise ValidationError(violations)
    return spec


def _outcome(load, doc):
    try:
        return "table", load(doc).predicate.tobytes()
    except (ParseError, ValidationError) as exc:
        return type(exc).__name__, str(exc)


ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 5), st.floats(), st.text("x1", max_size=2),
    st.sampled_from([Label.ZERO, Label.ONE, np.int64(1), np.float64(0.5)]),
    st.sampled_from([10**400, -(10**400), 2**1024 - 2**971, 2**1024 - 2**970, 2**63,
                     [], {}, [0, 1]]),
)


# Valid weights: JSON integers, among them one that rounds to a float
# (2**53 + 1), floats, and both ends of the weight range.
WEIGHTS = st.sampled_from([1, 1.0, 0.5, 0, 2**53 + 1, 1e-100, 1e100])


@st.composite
def entry_lists(draw):
    shape = tuple(draw(st.integers(1, 3)) for _ in range(4))
    index = st.tuples(*(st.integers(0, n - 1) for n in shape))
    entries = [{"x": x, "y": y, "a": a, "b": b, "v": draw(WEIGHTS)}
               for x, y, a, b in draw(st.lists(index, min_size=1, max_size=30, unique=True))]
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(entries) - 1))
        fault = draw(st.sampled_from(
            ["index", "weight", "drop", "extra", "replace", "subclass", "repeat"]))
        if fault == "replace":
            entries[k] = draw(ODD_VALUES)
        elif fault == "repeat":
            entries.insert(draw(st.integers(k + 1, len(entries))), entries[k])
        elif not isinstance(entries[k], dict):
            continue
        elif fault == "index":
            axis = draw(st.integers(0, 3))
            # one step past either end of the axis's range, or a bool, besides the odd values
            edges = st.sampled_from([-1, shape[axis], True, False])
            entries[k] = dict(entries[k], **{"xyab"[axis]: draw(st.one_of(edges, ODD_VALUES))})
        elif fault == "weight":
            entries[k] = dict(entries[k], v=draw(st.one_of(st.booleans(), ODD_VALUES)))
        elif fault == "drop":
            dropped = draw(st.sampled_from("xyabv"))
            entries[k] = {key: v for key, v in entries[k].items() if key != dropped}
        elif fault == "extra":
            entries[k] = dict(entries[k], w=1)
        else:
            entries[k] = Entry(entries[k])
    return entries, shape


# The drawn lists hold at least one entry; the empty list is the explicit example.
@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(entry_lists())
@example(([], (2, 1, 3, 1)))
def test_entries_read_as_the_reference_loop_reads_them(case):
    entries, (n_x, n_y, n_a, n_b) = case
    doc = {"id": "entries", "inputs": [n_x, n_y], "outputs": [n_a, n_b],
           "pi": [[1.0 / (n_x * n_y)] * n_y for _ in range(n_x)], "predicate": entries,
           "binary_predicate": False}
    assert _outcome(game_from_dict, doc) == _outcome(reference_game, doc)


EDGE_SHAPE = (2, 3, 2, 3)


@pytest.mark.parametrize("key, n, i", [
    (key, n, i) for key, n in zip("xyab", EDGE_SHAPE) for i in (-1, n)
])
def test_index_one_step_past_its_range_is_refused(key, n, i):
    # The draws above seldom put an index at either edge of its range; each
    # edge on each axis is refused here by name, with its range.
    entry = {"x": 0, "y": 0, "a": 0, "b": 0, "v": 1.0, key: i}
    doc = {"id": "edge", "inputs": [2, 3], "outputs": [2, 3],
           "pi": [[1.0 / 6] * 3 for _ in range(2)], "predicate": [entry],
           "binary_predicate": False}
    with pytest.raises(ValidationError) as refusal:
        game_from_dict(doc)
    assert refusal.value.violations == [f"predicate[0].{key}: {i} is not an index in [0, {n})"]


REPEATED_V = ('{"id": "repeat", "inputs": [1, 1], "outputs": [1, 1], "pi": [[1.0]], '
              '"predicate": [{"x": 0, "y": 0, "a": 0, "b": 0, "v": 1%s}]}')


def test_repeated_key_is_refused(tmp_path, capsys):
    path = tmp_path / "repeat.json"
    path.write_text(REPEATED_V % "")
    assert load_game(path).predicate[0, 0, 0, 0] == 1.0
    path.write_text(REPEATED_V % ', "v": 0')
    with pytest.raises(ParseError, match=r"repeat\.json: an object repeats the key 'v'$"):
        load_game(path)
    assert main(["classical", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: an object repeats the key 'v'\n"
    path.write_text('{"id": "a", "id": "a"}')
    with pytest.raises(ParseError, match="repeats the key 'id'"):
        load_game(path)
