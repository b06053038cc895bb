"""Fuzz of the game-file boundary: any JSON-shaped document is a game or a usage error.

``game_from_dict`` must return a ``GameSpec`` or raise ``ParseError`` or
``ValidationError`` (both exit 2 in the CLI); any other exception, or a
numpy warning, is a defect. Documents are free-form JSON values and
near-valid games with sizes up to 4 and a few fields replaced or removed.
"""

import math
import warnings

import pytest

from nonlocal_audit.errors import ParseError, ValidationError
from nonlocal_audit.games import GameSpec, game_from_dict

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

FIELDS = ("id", "inputs", "outputs", "pi", "predicate", "binary_predicate")
ENTRY_KEYS = ("x", "y", "a", "b", "v")

NUMBERS = st.one_of(
    st.integers(),
    st.floats(),
    st.sampled_from([0, 1, 0.5, -1, 10**400, -(10**400), 1e308]),
)
# A fixed alphabet: arbitrary text makes Hypothesis build a Unicode table (seconds).
TEXT = st.text(alphabet="abxyv01 .-é", max_size=4)
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), NUMBERS, TEXT),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.one_of(st.sampled_from(FIELDS + ENTRY_KEYS), TEXT),
                        inner, max_size=5),
    ),
    max_leaves=6,
)


@st.composite
def near_valid_games(draw):
    n_x, n_y, n_a, n_b = (draw(st.integers(1, 4)) for _ in range(4))
    indices = st.tuples(*(st.integers(0, n - 1) for n in (n_x, n_y, n_a, n_b)))
    weight = st.one_of(st.sampled_from([0, 1, 1.0]), NUMBERS)
    doc = {
        "id": "fuzz",
        "inputs": [n_x, n_y],
        "outputs": [n_a, n_b],
        "pi": [[1.0 / (n_x * n_y)] * n_y for _ in range(n_x)],
        "predicate": [
            {"x": x, "y": y, "a": a, "b": b, "v": draw(weight)}
            for x, y, a, b in draw(st.lists(indices, max_size=6, unique=True))
        ],
        "binary_predicate": draw(st.booleans()),
    }
    for _ in range(draw(st.integers(0, 3))):
        value = draw(st.one_of(JSON, st.integers(-1, 5)))
        target = draw(st.sampled_from(["field", "drop", "size", "pi", "entry"]))
        if target == "field":
            doc[draw(st.sampled_from(FIELDS))] = value
        elif target == "drop":
            doc.pop(draw(st.sampled_from(FIELDS)), None)
        elif target == "size" and isinstance(doc.get("inputs"), list) and doc["inputs"]:
            doc["inputs"][draw(st.integers(0, len(doc["inputs"]) - 1))] = value
        elif target == "pi" and isinstance(doc.get("pi"), list) and doc["pi"]:
            row = doc["pi"][draw(st.integers(0, len(doc["pi"]) - 1))]
            if isinstance(row, list) and row:
                row[draw(st.integers(0, len(row) - 1))] = value
        elif target == "entry" and isinstance(doc.get("predicate"), list) and doc["predicate"]:
            entry = doc["predicate"][draw(st.integers(0, len(doc["predicate"]) - 1))]
            if isinstance(entry, dict):
                entry[draw(st.sampled_from(ENTRY_KEYS))] = value
    return doc


def _game_or_usage_error(doc) -> None:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = game_from_dict(doc)
    except (ParseError, ValidationError):
        return
    assert isinstance(spec, GameSpec)
    assert math.isclose(float(spec.input_dist.sum()), 1.0, abs_tol=1e-12)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.one_of(JSON, st.dictionaries(st.sampled_from(FIELDS), JSON)))
def test_free_form_json(doc):
    _game_or_usage_error(doc)


@settings(derandomize=True, deadline=None, database=None, max_examples=120)
@given(near_valid_games())
def test_near_valid_games(doc):
    _game_or_usage_error(doc)
