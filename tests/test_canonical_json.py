"""The canonical JSON writer against the recursive reference writer.

``report.canonical_json`` walks a document in one loop, with its scalar
forms in a table by exact type and each ``"key":`` text encoded once. The
recursion below, which it replaced, is the reference: on every document
both must give the same text, or both raise TypeError.
"""

import json

import numpy as np
import pytest

from nonlocal_audit.report import _fmt_real, canonical_json

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def reference_write(obj, out: list[str]) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(k))
            out.append(":")
            reference_write(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            reference_write(v, out)
        out.append("]")
    elif isinstance(obj, (bool, np.bool_)) or obj is None:
        out.append(json.dumps(bool(obj) if obj is not None else None))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_real(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def reference_json(obj) -> str:
    out: list[str] = []
    reference_write(obj, out)
    return "".join(out)


# where ".12g" rounds and repr does not: 1e12 to 1e16, either sign
LARGE = st.floats(1e12, 1e16) | st.floats(-1e16, -1e12)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.just(-0.0),
    LARGE,
    st.floats(allow_nan=False).map(np.float64),
    LARGE.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.text(),  # non-ASCII too
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(DOCUMENTS)
def test_writes_what_the_reference_writes(doc):
    assert canonical_json(doc) == reference_json(doc)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.dictionaries(st.sampled_from(["re", "im", "é", "键", " "]), SCALARS,
                                max_size=5), max_size=6))
def test_repeated_keys_write_as_the_reference_writes(doc):
    # the key texts are cached per call; repeats must read the same
    assert canonical_json(doc) == reference_json(doc)


def test_keys_that_are_not_strings():
    # 1, 1.0 and True are one dict key, but each writes its own text
    doc = [{1: 0}, {True: 0}, {1.0: 0}, {None: 0}, {"1": 0}]
    assert canonical_json(doc) == reference_json(doc) == \
        '[{1:0},{true:0},{1.0:0},{null:0},{"1":0}]'


def test_numpy_and_subclass_scalars():
    class Label(int):
        pass

    doc = {"f32": np.float32(0.1), "i8": np.int8(-3), "u64": np.uint64(2**64 - 1),
           "sub": Label(7), "bools": [True, np.bool_(False)], "none": None,
           "zero": [-0.0, np.float64(-0.0)], "big": 123456789012345.67}
    assert canonical_json(doc) == reference_json(doc)


@pytest.mark.parametrize("bad", [{1, 2}, object(), 1j, np.array([1.0]), b"bytes"])
def test_unsupported_type_raises(bad):
    for doc in (bad, [1.0, bad], {"a": {"b": [bad]}}):
        with pytest.raises(TypeError):
            reference_json(doc)
        with pytest.raises(TypeError, match="cannot serialize"):
            canonical_json(doc)

