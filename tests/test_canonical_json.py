"""The canonical JSON report against the recursive reference writer.

``run_document`` rounds every real with ``report._real`` and ``json.dumps``
writes the document. The recursion below, which printed each real with
``format(v, ".12g")``, is the reference: parsing a report and writing it
again with the reference must give the same bytes.
"""

import json
import sys

import numpy as np
import pytest

import nonlocal_audit as na
from nonlocal_audit.report import _real

from conftest import planar_sweep_games

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def reference_real(v) -> str:
    # 12 significant digits; adding 0.0 turns -0.0 into 0.0
    return format(float(v) + 0.0, ".12g")


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
        out.append(reference_real(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def reference_json(obj) -> str:
    out: list[str] = []
    reference_write(obj, out)
    return "".join(out)


def test_writes_what_the_reference_writes(tmp_path):
    # every catalog game and every planar_sweep game, one report each
    refs = list(na.GAME_IDS)
    for name, game in planar_sweep_games().items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(game))
        refs.append(str(path))
    differ = []
    for ref in refs:
        text = na.render_report(na.run_analyze(ref), "json")
        if reference_json(json.loads(text)) + "\n" != text:
            differ.append(ref)
    assert len(refs) == 12
    assert differ == []


def _in_band_or_subnormal(r: float) -> bool:
    # where the encoder's repr spells a 12-digit value otherwise than ".12g":
    # positionally from 1e12 to 1e16, and by its shorter repr below the normals
    return 1e12 <= abs(r) < 1e16 or 0.0 < abs(r) < sys.float_info.min


@settings(max_examples=2000, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False)
       | st.floats(-10.0, 10.0)
       | st.floats(1e12, 1e16) | st.floats(-1e16, -1e12)
       | st.integers(-(10**13), 10**13).map(float))
@example(-0.0)
@example(4.68803383788e12)
@example(5e-324)
@example(1e16)
@example(999999999999.5)
def test_real_prints_as_format_12g(v):
    rounded = reference_real(v)
    text = json.dumps(_real(v))
    if _in_band_or_subnormal(float(rounded)):
        assert float(text) == float(rounded)
    else:
        assert text == rounded


def test_numpy_and_subclass_scalars():
    class Label(int):
        pass

    class Real(float):
        pass

    values = [np.float32(0.1), np.float16(-2.5), np.float64(1 / 3), np.float64(-1e-17),
              np.int8(-3), Label(7), Real(2.5), np.float64(-0.0), 2.0]
    for v in values:
        assert type(_real(v)) in (int, float)
        assert json.dumps(_real(v)) == reference_json(v)
