"""Hypothesis draws of 2x2x2x2 games: the planar search's bound covers a torus grid.

``branch_and_bound``'s ``upper`` must be finite, at least its best vertex
value and at least the largest lambda_max on a 61^2 grid of the full torus
of angles. The draws mix 0/1 and fractional weights with non-uniform pi,
and include games whose weights ignore one party's output, on which
lambda_max is constant along that party's angle (a ridge), and games whose
weights equal their flip of both outputs, which the search solves on the
kernel's two parity blocks.
"""

import math

import numpy as np
import pytest

import nonlocal_audit as na
from nonlocal_audit.quantum import (
    _curvature_bounds,
    _planar_kernel,
    _search_kernel,
    branch_and_bound,
)

from conftest import torus_grid_max

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

WEIGHTS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def planar_games(draw) -> na.GameSpec:
    predicate = np.array(draw(st.lists(WEIGHTS, min_size=16, max_size=16))).reshape(2, 2, 2, 2)
    shape = draw(st.sampled_from([None, 2, 3, "flip"]))
    if shape == "flip":  # V(1 - a, 1 - b) = V(a, b)
        predicate[:, :, 1] = predicate[:, :, 0, ::-1]
    elif shape is not None:  # ignore the axis of a or of b
        predicate = np.repeat(predicate.take([0], axis=shape), 2, axis=shape)
    pi = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4))).reshape(2, 2)
    return na.GameSpec(id="drawn", predicate=predicate,
                       input_dist=pi / pi.sum(), binary_predicate=False)


@settings(max_examples=40, deadline=None)
@given(planar_games())
def test_upper_bound_covers_torus_grid(spec):
    kernel = _planar_kernel(spec)
    search = branch_and_bound(_search_kernel(spec, kernel), *_curvature_bounds(kernel)[:2])
    assert math.isfinite(search.upper)
    assert search.upper >= search.value
    assert search.upper >= torus_grid_max(spec, 61) - 1e-12
