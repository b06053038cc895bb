"""Each einsum over stacked projectors against the term-by-term sum it replaces."""

from itertools import product

import numpy as np
import pytest

import nonlocal_audit as na
from nonlocal_audit.uncertainty import Side

from conftest import random_strategy

N_X, N_Y, D_A, D_B = 3, 2, 2, 3
ATOL = 1e-12


def _random_weighted_game(rng: np.random.Generator) -> na.GameSpec:
    # n_a = d_a and n_b = d_b (rank-1 measurements); input x = 2 has pi = 0,
    # so its relation operators must come out zero.
    predicate = np.where(rng.random((N_X, N_Y, D_A, D_B)) < 0.6,
                         rng.uniform(0.5, 1.5, (N_X, N_Y, D_A, D_B)), 0.0)
    pi = rng.uniform(0.5, 1.5, (N_X, N_Y))
    pi[2] = 0.0
    return na.GameSpec(id="random", n_x=N_X, n_y=N_Y, n_a=D_A, n_b=D_B,
                       predicate=predicate, input_dist=pi / pi.sum(), binary_predicate=False)


@pytest.fixture(scope="module", params=range(5))
def case(request):
    rng = np.random.default_rng([77, request.param])
    return _random_weighted_game(rng), random_strategy(rng, D_A, D_B, N_X, N_Y)


def test_bell_operator(case):
    spec, strat = case
    expected = np.zeros((D_A * D_B, D_A * D_B), dtype=complex)
    for x, y, a, b in product(range(N_X), range(N_Y), range(D_A), range(D_B)):
        expected += spec.input_dist[x, y] * spec.predicate[x, y, a, b] * na.kron(
            strat.meas_a[x].projectors[a], strat.meas_b[y].projectors[b]
        )
    assert np.abs(na.bell_operator(spec, strat.meas_a, strat.meas_b) - expected).max() <= ATOL


def test_correlation_table(case):
    spec, strat = case
    psi = strat.state
    table = na.correlation_table(spec, strat)
    for x, y, a, b in product(range(N_X), range(N_Y), range(D_A), range(D_B)):
        op = na.kron(strat.meas_a[x].projectors[a], strat.meas_b[y].projectors[b])
        assert abs(table[x, y, a, b] - np.real(psi.conj() @ op @ psi)) <= ATOL


def test_relation_operators(case):
    spec, strat = case
    for rel in na.fine_grained_relations(spec, Side.ALICE_STEERS_BOB, strat.meas_b):
        x, a = rel.pair
        pi_y = spec.pi_b_given_x(x)
        expected = sum(
            pi_y[y] * spec.predicate[x, y, a, b] * strat.meas_b[y].projectors[b]
            for y, b in product(range(N_Y), range(D_B))
        )
        assert np.abs(rel.operator - expected).max() <= ATOL
        if x == 2:
            assert not rel.operator.any() and rel.weight_mass == 0.0
    for side, remote in ((Side.ALICE_STEERS_BOB, strat.meas_b),
                         (Side.BOB_STEERS_ALICE, strat.meas_a)):
        for rel in na.fine_grained_relations(spec, side, remote):
            n_in, n_out = rel.weights.shape
            rebuilt = sum(rel.weights[y, b] * remote[y].projectors[b]
                          for y, b in product(range(n_in), range(n_out)))
            assert np.abs(rel.operator - rebuilt).max() <= ATOL


def test_steered_assemblage(case):
    _, strat = case
    assemblage = na.steer_assemblage(strat, Side.ALICE_STEERS_BOB)
    rho = strat.density()
    for x, a in product(range(N_X), range(D_A)):
        sigma = na.partial_trace_first(
            na.kron(strat.meas_a[x].projectors[a], np.eye(D_B)) @ rho, D_A, D_B
        )
        assert np.abs(assemblage.sigmas[x, a] - sigma).max() <= ATOL
        assert abs(assemblage.probabilities[x, a] - np.real(np.trace(sigma))) <= ATOL
