"""Each einsum over stacked projectors against the term-by-term sum it replaces."""

from itertools import product

import numpy as np
import pytest

import nonlocal_audit as na

from conftest import kron, partial_trace_first, partial_trace_second, random_weighted_case

N_X, N_Y, D_A, D_B = 3, 2, 2, 3  # the sizes of random_weighted_case
ATOL = 1e-12


@pytest.fixture(scope="module", params=range(5))
def case(request):
    return random_weighted_case(request.param)


def test_bell_operator(case):
    spec, strat = case
    expected = np.zeros((D_A * D_B, D_A * D_B), dtype=complex)
    for x, y, a, b in product(range(N_X), range(N_Y), range(D_A), range(D_B)):
        expected += spec.input_dist[x, y] * spec.predicate[x, y, a, b] * kron(
            strat.meas_a[x, a], strat.meas_b[y, b]
        )
    assert np.abs(na.bell_operator(spec, strat.meas_a, strat.meas_b) - expected).max() <= ATOL


def test_correlation_table(case):
    spec, strat = case
    psi = strat.state
    table = na.correlation_table(spec, strat)
    for x, y, a, b in product(range(N_X), range(N_Y), range(D_A), range(D_B)):
        op = kron(strat.meas_a[x, a], strat.meas_b[y, b])
        assert abs(table[x, y, a, b] - np.real(psi.conj() @ op @ psi)) <= ATOL


def test_relation_operators(case):
    spec, strat = case
    for rel in na.fine_grained_relations(spec, strat.meas_b):
        x, a = rel.pair
        pi_y = spec.pi_b_given_x(x)
        expected = sum(
            pi_y[y] * spec.predicate[x, y, a, b] * strat.meas_b[y, b]
            for y, b in product(range(N_Y), range(D_B))
        )
        assert np.abs(rel.operator - expected).max() <= ATOL
        if x == 2:
            assert not rel.operator.any() and rel.weight_mass == 0.0
    for game, remote in ((spec, strat.meas_b), (na.swap_parties(spec), strat.meas_a)):
        for rel in na.fine_grained_relations(game, remote):
            n_in, n_out = rel.weights.shape
            rebuilt = sum(rel.weights[y, b] * remote[y, b]
                          for y, b in product(range(n_in), range(n_out)))
            assert np.abs(rel.operator - rebuilt).max() <= ATOL


def test_steered_assemblage(case):
    _, strat = case
    assemblage = na.steer_assemblage(strat)
    rho = np.outer(strat.state, strat.state.conj())
    for x, a in product(range(N_X), range(D_A)):
        sigma = partial_trace_first(
            kron(strat.meas_a[x, a], np.eye(D_B)) @ rho, D_A, D_B
        )
        assert np.abs(assemblage.sigmas[x, a] - sigma).max() <= ATOL
        assert abs(assemblage.probabilities[x, a] - np.real(np.trace(sigma))) <= ATOL


def test_bob_steered_assemblage(case):
    _, strat = case
    assemblage = na.steer_assemblage(na.swap_strategy(strat))
    rho = np.outer(strat.state, strat.state.conj())
    for y, b in product(range(N_Y), range(D_B)):
        sigma = partial_trace_second(
            kron(np.eye(D_A), strat.meas_b[y, b]) @ rho, D_A, D_B
        )
        assert np.abs(assemblage.sigmas[y, b] - sigma).max() <= ATOL
        assert abs(assemblage.probabilities[y, b] - np.real(np.trace(sigma))) <= ATOL


def test_swap_strategy(case):
    spec, strat = case
    swapped = na.swap_strategy(strat)
    assert swapped.state.flags.c_contiguous
    assert np.array_equal(na.swap_strategy(swapped).state, strat.state)
    table = na.correlation_table(spec, strat)
    swapped_table = na.correlation_table(na.swap_parties(spec), swapped)
    assert np.abs(swapped_table - table.transpose(1, 0, 3, 2)).max() <= ATOL
