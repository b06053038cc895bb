"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import math
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import nonlocal_audit as na
from nonlocal_audit.classical import TIE_ATOL
from nonlocal_audit.errors import DimensionMismatchError

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# Random objects
# ---------------------------------------------------------------------------


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (x + x.conj().T) / 2.0


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_measurement(rng: np.random.Generator, d: int) -> np.ndarray:
    """Random rank-1 projective measurement with d outcomes, shape (d, d, d)."""
    u = random_unitary(rng, d)
    return np.array([np.outer(u[:, k], u[:, k].conj()) for k in range(d)])


def random_strategy(
    rng: np.random.Generator, d_a: int, d_b: int, n_x: int, n_y: int
) -> na.QuantumStrategy:
    state = rng.normal(size=d_a * d_b) + 1j * rng.normal(size=d_a * d_b)
    state /= np.linalg.norm(state)
    return na.QuantumStrategy(
        state=state,
        meas_a=np.array([random_measurement(rng, d_a) for _ in range(n_x)]),
        meas_b=np.array([random_measurement(rng, d_b) for _ in range(n_y)]),
    )


def random_weighted_case(seed: int) -> tuple[na.GameSpec, na.QuantumStrategy]:
    """A random weighted game with 3x2 inputs and a random strategy with d_a = 2, d_b = 3.

    Outputs equal the local dimensions (rank-1 measurements). Input x = 2
    has pi = 0, so its relation operators must come out zero.
    """
    rng = np.random.default_rng([77, seed])
    n_x, n_y, d_a, d_b = 3, 2, 2, 3
    predicate = np.where(rng.random((n_x, n_y, d_a, d_b)) < 0.6,
                         rng.uniform(0.5, 1.5, (n_x, n_y, d_a, d_b)), 0.0)
    pi = rng.uniform(0.5, 1.5, (n_x, n_y))
    pi[2] = 0.0
    spec = na.GameSpec(id=f"random-{seed}",
                       predicate=predicate, input_dist=pi / pi.sum(), binary_predicate=False)
    return spec, random_strategy(rng, d_a, d_b, n_x, n_y)


def wide_binary_game(seed: int = 0) -> na.GameSpec:
    """A uniform binary game with 24 inputs per party: 2^48 classical strategy
    pairs, beyond ``ENUMERATION_GUARD``, and outside the planar family."""
    rng = np.random.default_rng([32, seed])
    predicate = (rng.random((24, 24, 2, 2)) < 0.5).astype(float)
    return na.GameSpec(id="wide-24x24", predicate=predicate,
                       input_dist=np.full((24, 24), 1.0 / 576))


def perfbench_modules():
    """The benchmark's ``workloads`` and ``oracles`` modules, imported without writing
    under perfbench/."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT))
        mp.setattr(sys, "dont_write_bytecode", True)
        from perfbench import oracles, workloads
    return workloads, oracles


def planar_sweep_games() -> dict[str, dict]:
    """The benchmark's ``planar_sweep`` game documents by name."""
    workloads, _ = perfbench_modules()
    return {i.name: i.game for i in workloads.generate("planar_sweep", 0) if i.game is not None}


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product, (a (x) b)[i*rb+k, j*cb+l] = a[i,j] * b[k,l].

    The reference the package's einsum contractions are checked against.
    """
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def reconstruct(eig: na.EigenSystem) -> np.ndarray:
    """The matrix V diag(lambda) V^dagger that an eigensystem decomposes."""
    v = eig.eigenvectors
    return (v * eig.eigenvalues) @ v.conj().T


def partial_trace_first(m: np.ndarray, d_first: int, d_second: int) -> np.ndarray:
    """Trace out the first tensor factor of a (d_first*d_second)-dim operator.

    Preserves the trace: tr(result) = tr(m).
    """
    m = np.asarray(m, dtype=complex)
    d = d_first * d_second
    if m.shape != (d, d):
        raise DimensionMismatchError(
            f"expected shape ({d}, {d}) for dims ({d_first}, {d_second}), got {m.shape}"
        )
    return m.reshape(d_first, d_second, d_first, d_second).trace(axis1=0, axis2=2)


def partial_trace_second(m: np.ndarray, d_first: int, d_second: int) -> np.ndarray:
    """Trace out the second tensor factor of a (d_first*d_second)-dim operator.

    Preserves the trace: tr(result) = tr(m).
    """
    m = np.asarray(m, dtype=complex)
    d = d_first * d_second
    if m.shape != (d, d):
        raise DimensionMismatchError(
            f"expected shape ({d}, {d}) for dims ({d_first}, {d_second}), got {m.shape}"
        )
    return m.reshape(d_first, d_second, d_first, d_second).trace(axis1=1, axis2=3)


def strategy_value(spec: na.GameSpec, strategy: na.DeterministicStrategy) -> float:
    """Expected score sum_{x,y} pi(x,y) V(f_a(x), f_b(y) | x, y).

    A Python loop, x outer and y inner, from 0.0: the summation order that
    ``classical_value`` reproduces bit for bit.
    """
    value = 0.0
    for x in range(spec.n_x):
        for y in range(spec.n_y):
            value += spec.input_dist[x, y] * spec.predicate[x, y, strategy.f_a[x], strategy.f_b[y]]
    return value


def enumerate_classical(spec: na.GameSpec) -> tuple[float, list[na.DeterministicStrategy]]:
    """Classical value and maximizers by scoring every deterministic strategy pair.

    The reference for ``classical_value``: a Python loop with Alice's
    function outermost, each pair scored by ``strategy_value``, and a running
    maximum that keeps every pair within ``TIE_ATOL`` of it. Only for small
    games (13-51 us per pair).
    """
    best = float("-inf")
    maximizers: list[na.DeterministicStrategy] = []
    for f_a in product(range(spec.n_a), repeat=spec.n_x):
        for f_b in product(range(spec.n_b), repeat=spec.n_y):
            s = na.DeterministicStrategy(f_a=f_a, f_b=f_b)
            value = strategy_value(spec, s)
            if value > best + TIE_ATOL:
                best = value
                maximizers = [s]
            elif value >= best - TIE_ATOL:
                maximizers.append(s)
                if value > best:
                    best = value
    return best, maximizers


def bloch_state(theta: float, phi: float) -> np.ndarray:
    return np.array([math.cos(theta / 2.0), np.exp(1j * phi) * math.sin(theta / 2.0)])


def _golden(f, lo, hi, tol=1e-9):
    a, b = lo, hi
    c = b - INV_PHI * (b - a)
    d = a + INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INV_PHI * (b - a)
            fd = f(d)
    mid = (a + b) / 2.0
    return mid, f(mid)


def bloch_grid_max(op: np.ndarray, n_theta: int = 40, n_phi: int = 50) -> float:
    """Brute-force maximum of <v|op|v> over qubit pure states.

    Scans a ~2000-point (theta, phi) grid, then polishes the best cell with
    alternating golden-section searches. Independent of any eigensolver.
    """

    def value(theta, phi):
        v = bloch_state(theta, phi)
        return float(np.real(v.conj() @ op @ v))

    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    best = (-math.inf, 0.0, 0.0)
    for t in thetas:
        for p in phis:
            v = value(t, p)
            if v > best[0]:
                best = (v, t, p)
    _, t, p = best
    dt = math.pi / (n_theta - 1)
    dp = 2.0 * math.pi / n_phi
    for _ in range(12):
        t, _ = _golden(lambda u: value(u, p), t - dt, t + dt)
        p, val = _golden(lambda u: value(t, u), p - dp, p + dp)
        dt = max(dt * 0.2, 1e-8)
        dp = max(dp * 0.2, 1e-8)
    return val


def planar_strategy(spec: na.GameSpec, alpha1: float, beta1: float) -> na.QuantumStrategy:
    """Planar measurements at the given angles with the best (top eigenvector) state."""
    angles = na.PlanarAngles(alpha=(0.0, alpha1), beta=(0.0, beta1))
    meas_a, meas_b = na.planar_measurements(angles)
    op = na.bell_operator(spec, meas_a, meas_b)
    eig = na.eig_hermitian(op)
    return na.QuantumStrategy(state=eig.max_eigenvector, meas_a=meas_a, meas_b=meas_b)


def torus_grid_max(spec: na.GameSpec, points: int = 257) -> float:
    """Largest lambda_max of the complex Bell operator on a full-torus angle grid.

    Grid of ``points`` angles per axis over [-pi, pi]. The Bell operator is
    affine in Bob's projectors for y = 1, which are affine in
    (1, cos beta1, sin beta1); so for each alpha1 it is built at
    beta1 = 0, pi/2, pi and combined exactly for every other beta1.
    """
    thetas = np.linspace(-math.pi, math.pi, points)
    nodes = np.array([0.0, math.pi / 2.0, math.pi])

    def trig(t):
        return np.stack([np.ones_like(t), np.cos(t), np.sin(t)], axis=-1)

    coeffs = trig(thetas) @ np.linalg.inv(trig(nodes))  # f(beta) = coeffs @ f(nodes)
    best = -math.inf
    for alpha1 in thetas:
        ops = np.array([
            na.bell_operator(spec, *na.planar_measurements(
                na.PlanarAngles(alpha=(0.0, float(alpha1)), beta=(0.0, float(b)))))
            for b in nodes
        ])
        grid_ops = np.einsum("jn,nkl->jkl", coeffs, ops)
        best = max(best, float(np.linalg.eigvalsh(grid_ops)[:, -1].max()))
    return best


# ---------------------------------------------------------------------------
# Exact reference values
# ---------------------------------------------------------------------------

SQRT13 = math.sqrt(13.0)
SQRT29 = math.sqrt(29.0)
SQRT33 = math.sqrt(33.0)

OMEGA_Q_G1 = (16.0 + SQRT13) / 36.0
OMEGA_Q_G2 = (
    35.0
    + (15740.0 - 972.0 * SQRT29) ** (1.0 / 3.0)
    + 2.0 ** (2.0 / 3.0) * (3935.0 + 243.0 * SQRT29) ** (1.0 / 3.0)
) / 108.0
OMEGA_Q_CHSH = (2.0 + math.sqrt(2.0)) / 4.0
# Raw-sum value achieved by the fixed qutrit strategy; also the common value
# of all twelve unhalved relation bounds for that game, divided by 2.
CGLMP_RAW_QUANTUM = (15.0 + SQRT33) / 3.0
CGLMP_XI_CANONICAL = (15.0 + SQRT33) / 12.0


@pytest.fixture(scope="session")
def g1_spec():
    return na.builtin_game("g1")


@pytest.fixture(scope="session")
def g2_spec():
    return na.builtin_game("g2")


@pytest.fixture(scope="session")
def chsh_spec():
    return na.builtin_game("chsh")


@pytest.fixture(scope="session")
def cglmp_spec():
    return na.builtin_game("cglmp")


@pytest.fixture(scope="session")
def g1_solution():
    return na.closed_form_optimum("g1")


@pytest.fixture(scope="session")
def g2_solution():
    return na.closed_form_optimum("g2")


@pytest.fixture(scope="session")
def chsh_solution(chsh_spec):
    return na.optimize_planar(chsh_spec)


@pytest.fixture(scope="session")
def cglmp_strategy_fixture():
    return na.cglmp_strategy()
