"""Quantum strategies and values for two-party games.

Covers the planar-qubit measurement family for 2-input/2-output games
(sufficient for extremal quantum correlations in that scenario), Bell
operator construction, eigenvalue-based two-angle optimization, exact
closed-form optima for the catalog games ``g1`` and ``g2``, and the fixed
qutrit strategy for ``cglmp``.

For fixed measurements the best state is the top eigenvector of the Bell
operator, so the planar search space is just the two free angles
(alpha_1, beta_1); the first angle of each party is pinned to zero by local
unitary freedom.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotPlanarApplicableError,
    SettingError,
    UnknownGameError,
)
from .games import GameSpec, builtin_game, matches_catalog
from .hermitian import eig_hermitian

PROJECTOR_ATOL = 1e-10
STATE_NORM_ATOL = 1e-12

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_CHUNK_ROWS = 16
# Grid points per angle axis: the scan costs (grid_points / 2)^2 4x4 solves.
GRID_MIN = 64
GRID_MAX = 4097


@dataclass(frozen=True)
class ProjectiveMeasurement:
    """One projector per output; projectors are Hermitian, idempotent, complete."""

    projectors: tuple[np.ndarray, ...]

    @property
    def n_outcomes(self) -> int:
        return len(self.projectors)

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    def validate(self, atol: float = PROJECTOR_ATOL) -> list[str]:
        violations = []
        d = self.dim
        total = np.zeros((d, d), dtype=complex)
        for k, p in enumerate(self.projectors):
            if p.shape != (d, d):
                violations.append(f"projector {k}: shape {p.shape} != ({d}, {d})")
                continue
            if np.abs(p - p.conj().T).max() > atol:
                violations.append(f"projector {k}: not Hermitian")
            if np.linalg.norm(p @ p - p) > atol:
                violations.append(f"projector {k}: not idempotent")
            total += p
        if np.linalg.norm(total - np.eye(d)) > atol:
            violations.append("projectors do not sum to the identity")
        return violations


@dataclass(frozen=True)
class PlanarAngles:
    """Phase angles of the off-diagonal qubit observables, first angle fixed to 0."""

    alpha: tuple[float, ...]
    beta: tuple[float, ...]

    def __post_init__(self):
        if self.alpha[0] != 0.0 or self.beta[0] != 0.0:
            raise ValueError("the first angle of each party is fixed to 0")
        for t in (*self.alpha, *self.beta):
            if not -math.pi <= t <= math.pi:
                raise ValueError(f"angle {t} outside [-pi, pi]")


@dataclass(frozen=True)
class QuantumStrategy:
    """Shared pure state plus one projective measurement per input per party."""

    d_a: int
    d_b: int
    state: np.ndarray
    meas_a: tuple[ProjectiveMeasurement, ...]
    meas_b: tuple[ProjectiveMeasurement, ...]

    def validate(self) -> list[str]:
        violations = []
        if self.state.shape != (self.d_a * self.d_b,):
            violations.append(
                f"state: shape {self.state.shape} != ({self.d_a * self.d_b},)"
            )
        elif abs(np.linalg.norm(self.state) - 1.0) > STATE_NORM_ATOL:
            violations.append("state: not normalized")
        for label, mset, d in (("A", self.meas_a, self.d_a), ("B", self.meas_b, self.d_b)):
            for i, m in enumerate(mset):
                if m.dim != d:
                    violations.append(f"measurement {label}[{i}]: dim {m.dim} != {d}")
                violations.extend(f"{label}[{i}]: {v}" for v in m.validate())
        return violations

    def density(self) -> np.ndarray:
        return np.outer(self.state, self.state.conj())


@dataclass(frozen=True)
class OptimalSolution:
    """Best strategy found for a game, with the value and diagnostics.

    ``residual`` is the value of the game's closed-form characteristic
    polynomial at the solution (only for the catalog tables of a game that
    has one, else None).
    """

    strategy: QuantumStrategy
    value: float
    angles: PlanarAngles | None
    residual: float | None


def swap_strategy(strategy: QuantumStrategy) -> QuantumStrategy:
    """The same strategy with the parties exchanged."""
    state = strategy.state.reshape(strategy.d_a, strategy.d_b).T.reshape(-1)
    return QuantumStrategy(
        d_a=strategy.d_b,
        d_b=strategy.d_a,
        state=state,
        meas_a=strategy.meas_b,
        meas_b=strategy.meas_a,
    )


def planar_measurement(theta: float) -> ProjectiveMeasurement:
    """Eigenprojectors of the observable [[0, e^{i theta}], [e^{-i theta}, 0]].

    Output 0 is the +1 eigenprojector |v+><v+| with v+ = (e^{i theta}, 1)/sqrt(2).
    """
    plus = np.array([np.exp(1j * theta), 1.0]) / math.sqrt(2.0)
    minus = np.array([np.exp(1j * theta), -1.0]) / math.sqrt(2.0)
    return ProjectiveMeasurement(
        projectors=(np.outer(plus, plus.conj()), np.outer(minus, minus.conj()))
    )


def planar_measurements(
    angles: PlanarAngles,
) -> tuple[tuple[ProjectiveMeasurement, ...], tuple[ProjectiveMeasurement, ...]]:
    meas_a = tuple(planar_measurement(t) for t in angles.alpha)
    meas_b = tuple(planar_measurement(t) for t in angles.beta)
    return meas_a, meas_b


def projector_stack(measurements: tuple[ProjectiveMeasurement, ...]) -> np.ndarray:
    """The projectors of a measurement set as one array indexed [input, output, row, column]."""
    return np.array([m.projectors for m in measurements], dtype=complex)


def bell_operator(
    spec: GameSpec,
    meas_a: tuple[ProjectiveMeasurement, ...],
    meas_b: tuple[ProjectiveMeasurement, ...],
) -> np.ndarray:
    """B = sum_{x,y} pi(x,y) sum_{a,b} V(a,b|x,y) Pi^x_a (x) Pi^y_b."""
    if len(meas_a) != spec.n_x or len(meas_b) != spec.n_y:
        raise DimensionMismatchError("one measurement per input is required")
    if any(m.n_outcomes != spec.n_a for m in meas_a) or any(
        m.n_outcomes != spec.n_b for m in meas_b
    ):
        raise DimensionMismatchError("measurement outcome counts do not match the game")
    d = meas_a[0].dim * meas_b[0].dim
    weights = spec.input_dist[:, :, None, None] * spec.predicate
    op = np.einsum(
        "xyab,xaij,ybkl->ikjl", weights, projector_stack(meas_a), projector_stack(meas_b)
    )
    return op.reshape(d, d)


def correlation_table(spec: GameSpec, strategy: QuantumStrategy) -> np.ndarray:
    """P(a,b|x,y) = <psi| Pi^x_a (x) Pi^y_b |psi>, indexed [x, y, a, b]."""
    if len(strategy.meas_a) != spec.n_x or len(strategy.meas_b) != spec.n_y:
        raise DimensionMismatchError("one measurement per input is required")
    psi = strategy.state.reshape(strategy.d_a, strategy.d_b)
    table = np.einsum(
        "ik,xaij,ybkl,jl->xyab",
        psi.conj(), projector_stack(strategy.meas_a), projector_stack(strategy.meas_b), psi,
    )
    return table.real


def quantum_game_value(spec: GameSpec, strategy: QuantumStrategy) -> float:
    """sum_{x,y} pi(x,y) sum_{a,b} V(a,b|x,y) P(a,b|x,y) for this strategy."""
    table = correlation_table(spec, strategy)
    return float(np.sum(spec.input_dist[:, :, None, None] * spec.predicate * table))


def scaled_bell_charpoly_g1(lam: float, alpha1: float, beta1: float) -> float:
    """Characteristic polynomial of 4*B(g1) in the planar family, at (lam, angles).

    Zero exactly when lam is an eigenvalue of the input-distribution-scaled
    Bell operator for measurement phases (0, alpha1) and (0, beta1).
    """
    return (
        2.0 * lam * (-19.0 + lam * (33.0 + 4.0 * lam * (lam - 5.0)))
        + 2.0
        * (lam - 2.0)
        * (lam - 1.0)
        * (math.cos(alpha1) - 2.0 * math.cos(alpha1 / 2.0) ** 2 * math.cos(beta1))
        + 4.0
        - math.sin(alpha1) ** 2 * math.sin(beta1) ** 2
    )


def scaled_bell_charpoly_g2(lam: float, alpha1: float, beta1: float) -> float:
    """Characteristic polynomial of 4*B(g2) in the planar family, at (lam, angles)."""
    return (
        lam * (-30.0 + lam * (33.0 + 2.0 * lam * (lam - 7.0)))
        + 9.0
        - math.sin(alpha1) ** 2 * math.sin(beta1) ** 2
        + (lam - 3.0)
        * (lam - 1.0)
        * (
            math.cos(alpha1)
            - math.cos(alpha1) * math.cos(beta1)
            + math.cos(beta1)
        )
    )


_CHARPOLYS = {"g1": scaled_bell_charpoly_g1, "g2": scaled_bell_charpoly_g2}


def closed_form_angles(game_id: str) -> tuple[float, float]:
    """Exact optimal planar angles (alpha1, beta1) for g1 or g2."""
    if game_id == "g1":
        alpha1 = 2.0 * math.atan(math.sqrt((5.0 + math.sqrt(13.0)) / 6.0))
        return alpha1, alpha1 - math.pi
    if game_id == "g2":
        eta = ((43.0 + 9.0 * math.sqrt(29.0)) / 2.0) ** (1.0 / 3.0)
        alpha1 = 2.0 * math.atan(math.sqrt((eta * eta + 2.0 * eta - 5.0) / (3.0 * eta)))
        return alpha1, alpha1
    raise UnknownGameError(f"no closed-form optimum for {game_id!r}")


def _planar_solution(spec: GameSpec, alpha1: float, beta1: float) -> OptimalSolution:
    """The top eigenvector of the Bell operator at planar angles (0, alpha1), (0, beta1).

    The residual is the closed-form characteristic polynomial at 4x the value
    (the scaled operator's eigenvalue), set only when the tables are those of
    the catalog game that has one.
    """
    angles = PlanarAngles(alpha=(0.0, alpha1), beta=(0.0, beta1))
    meas_a, meas_b = planar_measurements(angles)
    eig = eig_hermitian(bell_operator(spec, meas_a, meas_b))
    value = eig.max_eigenvalue
    charpoly = _CHARPOLYS.get(spec.id)
    residual = None
    if charpoly is not None and matches_catalog(spec, spec.id):
        residual = float(charpoly(4.0 * value, alpha1, beta1))
    return OptimalSolution(
        strategy=QuantumStrategy(
            d_a=2, d_b=2, state=eig.max_eigenvector, meas_a=meas_a, meas_b=meas_b
        ),
        value=value,
        angles=angles,
        residual=residual,
    )


def closed_form_optimum(game_id: str) -> OptimalSolution:
    """Exact-radical optimal strategy for g1 or g2, with its charpoly residual."""
    return _planar_solution(builtin_game(game_id), *closed_form_angles(game_id))


# ---------------------------------------------------------------------------
# Planar two-angle optimization
# ---------------------------------------------------------------------------


def _worker_count() -> int:
    raw = os.environ.get("NONLOCAL_AUDIT_THREADS") or "0"
    if not raw.strip().isdigit():
        raise SettingError(
            f"NONLOCAL_AUDIT_THREADS must be a non-negative integer (0 = auto), got {raw!r}"
        )
    return int(raw) or min(os.cpu_count() or 1, 8)


def _planar_kernel(spec: GameSpec) -> np.ndarray:
    """Real symmetric M[u, v], shape (3, 3, 4, 4), with B(alpha1, beta1) unitarily
    equivalent to sum_{u,v} f_u(alpha1) f_v(beta1) M[u, v], f = (1, cos, sin).

    A planar projector is (I +- (cos t X - sin t Y))/2; both qubits are taken
    in the frame rotated by exp(-i pi X/4), which keeps X and maps Y to Z.
    """
    eye, pauli_x, pauli_z = np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    coeffs = np.zeros((2, 2, 3, 2, 2))  # [input, output, term u, row, column]
    for a, sign in enumerate((1.0, -1.0)):
        coeffs[0, a, 0] = 0.5 * (eye + sign * pauli_x)
        coeffs[1, a] = 0.5 * np.stack([eye, sign * pauli_x, -sign * pauli_z])
    weights = spec.input_dist[:, :, None, None] * spec.predicate
    kernel = np.einsum("xyab,xauij,ybvkl->uvikjl", weights, coeffs, coeffs)
    return kernel.reshape(3, 3, 4, 4)


def _trig(t: float) -> np.ndarray:
    return np.array([1.0, math.cos(t), math.sin(t)])


def _grid_lambda_max(spec: GameSpec, thetas: np.ndarray, workers: int) -> np.ndarray:
    """lambda_max(B(alpha1, beta1)) with both angles on ``thetas``, shape (G, G).

    B comes from the real trigonometric kernel of ``_planar_kernel``: a chunk
    of rows is two small matmuls of the (1, cos, sin) features against the
    kernel and one batched real ``eigvalsh``; the final reported solution is
    recomputed from the complex ``bell_operator``. Results are independent of
    the worker count, which is capped at the number of chunks: the grid is
    split into fixed row chunks and each cell is solved in isolation.
    """
    g = thetas.shape[0]
    kernel = _planar_kernel(spec).reshape(3, 48)
    trig = np.stack([np.ones(g), np.cos(thetas), np.sin(thetas)], axis=1)
    row_chunks = [slice(start, start + _GRID_CHUNK_ROWS) for start in range(0, g, _GRID_CHUNK_ROWS)]

    def solve_rows(rows: slice) -> np.ndarray:
        ops = trig @ (trig[rows] @ kernel).reshape(-1, 3, 16)  # (rows, G, 16)
        return np.linalg.eigvalsh(ops.reshape(-1, 4, 4))[:, -1].reshape(-1, g)

    workers = min(workers, len(row_chunks))
    if workers <= 1:
        return np.concatenate([solve_rows(rows) for rows in row_chunks])
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return np.concatenate(list(pool.map(solve_rows, row_chunks)))


def _kernel_lambda_max(kernel: np.ndarray, alpha1: float, beta1: float) -> float:
    """lambda_max of B(alpha1, beta1) from a kernel reshaped to (3, 48)."""
    op = _trig(beta1) @ (_trig(alpha1) @ kernel).reshape(3, 16)
    return float(np.linalg.eigvalsh(op.reshape(4, 4))[-1])


def _lambda_max_fast(spec: GameSpec, alpha1: float, beta1: float) -> float:
    """Objective for the local refinement; matches lambda_max of ``bell_operator`` to 1e-12."""
    return _kernel_lambda_max(_planar_kernel(spec).reshape(3, 48), alpha1, beta1)


def _golden_max(f, lo: float, hi: float, tol: float = 1e-10) -> tuple[float, float]:
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    mid = 0.5 * (a + b)
    return mid, f(mid)


def refine_planar(
    spec: GameSpec,
    alpha1: float,
    beta1: float,
    halfwidth: float,
    step_tol: float = 1e-10,
    max_rounds: int = 60,
) -> tuple[float, float, float]:
    """Coordinate-wise golden-section ascent of lambda_max from a start point.

    Alternates one golden search per coordinate until neither angle moves by
    more than ``step_tol``. Returns (alpha1, beta1, value).
    """
    kernel = _planar_kernel(spec).reshape(3, 48)
    value = _kernel_lambda_max(kernel, alpha1, beta1)
    width = halfwidth
    for _ in range(max_rounds):
        new_a, _ = _golden_max(
            lambda t: _kernel_lambda_max(kernel, t, beta1), alpha1 - width, alpha1 + width, step_tol
        )
        new_b, value = _golden_max(
            lambda t: _kernel_lambda_max(kernel, new_a, t), beta1 - width, beta1 + width, step_tol
        )
        moved = max(abs(new_a - alpha1), abs(new_b - beta1))
        alpha1, beta1 = new_a, new_b
        if moved < step_tol:
            break
        # the objective is 2 pi-periodic; an unbounded bracket could outgrow the
        # golden-section tolerance in ulps and never close
        width = min(max(2.0 * moved, 1e-8), math.pi)
    return alpha1, beta1, value


def _wrap_angle(t: float) -> float:
    wrapped = math.remainder(t, 2.0 * math.pi)
    # math.remainder returns values in [-pi, pi]; pin the -pi representative to pi
    # so reported angles stay inside the closed interval deterministically.
    if wrapped == -math.pi:
        wrapped = math.pi
    return wrapped


def optimize_planar(
    spec: GameSpec, grid_points: int = 721, refine_iters: int = 60
) -> OptimalSolution:
    """Grid-plus-golden-section maximization of lambda_max over (alpha1, beta1).

    Flipping the sign of either party's angle conjugates that party by the
    X gate and preserves the spectrum, so optima come in sign quadruples;
    the representative with alpha1 >= 0 and beta1 >= 0 is reported. So of
    the uniform ``grid_points``^2 grid over [-pi, pi]^2 (GRID_MIN to GRID_MAX
    points per axis) only the quarter from index ``grid_points // 2`` on is
    scanned, on the real trigonometric kernel of ``_planar_kernel``; the best
    cell is refined by alternating golden-section searches on that kernel.
    Only 2-input/2-output games are supported.
    """
    if not (spec.n_x == 2 and spec.n_y == 2 and spec.n_a == 2 and spec.n_b == 2):
        raise NotPlanarApplicableError(
            f"game {spec.id!r} is {spec.n_x}x{spec.n_y} inputs / "
            f"{spec.n_a}x{spec.n_b} outputs; the planar family covers 2x2x2x2"
        )
    if not GRID_MIN <= grid_points <= GRID_MAX:
        raise ValueError(f"grid_points must lie in [{GRID_MIN}, {GRID_MAX}], got {grid_points}")

    thetas = np.linspace(-math.pi, math.pi, grid_points)[grid_points // 2 :]
    values = _grid_lambda_max(spec, thetas, _worker_count())
    flat_index = int(np.argmax(values))  # first occurrence = lexicographic tie-break
    i, j = divmod(flat_index, thetas.shape[0])
    step = 2.0 * math.pi / (grid_points - 1)

    alpha1, beta1, _ = refine_planar(
        spec, float(thetas[i]), float(thetas[j]), halfwidth=step, max_rounds=refine_iters
    )
    # sign flips of either angle are local X conjugations; pick the
    # non-negative representative of each
    alpha1, beta1 = abs(_wrap_angle(alpha1)), abs(_wrap_angle(beta1))

    return _planar_solution(spec, alpha1, beta1)


# ---------------------------------------------------------------------------
# Fixed qutrit strategy for the weighted three-outcome catalog game
# ---------------------------------------------------------------------------


def cglmp_strategy() -> QuantumStrategy:
    """The known optimal qutrit strategy for the catalog game ``cglmp``.

    State (|00> + kappa |11> + |22>)/sqrt(2 + kappa^2) with
    kappa = (sqrt(11) - sqrt(3))/2, and phase-twisted Fourier bases with
    Alice phases (0, pi/3) and Bob phases (-pi/6, pi/6).
    """
    omega = np.exp(2j * math.pi / 3.0)
    kappa = (math.sqrt(11.0) - math.sqrt(3.0)) / 2.0

    state = np.zeros(9, dtype=complex)
    state[0] = 1.0
    state[4] = kappa
    state[8] = 1.0
    state /= np.linalg.norm(state)

    k = np.arange(3)

    def alice_meas(phase_angle: float) -> ProjectiveMeasurement:
        projectors = []
        for a in range(3):
            vec = omega ** (a * k) * np.exp(1j * k * phase_angle)
            projectors.append(np.outer(vec, vec.conj()) / 3.0)
        return ProjectiveMeasurement(projectors=tuple(projectors))

    def bob_meas(phase_angle: float) -> ProjectiveMeasurement:
        projectors = []
        for b in range(3):
            vec = omega ** (-b * k) * np.exp(1j * k * phase_angle)
            projectors.append(np.outer(vec, vec.conj()) / 3.0)
        return ProjectiveMeasurement(projectors=tuple(projectors))

    return QuantumStrategy(
        d_a=3,
        d_b=3,
        state=state,
        meas_a=(alice_meas(0.0), alice_meas(math.pi / 3.0)),
        meas_b=(bob_meas(-math.pi / 6.0), bob_meas(math.pi / 6.0)),
    )
