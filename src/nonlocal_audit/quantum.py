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
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotPlanarApplicableError,
    UnknownGameError,
)
from .games import GameSpec, builtin_game, matches_catalog
from .hermitian import eig_hermitian

PROJECTOR_ATOL = 1e-10
STATE_NORM_ATOL = 1e-12

# Grid points per angle axis; the planar search starts from
# (grid_points - 1) // 16 cells per axis of the quarter [0, pi]^2.
GRID_MIN = 64
GRID_MAX = 4097


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
    """Shared pure state plus each party's projectors.

    ``meas_a[x, a]`` is Alice's projector for output a on input x, an
    (inputs, outputs, d_a, d_a) complex array, and ``meas_b`` is Bob's; the
    state has length d_a * d_b, Alice's index first.
    """

    state: np.ndarray
    meas_a: np.ndarray
    meas_b: np.ndarray

    @property
    def d_a(self) -> int:
        return self.meas_a.shape[-1]

    @property
    def d_b(self) -> int:
        return self.meas_b.shape[-1]

    def validate(self) -> list[str]:
        parties = (("A", self.meas_a), ("B", self.meas_b))
        violations = [
            f"measurement {label}: shape {meas.shape} is not (inputs, outputs, d, d)"
            for label, meas in parties if meas.ndim != 4 or meas.shape[-2] != meas.shape[-1]
        ]
        if violations:
            return violations
        d = self.d_a * self.d_b
        if self.state.shape != (d,):
            violations.append(f"state: shape {self.state.shape} != ({d},)")
        elif abs(np.linalg.norm(self.state) - 1.0) > STATE_NORM_ATOL:
            violations.append("state: not normalized")
        for label, meas in parties:
            hermitian = np.abs(meas - meas.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
            idempotent = np.linalg.norm(meas @ meas - meas, axis=(-2, -1))
            complete = np.linalg.norm(meas.sum(axis=1) - np.eye(meas.shape[-1]), axis=(-2, -1))
            for x in range(meas.shape[0]):
                for k in range(meas.shape[1]):
                    if hermitian[x, k] > PROJECTOR_ATOL:
                        violations.append(f"{label}[{x}]: projector {k}: not Hermitian")
                    if idempotent[x, k] > PROJECTOR_ATOL:
                        violations.append(f"{label}[{x}]: projector {k}: not idempotent")
                if complete[x] > PROJECTOR_ATOL:
                    violations.append(f"{label}[{x}]: projectors do not sum to the identity")
        return violations


@dataclass(frozen=True)
class OptimalSolution:
    """Best strategy found for a game, with the value and diagnostics.

    ``residual`` is the value of the game's closed-form characteristic
    polynomial at the solution (only for the catalog tables of a game that
    has one, else None). ``upper_bound`` is the certified bound on the
    planar family's value from ``optimize_planar`` (None on other routes).
    """

    strategy: QuantumStrategy
    value: float
    angles: PlanarAngles | None
    residual: float | None
    upper_bound: float | None = None


def planar_measurement(theta: float) -> np.ndarray:
    """Eigenprojectors of the observable [[0, e^{i theta}], [e^{-i theta}, 0]], shape (2, 2, 2).

    Output 0 is the +1 eigenprojector |v+><v+| with v+ = (e^{i theta}, 1)/sqrt(2).
    """
    plus = np.array([np.exp(1j * theta), 1.0]) / math.sqrt(2.0)
    minus = np.array([np.exp(1j * theta), -1.0]) / math.sqrt(2.0)
    return np.array([np.outer(plus, plus.conj()), np.outer(minus, minus.conj())])


def planar_measurements(angles: PlanarAngles) -> tuple[np.ndarray, np.ndarray]:
    """Both parties' projector arrays, shape (inputs, 2, 2, 2), at the given phases."""
    return (np.array([planar_measurement(t) for t in angles.alpha]),
            np.array([planar_measurement(t) for t in angles.beta]))


def bell_operator(spec: GameSpec, meas_a: np.ndarray, meas_b: np.ndarray) -> np.ndarray:
    """B = sum_{x,y} pi(x,y) sum_{a,b} V(a,b|x,y) Pi^x_a (x) Pi^y_b."""
    if (meas_a.shape[:2], meas_b.shape[:2]) != ((spec.n_x, spec.n_a), (spec.n_y, spec.n_b)):
        raise DimensionMismatchError(f"projector arrays with (inputs, outputs) {meas_a.shape[:2]} "
                                     f"and {meas_b.shape[:2]} do not match the game")
    d = meas_a.shape[-1] * meas_b.shape[-1]
    weights = spec.input_dist[:, :, None, None] * spec.predicate
    op = np.einsum("xyab,xaij,ybkl->ikjl", weights, meas_a, meas_b)
    return op.reshape(d, d)


def correlation_table(spec: GameSpec, strategy: QuantumStrategy) -> np.ndarray:
    """P(a,b|x,y) = <psi| Pi^x_a (x) Pi^y_b |psi>, indexed [x, y, a, b]."""
    if len(strategy.meas_a) != spec.n_x or len(strategy.meas_b) != spec.n_y:
        raise DimensionMismatchError("one measurement per input is required")
    psi = strategy.state.reshape(strategy.d_a, strategy.d_b)
    table = np.einsum("ik,xaij,ybkl,jl->xyab", psi.conj(), strategy.meas_a, strategy.meas_b, psi)
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


def closed_form_available(spec: GameSpec) -> bool:
    """True when the spec's tables are those of a catalog game with a closed-form optimum."""
    return spec.id in _CHARPOLYS and matches_catalog(spec, spec.id)


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
    residual = None
    if closed_form_available(spec):
        residual = float(_CHARPOLYS[spec.id](4.0 * value, alpha1, beta1))
    return OptimalSolution(
        strategy=QuantumStrategy(state=eig.max_eigenvector, meas_a=meas_a, meas_b=meas_b),
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

# Certified gap: the search ends once no point of the quarter can beat the
# reported value by more than GAP_TOL.
GAP_TOL = 1e-9
# Branch-and-bound cells per LAPACK batch (one to five real 4x4 solves
# each), and caps on the cells a split may produce and on the rounds; when
# a cap binds the search stops and reports the bound it reached. The first
# partition holds at most ((GRID_MAX - 1) // 16)^2 = 65536 cells.
_BATCH_CELLS = 1024
MAX_CELLS = 1 << 14
MAX_ROUNDS = 40
_CHILD_OFFSETS = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
# An ascent step is kept unless it lowers lambda_max by more than rounding;
# one that does is halved at most this often.
_ROUNDING = 1e-13
_HALVINGS = 8
# Below this gap to the next eigenvalue the top one counts as degenerate and
# has no Hessian.
_DEGENERATE = 1e-10
# The Newton polish stops after this many rounds, or after a step that moves
# neither angle by more than _STEP_TOL.
_POLISH_ROUNDS = 60
_STEP_TOL = 1e-10


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


def _trig(t) -> np.ndarray:
    """f = (1, cos t, sin t) and its first two derivatives, shape (3, *t.shape, 3)."""
    t = np.asarray(t, dtype=float)
    one, zero, cos, sin = np.ones_like(t), np.zeros_like(t), np.cos(t), np.sin(t)
    return np.stack([
        np.stack([one, cos, sin], axis=-1),
        np.stack([zero, -sin, cos], axis=-1),
        np.stack([zero, -cos, -sin], axis=-1),
    ])


def _curvature_bound(kernel: np.ndarray) -> float:
    """K_aa + 2 K_ab + K_bb, with |d^T (d^2 B) d| <= (K_aa + 2 K_ab + K_bb) max|d_i|^2.

    Each second derivative of B contracts the M[u, v] with coefficients of
    modulus at most 1, and zero where u (for alpha1) or v (for beta1) is the
    constant term, so its norm is at most the sum of those ||M[u, v]||.
    """
    norms = np.abs(np.linalg.eigvalsh(kernel)).max(axis=-1)
    return float(norms[1:, :].sum() + 2.0 * norms[1:, 1:].sum() + norms[:, 1:].sum())


def _planar_jet(kernel: np.ndarray, alpha1: float, beta1: float):
    """lambda_max of B(alpha1, beta1) with its gradient and Hessian in the two angles.

    The derivatives are first- and second-order perturbation theory of the
    top eigenpair, on derivatives of B taken term by term from the kernel.
    The Hessian is None where the top eigenvalue is degenerate.
    """
    fa, fb = _trig(alpha1), _trig(beta1)
    ops = np.einsum("iu,jv,uvkl->ijkl", fa, fb, kernel)  # d^i/d alpha1^i d^j/d beta1^j of B
    lam, vecs = np.linalg.eigh(ops[0, 0])
    top = vecs[:, -1]
    coupling = np.stack([ops[1, 0] @ top, ops[0, 1] @ top]) @ vecs  # <v_k| dB |top>
    grad = coupling[:, -1]
    gaps = lam[-1] - lam[:-1]
    if gaps[-1] <= _DEGENERATE:
        return float(lam[-1]), grad, None
    second = np.array([[top @ ops[2, 0] @ top, top @ ops[1, 1] @ top],
                       [top @ ops[1, 1] @ top, top @ ops[0, 2] @ top]])
    hess = second + 2.0 * (coupling[:, :-1] / gaps) @ coupling[:, :-1].T
    return float(lam[-1]), grad, hess


def _cell_terms(flat_kernel: np.ndarray, centres: np.ndarray, halfwidth: float):
    """B(c), r dB/d alpha1 and r dB/d beta1 at cell centres c, each (n, 16)."""
    fa, fb = _trig(centres[:, 0]), _trig(centres[:, 1])
    half, d_half = (fa[:2] @ flat_kernel).reshape(2, -1, 3, 16)
    return (
        np.einsum("nv,nvk->nk", fb[0], half),
        halfwidth * np.einsum("nv,nvk->nk", fb[0], d_half),
        halfwidth * np.einsum("nv,nvk->nk", fb[1], half),
    )


def _top_eigenvalues(ops: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(ops.reshape(-1, 4, 4))[:, -1]


def _cell_bounds(
    kernel: np.ndarray, centres: np.ndarray, halfwidth: float, curvature: float,
    incumbent: float,
) -> tuple[np.ndarray, np.ndarray]:
    """lambda_max at each cell centre, and an upper bound on it over the cell.

    A cell is the square of half-width r around its centre c. On it
    B(c + d) = B(c) + d_a dB/d alpha1 + d_b dB/d beta1 + R with
    ||R|| <= curvature r^2 / 2. By Weyl's inequality lambda_max stays below
    lambda_max(B(c)) + ||r dB/d alpha1||_F + ||r dB/d beta1||_F + ||R||.
    Where that does not settle the cell against the best value known
    (``incumbent`` or a centre of this round), the bound is tightened to the
    largest top eigenvalue of the affine part at the four corners, which is
    its maximum over the cell since lambda_max is convex, plus ||R||.
    """
    flat = kernel.reshape(3, 48)
    remainder = 0.5 * curvature * halfwidth * halfwidth
    values, bounds = np.empty(len(centres)), np.empty(len(centres))
    for start in range(0, len(centres), _BATCH_CELLS):
        cells = slice(start, start + _BATCH_CELLS)
        op, d_alpha, d_beta = _cell_terms(flat, centres[cells], halfwidth)
        values[cells] = _top_eigenvalues(op)
        bounds[cells] = (values[cells] + np.linalg.norm(d_alpha, axis=1)
                         + np.linalg.norm(d_beta, axis=1) + remainder)
    unsettled = np.flatnonzero(bounds > max(incumbent, values.max()) + 0.5 * GAP_TOL)
    for start in range(0, len(unsettled), _BATCH_CELLS):
        cells = unsettled[start : start + _BATCH_CELLS]
        op, d_alpha, d_beta = _cell_terms(flat, centres[cells], halfwidth)
        corners = np.stack([op + d_alpha + d_beta, op + d_alpha - d_beta,
                            op - d_alpha + d_beta, op - d_alpha - d_beta])
        corner_max = _top_eigenvalues(corners).reshape(4, -1).max(axis=0)
        bounds[cells] = np.minimum(bounds[cells], corner_max + remainder)
    return values, bounds


@dataclass(frozen=True)
class PlanarSearch:
    """Branch-and-bound result: the best cell centre found and a bound over the quarter.

    ``upper`` bounds lambda_max over all of [0, pi]^2; it lies within
    GAP_TOL / 2 of ``value`` unless ``capped`` (MAX_CELLS or MAX_ROUNDS
    stopped the search first). ``cells`` counts the cells evaluated.
    """

    alpha1: float
    beta1: float
    value: float
    upper: float
    rounds: int
    cells: int
    capped: bool


def branch_and_bound(kernel: np.ndarray, cells_per_axis: int) -> PlanarSearch:
    """Certified maximum of lambda_max over the quarter [0, pi]^2.

    Starts from ``cells_per_axis``^2 square cells. Each round evaluates the
    open cells, discards those whose bound does not exceed the best centre
    value by more than GAP_TOL / 2, and splits the rest in four.
    """
    curvature = _curvature_bound(kernel)
    halfwidth = math.pi / (2 * cells_per_axis)
    axis = (2 * np.arange(cells_per_axis) + 1) * halfwidth
    centres = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    best, best_value, upper, evaluated = centres[0], -math.inf, -math.inf, 0
    for rounds in range(1, MAX_ROUNDS + 1):
        values, bounds = _cell_bounds(kernel, centres, halfwidth, curvature, best_value)
        evaluated += len(centres)
        k = int(np.argmax(values))  # first occurrence = lexicographic tie-break
        if values[k] > best_value:
            best, best_value = centres[k], float(values[k])
        open_cells = bounds > best_value + 0.5 * GAP_TOL
        if not open_cells.all():
            upper = max(upper, float(bounds[~open_cells].max()))
        centres = centres[open_cells]
        capped = len(centres) > 0 and (rounds == MAX_ROUNDS or 4 * len(centres) > MAX_CELLS)
        if capped:
            upper = max(upper, float(bounds[open_cells].max()))
        if capped or len(centres) == 0:
            break
        halfwidth /= 2.0
        centres = (centres[:, None, :] + halfwidth * _CHILD_OFFSETS).reshape(-1, 2)
    return PlanarSearch(
        alpha1=float(best[0]), beta1=float(best[1]), value=best_value,
        upper=max(upper, best_value), rounds=rounds, cells=evaluated, capped=capped,
    )


def refine_planar(
    spec: GameSpec, alpha1: float, beta1: float, halfwidth: float
) -> tuple[float, float, float]:
    """Ascent of lambda_max from a start point, by Newton steps where they rise.

    With g and H the perturbation-theory gradient and Hessian, each round
    tries in turn the Newton step -H^-1 g (where H is negative definite),
    the Newton step along g (where g^T H g < 0) and g itself, each
    shortened to move neither angle by more than ``halfwidth`` and halved
    until lambda_max does not fall by more than rounding. If none is kept
    it takes the step g / K, with K from ``_curvature_bound``: along it the
    Rayleigh quotient of the current top eigenvector, and so lambda_max,
    rises by at least |g|^2 / 2K. Stops after a step that moves neither
    angle by more than _STEP_TOL, or after _POLISH_ROUNDS rounds. Returns
    (alpha1, beta1, value).
    """
    kernel = _planar_kernel(spec)
    curvature = _curvature_bound(kernel)
    point = np.array([alpha1, beta1], dtype=float)
    value, grad, hess = _planar_jet(kernel, *point)
    for _ in range(_POLISH_ROUNDS):
        if curvature == 0.0 or not grad.any():
            break
        directions = []
        if hess is not None:
            if hess[0, 0] < 0.0 and np.linalg.det(hess) > 0.0:
                directions.append(-np.linalg.solve(hess, grad))
            slope_curvature = grad @ hess @ grad
            if slope_curvature < 0.0:
                directions.append(-(grad @ grad) / slope_curvature * grad)
        directions.append(grad)
        trial = None
        for step in directions:
            step = step * min(1.0, halfwidth / np.abs(step).max())
            for _ in range(_HALVINGS):
                trial = _planar_jet(kernel, *(point + step))
                if trial[0] >= value - _ROUNDING:
                    break
                trial, step = None, 0.5 * step
            if trial is not None:
                break
        if trial is None:
            step = grad / curvature
            step *= min(1.0, halfwidth / np.abs(step).max())
            trial = _planar_jet(kernel, *(point + step))
        point = point + step
        value, grad, hess = trial
        if np.abs(step).max() <= _STEP_TOL:
            break
    return float(point[0]), float(point[1]), value


def _wrap_angle(t: float) -> float:
    wrapped = math.remainder(t, 2.0 * math.pi)
    # math.remainder returns values in [-pi, pi]; pin the -pi representative to pi
    # so reported angles stay inside the closed interval deterministically.
    if wrapped == -math.pi:
        wrapped = math.pi
    return wrapped


def optimize_planar(spec: GameSpec, grid_points: int = 721) -> OptimalSolution:
    """Certified maximization of lambda_max over (alpha1, beta1).

    Flipping the sign of either party's angle conjugates that party by the
    X gate and preserves the spectrum, so optima come in sign quadruples;
    the representative with alpha1 >= 0 and beta1 >= 0 is reported, and
    only the quarter [0, pi]^2 is searched, on the real trigonometric
    kernel of ``_planar_kernel``. ``branch_and_bound`` starts from
    (``grid_points`` - 1) // 16 cells per axis (GRID_MIN to GRID_MAX; 721
    gives 45), ``refine_planar`` polishes its best point by Newton steps,
    and the solution is recomputed from the complex Bell operator. Its
    ``upper_bound`` is the bound the search certified, at most GAP_TOL
    above the value unless a cap stopped the search. Only
    2-input/2-output games are supported.
    """
    if not (spec.n_x == 2 and spec.n_y == 2 and spec.n_a == 2 and spec.n_b == 2):
        raise NotPlanarApplicableError(
            f"game {spec.id!r} is {spec.n_x}x{spec.n_y} inputs / "
            f"{spec.n_a}x{spec.n_b} outputs; the planar family covers 2x2x2x2"
        )
    if not GRID_MIN <= grid_points <= GRID_MAX:
        raise ValueError(f"grid_points must lie in [{GRID_MIN}, {GRID_MAX}], got {grid_points}")

    cells_per_axis = (grid_points - 1) // 16
    search = branch_and_bound(_planar_kernel(spec), cells_per_axis)
    alpha1, beta1, _ = refine_planar(
        spec, search.alpha1, search.beta1, halfwidth=math.pi / (2 * cells_per_axis)
    )
    # sign flips of either angle are local X conjugations; pick the
    # non-negative representative of each
    alpha1, beta1 = abs(_wrap_angle(alpha1)), abs(_wrap_angle(beta1))
    solution = _planar_solution(spec, alpha1, beta1)
    return replace(solution, upper_bound=max(search.upper, solution.value))


# ---------------------------------------------------------------------------
# Fixed qutrit strategy for the weighted three-outcome catalog game
# ---------------------------------------------------------------------------


def _fourier_measurement(sign: int, phase_angle: float) -> np.ndarray:
    """Output a projects onto sum_k omega^(sign a k) e^(i k phase_angle) |k> / sqrt(3)."""
    omega = np.exp(2j * math.pi / 3.0)
    k = np.arange(3)
    vecs = omega ** (sign * k[:, None] * k) * np.exp(1j * k * phase_angle)  # [a, k]
    return vecs[:, :, None] * vecs[:, None, :].conj() / 3.0


def cglmp_strategy() -> QuantumStrategy:
    """The known optimal qutrit strategy for the catalog game ``cglmp``.

    State (|00> + kappa |11> + |22>)/sqrt(2 + kappa^2) with
    kappa = (sqrt(11) - sqrt(3))/2, and phase-twisted Fourier bases with
    Alice phases (0, pi/3) and Bob phases (-pi/6, pi/6); Bob's bases run
    through the outputs in the opposite direction (sign -1).
    """
    kappa = (math.sqrt(11.0) - math.sqrt(3.0)) / 2.0
    state = np.zeros(9, dtype=complex)
    state[0] = 1.0
    state[4] = kappa
    state[8] = 1.0
    state /= np.linalg.norm(state)
    alice = np.array([_fourier_measurement(1, t) for t in (0.0, math.pi / 3.0)])
    bob = np.array([_fourier_measurement(-1, t) for t in (-math.pi / 6.0, math.pi / 6.0)])
    return QuantumStrategy(state=state, meas_a=alice, meas_b=bob)
