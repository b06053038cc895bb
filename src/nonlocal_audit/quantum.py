"""Quantum strategies and values for two-party games.

Covers the planar-qubit measurement family for 2-input/2-output games
(sufficient for extremal quantum correlations in that scenario), Bell
operator construction, eigenvalue-based two-angle optimization, exact
closed-form optima for the catalog games ``g1`` and ``g2``, and the fixed
qutrit strategy for ``cglmp``. ``best_known_solution`` picks the route for
a game, and the ``OptimalSolution`` it returns names it.

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
from .games import GameSpec, _shown, builtin_game, matches_catalog
from .hermitian import eig_hermitian

PROJECTOR_ATOL = 1e-10
STATE_NORM_ATOL = 1e-12


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


def swap_strategy(strategy: QuantumStrategy) -> QuantumStrategy:
    """The same strategy with the parties exchanged; it is not validated."""
    # C-contiguous, so that an einsum sums over it in the same order as over any state
    state = strategy.state.reshape(strategy.d_a, strategy.d_b).T.reshape(-1)
    return QuantumStrategy(state=state, meas_a=strategy.meas_b, meas_b=strategy.meas_a)


@dataclass(frozen=True)
class OptimalSolution:
    """Best strategy found for a game, with the value and diagnostics.

    ``method`` names the route that built it: ``closed_form``
    (``closed_form_optimum``), ``planar_search`` (``optimize_planar``) or
    ``fixed_catalog_strategy`` (``cglmp_strategy``, in ``best_known_solution``).
    ``residual`` is the value of the game's closed-form characteristic
    polynomial at the solution (only for the catalog tables of a game that
    has one, else None). ``search`` is the ``PlanarSearch`` that
    ``optimize_planar`` ran (None on other routes); its ``upper`` is the
    certified upper bound on the game's quantum value, which by Jordan's
    lemma bounds every 2x2x2x2 strategy, in any dimension
    (``docs/report-schema.md``).
    """

    strategy: QuantumStrategy
    value: float
    angles: PlanarAngles | None
    residual: float | None
    method: str
    search: PlanarSearch | None = None


def planar_measurement(theta) -> np.ndarray:
    """Eigenprojectors of the observable [[0, e^{i theta}], [e^{-i theta}, 0]], shape (2, 2, 2).

    Output 0 is the +1 eigenprojector |v+><v+| with v+ = (e^{i theta}, 1)/sqrt(2). An array
    of angles gives one such array per angle, shape theta.shape + (2, 2, 2).
    """
    phase = np.exp(1j * np.asarray(theta, dtype=float))
    v = np.empty(phase.shape + (2, 2), dtype=complex)  # [..., output, component]
    v[..., 0] = phase[..., None]
    v[..., 1] = (1.0, -1.0)
    v /= math.sqrt(2.0)
    return v[..., :, None] * v[..., None, :].conj()


def planar_measurements(angles: PlanarAngles) -> tuple[np.ndarray, np.ndarray]:
    """Both parties' projector arrays, shape (inputs, 2, 2, 2), at the given phases."""
    meas = planar_measurement(angles.alpha + angles.beta)
    return meas[:len(angles.alpha)], meas[len(angles.alpha):]


def bell_operator(spec: GameSpec, meas_a: np.ndarray, meas_b: np.ndarray) -> np.ndarray:
    """B = sum_{x,y} pi(x,y) sum_{a,b} V(a,b|x,y) Pi^x_a (x) Pi^y_b."""
    if (meas_a.shape[:2], meas_b.shape[:2]) != ((spec.n_x, spec.n_a), (spec.n_y, spec.n_b)):
        raise DimensionMismatchError(f"projector arrays with (inputs, outputs) {meas_a.shape[:2]} "
                                     f"and {meas_b.shape[:2]} do not match the game")
    d = meas_a.shape[-1] * meas_b.shape[-1]
    op = np.einsum("xyab,xaij,ybkl->ikjl", spec.weights, meas_a, meas_b)
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
    return float(np.sum(spec.weights * correlation_table(spec, strategy)))


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
    if not (isinstance(game_id, str) and game_id in _CHARPOLYS):
        raise UnknownGameError(f"no closed-form optimum for {_shown(game_id)}; "
                               f"closed forms exist for {', '.join(_CHARPOLYS)}")
    if game_id == "g1":
        alpha1 = 2.0 * math.atan(math.sqrt((5.0 + math.sqrt(13.0)) / 6.0))
        return alpha1, alpha1 - math.pi
    eta = ((43.0 + 9.0 * math.sqrt(29.0)) / 2.0) ** (1.0 / 3.0)
    alpha1 = 2.0 * math.atan(math.sqrt((eta * eta + 2.0 * eta - 5.0) / (3.0 * eta)))
    return alpha1, alpha1


def _planar_solution(
    spec: GameSpec, alpha1: float, beta1: float, method: str
) -> OptimalSolution:
    """The top eigenvector of the Bell operator at planar angles (0, alpha1), (0, beta1),
    as route ``method`` reports it.

    The residual is the closed-form characteristic polynomial at 4x the value
    (the scaled operator's eigenvalue), set only when the tables are those of
    a catalog game that has one.
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
        method=method,
    )


def closed_form_optimum(game_id: str) -> OptimalSolution:
    """Exact-radical optimal strategy for the catalog game g1 or g2, with its
    charpoly residual."""
    return _planar_solution(builtin_game(game_id), *closed_form_angles(game_id), "closed_form")


# ---------------------------------------------------------------------------
# Planar two-angle optimization
# ---------------------------------------------------------------------------

# Certified gap: the search ends once no point of the quarter can beat the
# reported value by more than GAP_TOL.
GAP_TOL = 1e-9
# The first partition has _FIRST_CELLS^2 cells; the value does not depend on
# it, and from 8 cells per axis a game takes 0.15 to 0.75 thousand solves.
# Caps on the cells a split may produce (at 2^16 a ridge maximum closes
# within GAP_TOL) and on the rounds; when a cap binds the search stops and
# reports the bound it reached.
_FIRST_CELLS = 8
MAX_CELLS = 1 << 16
MAX_ROUNDS = 40
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
    kernel = np.einsum("xyab,xauij,ybvkl->uvikjl", spec.weights, coeffs, coeffs)
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


def _curvature_bounds(kernel: np.ndarray) -> tuple[float, float, float]:
    """K_a, K_b and K_aa + 2 K_ab + K_bb, bounds on the second derivatives of B.

    For a unit v, d^2 (v^T B v) / d alpha1^2 = -sum_{u=1,2} f_u(alpha1) w_u, where
    |w_u| <= ||M[u, 0]|| + hypot(||M[u, 1]||, ||M[u, 2]||); by Cauchy-Schwarz
    K_a, the hypot of those two, bounds it, and K_b likewise in beta1. K_aa,
    K_ab and K_bb sum the ||M[u, v]|| that each second derivative of B
    contracts, so |d^T (d^2 B) d| <= (K_aa + 2 K_ab + K_bb) max|d_i|^2.
    """
    norms = np.abs(np.linalg.eigvalsh(kernel)).max(axis=-1)
    k_a, k_b = (math.hypot(*(n[1:, 0] + np.hypot(n[1:, 1], n[1:, 2]))) for n in (norms, norms.T))
    k_aa, k_ab, k_bb = norms[1:, :].sum(), norms[1:, 1:].sum(), norms[:, 1:].sum()
    return k_a, k_b, float(k_aa + 2.0 * k_ab + k_bb)


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


# Rows: the eigenvectors of Y (x) Y in the kernel's frame, times sqrt(2); the
# first two span its +1 eigenspace, the last two its -1 eigenspace.
_PARITY_BASIS = np.array([[0, 1, 1, 0], [1, 0, 0, -1], [0, 1, -1, 0], [1, 0, 0, 1]], dtype=float)


def _parity_blocks(kernel: np.ndarray) -> np.ndarray:
    """Each M[u, v]'s two diagonal 2x2 blocks [[p, q], [q, s]] in the eigenbasis of
    Y (x) Y, shape (3, 3, 3, 2): [u, v, (p, q, s), block]."""
    rotated = 0.5 * np.einsum("ri,uvij,sj->uvrs", _PARITY_BASIS, kernel, _PARITY_BASIS)
    rows, cols = np.array([[0, 2], [0, 2], [1, 3]]), np.array([[0, 2], [1, 3], [1, 3]])
    return rotated[:, :, rows, cols]


def _search_kernel(spec: GameSpec, kernel: np.ndarray) -> np.ndarray:
    """What ``_top_eigenvalues`` solves for the game: ``kernel``'s parity blocks
    where its weights equal their flip of both outputs, else ``kernel`` itself."""
    weights = spec.weights
    return _parity_blocks(kernel) if np.array_equal(weights, weights[:, :, ::-1, ::-1]) else kernel


def _top_eigenvalues(kernel: np.ndarray, points: np.ndarray) -> np.ndarray:
    """lambda_max of B at the angles alpha1 + 1j beta1 of each point.

    ``kernel`` is ``_planar_kernel``'s, shape (3, 3, 4, 4), solved by one real
    4x4 ``eigvalsh`` per point, or ``_search_kernel``'s parity blocks, shape
    (3, 3, 3, 2), solved in closed form: lambda_max is the larger of the two
    blocks' (p + s)/2 + hypot((p - s)/2, q). The blocks are taken where the
    weights are invariant under flipping both outputs: Z (x) Z maps a planar
    projector to the other output's, so it commutes with B, and in the
    kernel's frame it is Y (x) Y, which then commutes with every M[u, v]. So
    the off-block entries that ``_parity_blocks`` drops are the kernel
    einsum's rounding of exact zeros (at most 1.1e-16 on drawn tables with
    weights up to 2), and by Weyl's inequality dropping them moves lambda_max
    by at most the norm of the dropped part: rounding on the scale of the
    weights, as is ``eigvalsh``'s own error. The selection reads the tables,
    not the kernel, so no tolerance decides it.
    """
    fa, fb = trig = np.ones((2, len(points), 3))
    angles = np.array([points.real, points.imag])
    trig[:, :, 1], trig[:, :, 2] = np.cos(angles), np.sin(angles)
    ops = (fa[:, :, None] * fb[:, None, :]).reshape(-1, 9) @ kernel.reshape(9, -1)
    if kernel.shape[2:] == (4, 4):
        return np.linalg.eigvalsh(ops.reshape(-1, 4, 4))[:, -1]
    p, q, s = ops.reshape(-1, 3, 2).transpose(1, 0, 2)
    return (0.5 * (p + s) + np.hypot(0.5 * (p - s), q)).max(axis=-1)


@dataclass(frozen=True)
class PlanarSearch:
    """Branch-and-bound result: the best lattice point found and a bound over the quarter.

    ``upper`` bounds lambda_max over all of [0, pi]^2; it lies within GAP_TOL / 2 of
    ``value`` unless ``capped`` (MAX_CELLS or MAX_ROUNDS stopped the search first).
    ``cells`` counts the lambda_max solves, one per distinct lattice point: the
    (_FIRST_CELLS + 1)^2 = 81 vertices of the first partition and the new vertices
    of every split (0.15 to 0.75 thousand per game on the catalog and benchmark games).
    """

    alpha1: float
    beta1: float
    value: float
    upper: float
    rounds: int
    cells: int
    capped: bool


# A cell's 3x3 block of child lattice points, row-major. _QUAD picks corners
# (0, 0), (0, 1), (1, 0), (1, 1): the cell's own are 2 * _QUAD, child k's _QUAD[k] + _QUAD.
_BLOCK = (np.arange(3.0)[:, None] + 1j * np.arange(3.0)).ravel()
_QUAD, _FRESH = np.array([0, 1, 3, 4]), np.array([1, 3, 4, 5, 7])
# corner values to the mean, alpha1, beta1 and cross coefficients of their interpolant
_INTERPOLANT = 0.25 * np.array([[1, -1, -1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, 1, 1, 1]])


def _cell_bounds(corners: np.ndarray, k_a: float, k_b: float, halfwidth: float) -> np.ndarray:
    """Bounds on lambda_max over square cells of half-width r, from their (n, 4) corner values.

    At p lambda_max is q(p), the Rayleigh quotient of p's top eigenvector, at
    most lambda_max at each corner; at offset (s, t) from the centre
    q + K_a s^2 / 2 + K_b t^2 / 2 is convex along each axis, so lies below its
    bilinear interpolant. So with I = m + c_s s/r + c_t t/r + c_st st/r^2 that
    of the corner values, A = K_a r^2 / 2 and B = K_b r^2 / 2, lambda_max(p) <=
    I + A (1 - s^2/r^2) + B (1 - t^2/r^2) <= m + |c_st| + h(c_s, A) + h(c_t, B),
    the bound returned. h(c, A), the largest c s + A (1 - s^2) over |s| <= 1,
    is A + c^2 / 4A if |c| <= 2A, else |c| (|c| at A = 0, not nan).
    """
    mean, *slopes, cross = (corners @ _INTERPOLANT).T
    bounds = mean + np.abs(cross)
    for slope, k in zip(slopes, (k_a, k_b)):
        a, c = 0.5 * k * halfwidth**2, np.abs(slope)
        bounds += c if a == 0.0 else np.where(c <= 2.0 * a, a + c * c / (4.0 * a), c)
    return bounds


def branch_and_bound(kernel: np.ndarray, k_a: float, k_b: float) -> PlanarSearch:
    """Certified maximum of lambda_max over the quarter [0, pi]^2.

    lambda_max is solved only at the vertices of a dyadic lattice, each
    once; ``_cell_bounds`` bounds a square cell from its corner values.
    Starts from _FIRST_CELLS^2 = 64 cells. Each round drops the cells whose
    bound does not exceed the best vertex value by more than GAP_TOL / 2 and
    splits the rest in four, solving only the new edge midpoints and centres,
    once each where neighbours share them: about one solve per child cell,
    in 13 or 14 rounds on a game whose maximum is isolated. ``kernel`` is
    either form that ``_top_eigenvalues`` takes.
    """
    spacing = math.pi / _FIRST_CELLS
    # a lattice point is i + 1j j, exact in floats for indices below 2^53
    side = np.arange(_FIRST_CELLS + 1.0)
    lattice = side[:, None] + 1j * side
    vertices = _top_eigenvalues(kernel, spacing * lattice.ravel()).reshape(lattice.shape)
    k = int(np.argmax(vertices))  # first in row-major order
    best, best_value, evaluated = spacing * lattice.flat[k], float(vertices.flat[k]), vertices.size
    # each cell: its lower-left lattice point and its four corner values
    cells = lattice[:-1, :-1].ravel()
    corners = np.stack([vertices[:-1, :-1], vertices[:-1, 1:], vertices[1:, :-1], vertices[1:, 1:]],
                       axis=-1).reshape(-1, 4)
    upper = -math.inf
    for rounds in range(1, MAX_ROUNDS + 1):
        bounds = _cell_bounds(corners, k_a, k_b, 0.5 * spacing)
        open_cells = bounds > best_value + 0.5 * GAP_TOL
        if not open_cells.all():
            upper = max(upper, float(bounds[~open_cells].max()))
        cells, corners = cells[open_cells], corners[open_cells]
        capped = len(cells) > 0 and (rounds == MAX_ROUNDS or 4 * len(cells) > MAX_CELLS)
        if capped:
            upper = max(upper, float(bounds[open_cells].max()))
        if capped or len(cells) == 0:
            break
        spacing /= 2.0
        children = 2.0 * cells[:, None] + _BLOCK
        points, shared = np.unique(children[:, _FRESH], return_inverse=True)
        values = _top_eigenvalues(kernel, spacing * points)
        evaluated += len(values)
        k = int(np.argmax(values))  # first in np.unique (row-major) order
        if values[k] > best_value:
            best, best_value = spacing * points[k], float(values[k])
        block = np.empty((len(cells), 9))
        block[:, 2 * _QUAD] = corners
        block[:, _FRESH] = values[shared].reshape(len(cells), -1)
        cells = children[:, _QUAD].ravel()
        corners = block[:, _QUAD[:, None] + _QUAD].reshape(-1, 4)
    return PlanarSearch(
        alpha1=float(best.real), beta1=float(best.imag), value=best_value,
        upper=max(upper, best_value), rounds=rounds, cells=evaluated, capped=capped,
    )


def refine_planar(
    spec: GameSpec, alpha1: float, beta1: float, halfwidth: float
) -> tuple[float, float, float]:
    """Ascent of lambda_max from a start point, by Newton steps where they rise.

    With g and H the perturbation-theory gradient and Hessian, each round
    takes one candidate step: the Newton step -H^-1 g where H is negative
    definite, else g. It is shortened to move neither angle by more than
    ``halfwidth`` and halved, at most _HALVINGS times, until lambda_max does
    not fall by more than rounding. If it is still not kept the round takes
    the step g / K, K = K_aa + 2 K_ab + K_bb, shortened the same way: along it
    the Rayleigh quotient of the current top eigenvector, and so lambda_max,
    rises by at least |g|^2 / 2K (by less, but still rises, if shortened).
    Stops after a step that moves neither angle by more than _STEP_TOL, or
    after _POLISH_ROUNDS rounds. Returns (alpha1, beta1, value).
    """
    kernel = _planar_kernel(spec)
    return _polish(kernel, _curvature_bounds(kernel)[2], alpha1, beta1, halfwidth)


def _polish(
    kernel: np.ndarray, curvature: float, alpha1: float, beta1: float, halfwidth: float
) -> tuple[float, float, float]:
    """``refine_planar`` on a built kernel, with K = K_aa + 2 K_ab + K_bb from it:
    one candidate step per round, halved at most _HALVINGS times, else g / K."""
    point = np.array([alpha1, beta1], dtype=float)
    value, grad, hess = _planar_jet(kernel, *point)
    for _ in range(_POLISH_ROUNDS):
        if curvature == 0.0 or not grad.any():
            break
        step = grad
        if hess is not None and hess[0, 0] < 0.0 and np.linalg.det(hess) > 0.0:
            step = -np.linalg.solve(hess, grad)
        step = step * min(1.0, halfwidth / np.abs(step).max())
        for _ in range(_HALVINGS):
            trial = _planar_jet(kernel, *(point + step))
            if trial[0] >= value - _ROUNDING:
                break
            step = 0.5 * step
        else:
            step = grad / curvature
            step *= min(1.0, halfwidth / np.abs(step).max())
            trial = _planar_jet(kernel, *(point + step))
        point = point + step
        value, grad, hess = trial
        if np.abs(step).max() <= _STEP_TOL:
            break
    return float(point[0]), float(point[1]), value


def optimize_planar(spec: GameSpec) -> OptimalSolution:
    """Certified maximization of lambda_max over (alpha1, beta1).

    Flipping the sign of either party's angle conjugates that party by the
    X gate and preserves the spectrum, so optima come in sign quadruples;
    the representative with alpha1 >= 0 and beta1 >= 0 is reported, and
    only the quarter [0, pi]^2 is searched, on the real trigonometric
    kernel of ``_planar_kernel``. ``branch_and_bound`` starts from a fixed
    partition of _FIRST_CELLS = 8 cells per axis and bounds each cell from
    lambda_max at its corners and per-axis curvature bounds K_a, K_b (0.15 to
    0.75 thousand solves per game, in closed form on the kernel's two parity
    blocks where the game's weights are invariant under flipping both
    outputs); ``refine_planar``'s ascent, on the same kernel, polishes its
    best vertex by one candidate step per round, at most a first cell's
    half-width, pi / 16; each angle is reduced mod 2 pi, its
    sign dropped, and the solution recomputed from the complex Bell
    operator. Its ``search`` is the branch-and-bound record with ``upper``
    raised to at least the value: the bound the search certified, at
    most GAP_TOL above the value unless a cap stopped the search; a capped
    search logs a warning on the ``nonlocal_audit`` logger with its solve
    count and the bound's excess over the value. Only 2-input/2-output games
    are supported.
    """
    if not (spec.n_x == 2 and spec.n_y == 2 and spec.n_a == 2 and spec.n_b == 2):
        raise NotPlanarApplicableError(
            f"game {spec.id!r} is {spec.n_x}x{spec.n_y} inputs / "
            f"{spec.n_a}x{spec.n_b} outputs; the planar family covers 2x2x2x2"
        )
    kernel = _planar_kernel(spec)
    k_a, k_b, polish_curvature = _curvature_bounds(kernel)
    search = branch_and_bound(_search_kernel(spec, kernel), k_a, k_b)
    alpha1, beta1, _ = _polish(
        kernel, polish_curvature, search.alpha1, search.beta1, math.pi / (2 * _FIRST_CELLS)
    )
    # sign flips of either angle are local X conjugations; pick the
    # non-negative representative of each
    alpha1, beta1 = (abs(math.remainder(t, 2.0 * math.pi)) for t in (alpha1, beta1))
    solution = _planar_solution(spec, alpha1, beta1, "planar_search")
    search = replace(search, upper=max(search.upper, solution.value))
    if search.capped:
        # imported here: at start-up it would cost every command ~4 ms and 0.5 MiB
        import logging

        logging.getLogger("nonlocal_audit").warning(
            "planar search on game %r capped after %d solves in %d rounds; "
            "its bound is %.3g above the value",
            spec.id, search.cells, search.rounds, search.upper - solution.value)
    return replace(solution, search=search)


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


def best_known_solution(spec: GameSpec) -> OptimalSolution:
    """Pick the strategy source: closed form, fixed catalog strategy, or planar optimizer.

    Closed forms and the fixed qutrit strategy only apply to games whose
    tables match the catalog entry; a file-loaded variant that merely
    reuses a catalog id goes through the optimizer, which refuses games
    that are not 2x2x2x2 with ``NotPlanarApplicableError``. The solution's
    ``method`` names the route taken.
    """
    if closed_form_available(spec):
        return closed_form_optimum(spec.id)
    if matches_catalog(spec, "cglmp"):
        strategy = cglmp_strategy()
        value = quantum_game_value(spec, strategy)
        return OptimalSolution(strategy=strategy, value=value, angles=None, residual=None,
                               method="fixed_catalog_strategy")
    return optimize_planar(spec)
