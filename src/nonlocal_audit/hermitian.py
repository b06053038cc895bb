"""Hermitian check and eigensolver for dense complex matrices.

Everything here works on plain ``numpy`` arrays of ``complex128``: one
matrix, or a stack of them over leading axes, solved in one call. The
eigensolver is LAPACK's ``eigh`` followed by a fixed eigenvector phase
gauge, so reports built from its eigenvectors do not depend on the
solver's arbitrary phases; all operations are pure functions with no
shared mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitianError, NotSquareError

# Relative tolerance for accepting a matrix as Hermitian.
HERMITIAN_RTOL = 1e-12
# Eigenvalues closer than this (relative to max(1, |lambda_max|)) are one eigenspace.
DEGENERACY_RTOL = 1e-8
# Eigenvector components within this of the largest magnitude tie for the
# phase gauge's pivot; the first of them is made real.
PIVOT_ATOL = 1e-9


def is_hermitian(m: np.ndarray) -> bool:
    """True when max |M[i,j] - conj(M[j,i])| <= HERMITIAN_RTOL * max(1, ||M||_F)
    for M the matrix, or every matrix of the stack."""
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        return False
    if not m.size:
        return True
    dev = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    if dev.max() <= HERMITIAN_RTOL:  # within tolerance whatever the norm, which counts as >= 1
        return True
    norms = np.sqrt((m.real**2 + m.imag**2).sum(axis=(-2, -1)))
    return bool((dev <= HERMITIAN_RTOL * np.maximum(1.0, norms)).all())


@dataclass(frozen=True)
class EigenSystem:
    """Spectral decomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; column k of ``eigenvectors``
    is the unit eigenvector paired with ``eigenvalues[k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def max_eigenvalue(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def max_eigenvector(self) -> np.ndarray:
        return self.eigenvectors[:, -1]

    def top_eigenspace(self) -> tuple[np.ndarray, bool]:
        """Orthonormal basis (columns) of the top eigenspace.

        Eigenvalues within ``DEGENERACY_RTOL * max(1, |lambda_max|)`` of the
        maximum are clustered into one space. Returns ``(basis, degenerate)``.
        """
        lam = self.eigenvalues
        tol = DEGENERACY_RTOL * max(1.0, abs(float(lam[-1])))
        members = np.nonzero(lam >= lam[-1] - tol)[0]
        basis = self.eigenvectors[:, members]
        return basis, basis.shape[1] > 1


def eig_hermitian(h: np.ndarray) -> EigenSystem:
    """Full eigendecomposition of a Hermitian matrix, or of a stack of them, by LAPACK ``eigh``.

    Eigenvectors are put in a fixed phase gauge: the first component whose
    magnitude lies within ``PIVOT_ATOL`` of the largest is real and positive.
    The tolerance makes exact ties, such as (1, e^{i phi}) / sqrt(2), pick
    the first component whatever the rounding of the two magnitudes.

    A stack h of shape (..., d, d) gives arrays w, v of shape (..., d) and
    (..., d, d), and ``EigenSystem(w[k], v[k])`` is ``eig_hermitian(h[k])``
    bit for bit. Raises ``NotSquareError`` / ``NotHermitianError`` when the
    input, or any matrix of the stack, fails the preconditions.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-2] != h.shape[-1]:
        raise NotSquareError(f"expected a square matrix, got shape {h.shape}")
    if not is_hermitian(h):
        raise NotHermitianError("matrix is not Hermitian within tolerance")

    # Symmetrize away representation noise so the solver sees an exactly
    # Hermitian matrix; this stays within the acceptance tolerance above.
    w, v = np.linalg.eigh((h + h.conj().swapaxes(-1, -2)) / 2.0)
    magnitudes = np.abs(v)
    near_max = magnitudes >= magnitudes.max(axis=-2, keepdims=True) - PIVOT_ATOL
    rows = np.argmax(near_max, axis=-2)  # [..., column]
    *stack, columns = np.indices(rows.shape, sparse=True)
    pivots = v[(*stack, rows, columns)]
    v = v * (pivots.conj() / np.abs(pivots))[..., None, :]
    v[(*stack, rows, columns)] = np.abs(pivots)  # exactly real, not real up to rounding
    return EigenSystem(w, v)

