"""Hermitian check and eigensolver for dense complex matrices.

Everything here works on plain ``numpy`` arrays of ``complex128``. The
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
    """True when max |M[i,j] - conj(M[j,i])| <= HERMITIAN_RTOL * max(1, ||M||_F)."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    dev = np.abs(m - m.conj().T).max() if m.size else 0.0
    return dev <= HERMITIAN_RTOL * max(1.0, float(np.linalg.norm(m)))


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

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def eig_hermitian(h: np.ndarray) -> EigenSystem:
    """Full eigendecomposition of a Hermitian matrix by LAPACK ``eigh``.

    Eigenvectors are put in a fixed phase gauge: the first component whose
    magnitude lies within ``PIVOT_ATOL`` of the largest is real and positive.
    The tolerance makes exact ties, such as (1, e^{i phi}) / sqrt(2), pick
    the first component whatever the rounding of the two magnitudes.

    Raises ``NotSquareError`` / ``NotHermitianError`` when the input fails
    the preconditions.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {h.shape}")
    if not is_hermitian(h):
        raise NotHermitianError("matrix is not Hermitian within tolerance")

    # Symmetrize away representation noise so the solver sees an exactly
    # Hermitian matrix; this stays within the acceptance tolerance above.
    w, v = np.linalg.eigh((h + h.conj().T) / 2.0)
    columns = np.arange(v.shape[1])
    magnitudes = np.abs(v)
    pivot_rows = np.argmax(magnitudes >= magnitudes.max(axis=0) - PIVOT_ATOL, axis=0)
    pivots = v[pivot_rows, columns]
    v = v * (pivots.conj() / np.abs(pivots))
    v[pivot_rows, columns] = np.abs(pivots)  # exactly real, not real up to rounding
    return EigenSystem(w, v)

