"""Dense complex-matrix primitives: tensor product, Hermitian eigensolver, partial trace.

Everything here works on plain ``numpy`` arrays of ``complex128``. The
eigensolver is LAPACK's ``eigh`` followed by a fixed eigenvector phase
gauge, so reports built from its eigenvectors do not depend on the
solver's arbitrary phases; all operations are pure functions with no
shared mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotHermitianError, NotSquareError

# Relative tolerance for accepting a matrix as Hermitian.
HERMITIAN_RTOL = 1e-12
# Eigenvalues closer than this (relative to max(1, |lambda_max|)) are one eigenspace.
DEGENERACY_RTOL = 1e-8


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(m)))


def is_hermitian(m: np.ndarray, rtol: float = HERMITIAN_RTOL) -> bool:
    """True when max |M[i,j] - conj(M[j,i])| <= rtol * max(1, ||M||_F)."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    dev = np.abs(m - m.conj().T).max() if m.size else 0.0
    return dev <= rtol * max(1.0, frobenius(m))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product, (a (x) b)[i*rb+k, j*cb+l] = a[i,j] * b[k,l].

    The tensor product of two Hermitian matrices is Hermitian, so the
    Hermitian property propagates through this operation.
    """
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


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

    def top_eigenspace(self, rtol: float = DEGENERACY_RTOL) -> tuple[np.ndarray, bool]:
        """Orthonormal basis (columns) of the top eigenspace.

        Eigenvalues within ``rtol * max(1, |lambda_max|)`` of the maximum are
        clustered into one space. Returns ``(basis, degenerate)``.
        """
        lam = self.eigenvalues
        tol = rtol * max(1.0, abs(float(lam[-1])))
        members = np.nonzero(lam >= lam[-1] - tol)[0]
        basis = self.eigenvectors[:, members]
        return basis, basis.shape[1] > 1

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def eig_hermitian(h: np.ndarray, rtol: float = HERMITIAN_RTOL) -> EigenSystem:
    """Full eigendecomposition of a Hermitian matrix by LAPACK ``eigh``.

    Eigenvectors are put in a fixed phase gauge: the largest-magnitude
    component of each (the first, on ties) is real and positive.

    Raises ``NotSquareError`` / ``NotHermitianError`` when the input fails
    the preconditions.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {h.shape}")
    if not is_hermitian(h, rtol):
        raise NotHermitianError("matrix is not Hermitian within tolerance")

    # Symmetrize away representation noise so the solver sees an exactly
    # Hermitian matrix; this stays within the acceptance tolerance above.
    w, v = np.linalg.eigh((h + h.conj().T) / 2.0)
    columns = np.arange(v.shape[1])
    pivot_rows = np.argmax(np.abs(v), axis=0)
    pivots = v[pivot_rows, columns]
    v = v * (pivots.conj() / np.abs(pivots))
    v[pivot_rows, columns] = np.abs(pivots)  # exactly real, not real up to rounding
    return EigenSystem(w, v)


def max_eigenvalue(h: np.ndarray) -> float:
    return eig_hermitian(h).max_eigenvalue


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
