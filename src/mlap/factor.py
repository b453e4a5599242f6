"""One factorization per public call of the package's SPD systems.

Every linear system the package solves directly has the form

    A = diag(d) - s * W[idx, idx]

with ``d > 0`` large enough that ``A`` is symmetric positive definite:
the killed chain's interior weak form ``diag(nu_int) - W_int`` (Green
columns, killed kernels, Dirichlet dipoles), the same form grounded at one
state per component (dipoles without a boundary) and the regression system
``diag(mu + gamma * nu) - gamma * W``.  :func:`spd_factor` factors ``A``
once; the returned object's ``solve(B)`` applies ``A^{-1}`` to a vector or
to the columns of a matrix, and ``lowest_eigenvalue(scale)`` returns the
smallest eigenvalue of ``diag(scale)^{-1} A diag(scale)^{-1}``.  Both
branches raise :class:`SingularSystem` when ``A`` is not positive definite.

The branch follows the fill ``nnz(W) / k^2`` of the input, ``k = len(idx)``;
it bounds the fill of ``W[idx, idx]`` from above.

* Above ``SPARSE_FILL``: numpy LAPACK on the dense ``k x k`` matrix.
* At or below: SuperLU on the CSR coupling with a symmetric minimum-degree
  ordering and diagonal pivots only, and ARPACK in shift-invert mode for
  the eigenvalue.  scipy is imported only here.

Every row of ``W`` has a nonzero, so ``nnz(W) >= k`` and the sparse branch
needs ``k >= 1 / SPARSE_FILL``: small systems always take the dense branch.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularSystem
from .net import Network

# Measured with 2 BLAS threads: on rings with chords and on grids from k = 600
# up, the sparse branch solves 4-8x faster and factors plus finds the killed
# radius 6-22x faster; at fill 0.01-0.03 (k = 100-300) both take a few ms.
# Random expanders are its worst case: fill-in makes the solve 2.8x slower
# than LAPACK at fill 0.0093 (k = 3200, 28 neighbours), while the killed
# chain, whose dense eigenvalue costs more than its solve, breaks even.
SPARSE_FILL = 0.01


def spd_factor(net: Network, idx, d, s: float = 1.0):
    """Factor ``diag(d) - s * W[idx, idx]`` for sorted distinct state indices ``idx``."""
    idx = np.asarray(idx, dtype=np.intp)
    k = len(idx)
    if k and net.nnz <= SPARSE_FILL * k * k:
        return SparseSPD(net, idx, d, s)
    return DenseSPD(np.diag(d) - s * net.W[np.ix_(idx, idx)])


class DenseSPD:
    """LAPACK path: a Cholesky factorization checks positive pivots.

    numpy has no triangular solve, so ``solve`` runs one LU solve on the
    matrix rather than two general solves on the Cholesky factor.
    """

    def __init__(self, A: np.ndarray):
        try:
            np.linalg.cholesky(A)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"system matrix is not positive definite: {exc}") from None
        self._A = A

    def solve(self, B) -> np.ndarray:
        return np.linalg.solve(self._A, B)

    def lowest_eigenvalue(self, scale) -> float:
        return float(np.linalg.eigvalsh(self._A / np.outer(scale, scale))[0])


class SparseSPD:
    """SuperLU path with the positive-pivot check of a Cholesky factorization.

    With diagonal pivots only, the factorization is ``A = L U`` of the
    symmetrically permuted matrix, whose leading principal minors are the
    running products of the diagonal of ``U``.  By Sylvester's criterion ``A``
    is positive definite iff the row and column permutations agree and every
    such pivot is positive.
    """

    def __init__(self, net: Network, idx: np.ndarray, d: np.ndarray, s: float):
        from scipy.sparse import diags_array
        from scipy.sparse.linalg import splu

        W = net.W_csr if len(idx) == net.n else net.W_csr[idx][:, idx]
        A = (diags_array(d) - s * W).tocsc()
        try:
            lu = splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                      options={"SymmetricMode": True})
        except RuntimeError as exc:  # exactly singular
            raise SingularSystem(f"system matrix is singular: {exc}") from None
        if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0.0)):
            raise SingularSystem("system matrix is not positive definite")
        self._A = A
        self._lu = lu

    def solve(self, B) -> np.ndarray:
        return self._lu.solve(B)

    def lowest_eigenvalue(self, scale) -> float:
        from scipy.sparse.linalg import LinearOperator, eigsh

        scale = np.asarray(scale, dtype=float)
        k = len(scale)
        if k == 1:  # ARPACK needs k >= 2
            return float(self._A[0, 0]) / float(scale[0]) ** 2
        M = LinearOperator((k, k), dtype=float, matvec=lambda x: (self._A @ (x / scale)) / scale)
        # shift-invert at 0 through the factor: the eigenvalue of M nearest 0
        M_inv = LinearOperator((k, k), dtype=float,
                               matvec=lambda x: scale * self._lu.solve(scale * x))
        (lam,) = eigsh(M, k=1, sigma=0.0, OPinv=M_inv, v0=scale, return_eigenvectors=False)
        return float(lam)
