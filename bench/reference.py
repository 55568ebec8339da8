"""Independent references for the benchmark's output checks.

For a Dirac channel, P and S are diagonal and T is bidiagonal.  Ordering
the unknowns pairwise, (u_1, v_1, u_2, v_2, ...) for an upper bidiagonal
T or (v_1, u_1, v_2, u_2, ...) for a lower one, turns
H = [[P, T^t], [T, -S]] into a symmetric tridiagonal matrix.  Bisection
on Sturm counts (LAPACK stebz, Parlett, "The Symmetric Eigenvalue
Problem") then yields any single eigenvalue of H in O(N) work.  Inertia
additivity makes c2 the (N+1)-th smallest eigenvalue of H, and the gap
eigenvalues the ones that follow it.

Everything here reads the operator's blocks only; none of it calls the
package's eigensolvers.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

# Floor on an absolute error before it is turned into digits, so that an
# exact agreement reads as 16 digits instead of infinity.
ERROR_FLOOR = 1e-16


def digits(errors) -> float:
    """-log10 of the largest absolute error: the digits every output kept."""
    return -math.log10(max(max(errors), ERROR_FLOOR))


def channel_tridiagonal(B) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of H for diagonal P, S and bidiagonal T.

    Raises ValueError when the blocks do not have that structure, so a
    change of discretization cannot silently invalidate the reference.
    """
    n = B.N
    for name, m in (("P", B.P), ("S", B.S)):
        coo = m.tocoo()
        if np.any(coo.row != coo.col):
            raise ValueError(f"block {name} is not diagonal")
    coo = B.T.tocoo()
    offsets = set((coo.col - coo.row).tolist())
    d = np.empty(2 * n)
    e = np.empty(2 * n - 1)
    e[0::2] = B.T.diagonal(0)
    if offsets <= {0, 1}:
        d[0::2], d[1::2] = B.P.diagonal(), -B.S.diagonal()
        e[1::2] = B.T.diagonal(1)
    elif offsets <= {0, -1}:
        d[0::2], d[1::2] = -B.S.diagonal(), B.P.diagonal()
        e[1::2] = B.T.diagonal(-1)
    else:
        raise ValueError("block T is not bidiagonal")
    return d, e


def channel_eigenvalues(B, first: int, count: int) -> np.ndarray:
    """Eigenvalues first .. first+count-1 (0-based, ascending) of H."""
    d, e = channel_tridiagonal(B)
    return eigvalsh_tridiagonal(
        d,
        e,
        select="i",
        select_range=(first, first + count - 1),
        lapack_driver="stebz",
        tol=1e-15,
    )


def channel_gap_reference(B, k: int) -> np.ndarray:
    """c2 followed by the k lowest gap eigenvalues: eigenvalues N .. N+k-1 of H.

    Element 0 is both c2 and the lowest gap eigenvalue.
    """
    return channel_eigenvalues(B, B.N, k)


def dense_eigenvalues(P, T, S) -> np.ndarray:
    """All eigenvalues of H assembled from dense blocks."""
    H = np.block([[P, T.T], [T, -S]])
    return np.linalg.eigvalsh(H)


def relative_residual(B, u, v, F1, F2) -> float:
    """||H (u, v) - (F1, F2)|| / ||(F1, F2)||, from the blocks directly."""
    r1 = B.P @ u + B.T.T @ v - F1
    r2 = B.T @ u - B.S @ v - F2
    num = math.sqrt(float(r1 @ r1 + r2 @ r2))
    return num / math.sqrt(float(F1 @ F1 + F2 @ F2))
