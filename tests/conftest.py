import mpmath
import numpy as np
import pytest

import schurdirac.blockop as blockop
from schurdirac import assemble, positivity_margin


def symmetrize(a: np.ndarray) -> np.ndarray:
    return (a + a.T) / 2.0


def random_block_operator(rng, n, margin_target=None, coupling=1.0):
    """Random structured instance; margin_target pins lambda_min(M_0)."""
    a = rng.standard_normal((n, n))
    S = symmetrize(a @ a.T / n + 0.5 * np.eye(n))
    T = coupling * rng.standard_normal((n, n)) / np.sqrt(n)
    P = symmetrize(rng.standard_normal((n, n)))
    B = assemble(P, T, S)
    if margin_target is None:
        return B
    shift = margin_target - positivity_margin(B, 0.0)
    return assemble(P + shift * np.eye(n), T, S)


def form_array(B, alpha: float) -> np.ndarray:
    """M_alpha as blockop._schur_form forms it, on either layout, as a dense array."""
    M = blockop._schur_form(B, alpha)
    return M.tocsr().toarray() if isinstance(M, blockop._Tridiagonal) else np.array(M)


def exact_eigenvalue(H, index: int, dps: int = 40) -> float:
    """Eigenvalue index (1-based) of the symmetric tridiagonal H = (d, e), exact to a float.

    A Sturm count in mpmath at dps digits on the stored entries, which
    convert exactly, so it needs no bound on H's norm or grading: the
    independent reference for a channel's c2 (index N + 1 of its
    interleaved H) on any grid.  It bisects from +-1e-6 around dstebz's
    value, a bracket widened until it holds, to a relative width of 1e-20.
    """
    (d, e), scale = blockop._in_range(H)  # dstebz fails on an unscaled e_i^2 that overflows
    w = float(blockop._sturm_selection(d, e, 2, 0.0, index, index)[0][0]) / scale
    with mpmath.workdps(dps):
        d = [mpmath.mpf(float(x)) for x in H.d]
        e2 = [mpmath.mpf(float(x)) ** 2 for x in H.e]
        pivmin = mpmath.mpf(10) ** (-2 * dps)

        def below(x) -> int:
            """The number of eigenvalues of H below x: the negative pivots of L D L^t of H - x."""
            count, q = 0, mpmath.mpf(1)
            for i, di in enumerate(d):
                q = di - x - (e2[i - 1] / q if i else 0)
                if abs(q) < pivmin:
                    q = -pivmin
                count += q < 0
            return count

        step = mpmath.mpf(1e-6) * (1 + abs(w))
        lo, hi = w - step, w + step
        while below(lo) >= index:
            lo, step = lo - step, 2 * step
        while below(hi) < index:
            hi, step = hi + step, 2 * step
        while hi - lo > mpmath.mpf(1e-20) * (1 + abs(lo)):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if below(mid) >= index else (mid, hi)
        return float((lo + hi) / 2)


def spy_on_m0(monkeypatch):
    """Record each M_0 an operator forms, and each dstebz or eigvalsh call that reads one.

    Returns the two lists (formed, reads); reads holds the routine names.
    """
    formed, reads = [], []
    form = blockop.BlockOperator._M0.func

    def forming(B):
        formed.append(form(B))
        return formed[-1]

    def reading(name, routine):
        def spy(a, *args, **kwargs):
            if any(a is (M.d if isinstance(M, blockop._Tridiagonal) else M) for M in formed):
                reads.append(name)
            return routine(a, *args, **kwargs)

        return spy

    monkeypatch.setattr(blockop.BlockOperator._M0, "func", forming)
    monkeypatch.setattr(blockop, "dstebz", reading("dstebz", blockop.dstebz))
    monkeypatch.setattr(np.linalg, "eigvalsh", reading("eigvalsh", np.linalg.eigvalsh))
    return formed, reads


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
