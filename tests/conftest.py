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
