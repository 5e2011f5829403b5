import itertools

import numpy as np
import pytest

from isddp.lp_core import LinearProgram, SolveStatus, _KernelResult
from isddp.models import StochasticModel, save_model
from isddp.portfolio import PortfolioSpec, generate_instance


def random_feasible_bounded_lp(rng: np.random.Generator) -> LinearProgram:
    """Random equality-form LP that is feasible and bounded by construction.

    Feasibility: the rhs is A @ xhat for a nonnegative xhat.  Boundedness:
    the first row has strictly positive coefficients, so the nonnegative
    recession cone is trivial.
    """
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, min(n, 6) + 1))
    A = rng.normal(size=(m, n)).round(3)
    A[0] = rng.uniform(0.2, 2.0, size=n).round(3)
    xhat = rng.uniform(0.0, 2.0, size=n).round(3)
    b = A @ xhat
    c = rng.normal(size=n).round(3)
    return LinearProgram(cost=c, eq_matrix=A, eq_rhs=b)


def cache_hit(out, cached: list) -> bool:
    """Whether a ``solve_primal_batch`` or ``solve_dual_batch`` outcome was
    answered from a cached basis.  ``cached`` holds the entries of the
    call's basis list as they were before the call: a hit's basis is one
    of their arrays itself, where a kernel solve returns an array of its own
    (which the call may then add to the list)."""
    return (isinstance(out, _KernelResult) and out.status is SolveStatus.OPTIMAL
            and any(out.basis is entry[1] for entry in cached))


def chain_model(T: int, n: int, seed: int) -> StochasticModel:
    """The M=1 portfolio of ``gen`` seed ``seed``: a deterministic chain."""
    return generate_instance(PortfolioSpec(T=T, n=n, M=1, seed=seed))


def save_chain(T: int, n: int, seed: int, path) -> str:
    """Write ``chain_model(T, n, seed)`` to ``path``."""
    save_model(chain_model(T, n, seed), path)
    return str(path)


def enumerate_vertices(lp: LinearProgram) -> tuple[float, list[np.ndarray]]:
    """Brute-force optimum and vertex list of an equality-form LP.

    Requires full row rank: with redundant rows the size-m basis subsets are
    all singular and the enumeration would silently miss vertices.
    """
    m, n = lp.num_eq, lp.num_vars
    assert np.linalg.matrix_rank(lp.eq_matrix) == m, "enumeration needs full row rank"
    best = None
    verts: list[np.ndarray] = []
    for cols in itertools.combinations(range(n), m):
        B = lp.eq_matrix[:, cols]
        try:
            xb = np.linalg.solve(B, lp.eq_rhs)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(xb)) or xb.min(initial=0.0) < -1e-9:
            continue
        x = np.zeros(n)
        x[list(cols)] = xb
        verts.append(x)
        v = float(lp.cost @ x)
        if best is None or v < best:
            best = v
    assert best is not None, "enumeration found no feasible vertex"
    return best, verts


@pytest.fixture
def rng():
    return np.random.default_rng(20240913)
