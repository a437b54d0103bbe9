import numpy as np
import pytest
from scipy.optimize import linprog

from acdesign import Binomial, DrugModel, Emax, EstimabilityError, MichaelisMenten, Poisson
from acdesign.scalar_opt import minimax


def _highs_minimax(A, b):
    """The least max_i |b_i + a_i . alpha| as a linear program in (alpha, tau)."""
    n, k = A.shape
    ones = np.ones((n, 1))
    res = linprog(
        np.r_[np.zeros(k), 1.0],
        A_ub=np.block([[A, -ones], [-A, -ones]]),
        b_ub=np.r_[-b, b],
        bounds=[(None, None)] * k + [(0, None)],
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0
    return res.x[k]


def _check(A, b):
    alpha, tau, lam = minimax(A, b)
    scale = 1.0 + np.max(np.abs(A), initial=0.0)
    tiny = 1e-13 * np.max(np.abs(b))
    assert tau == pytest.approx(_highs_minimax(A, b), rel=1e-10, abs=tiny)
    assert alpha.shape == (A.shape[1],)
    assert np.max(np.abs(b + A @ alpha)) == pytest.approx(tau, rel=1e-10, abs=tiny)
    assert np.abs(lam).sum() == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(A.T @ lam), initial=0.0) <= 1e-11 * scale
    assert lam @ b == pytest.approx(tau, rel=1e-10, abs=tiny)
    assert np.count_nonzero(lam) <= (np.linalg.matrix_rank(A) if A.size else 0) + 1
    return alpha, tau, lam


@pytest.mark.parametrize("n", [5, 37, 600])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_minimax_matches_highs_on_random_rows(n, k):
    rng = np.random.default_rng([n, k])
    for _ in range(5):
        _check(rng.normal(size=(n, k)), rng.normal(size=n))


@pytest.mark.parametrize("n", [5, 64, 401, 600])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_minimax_matches_highs_on_regression_rows(n, k):
    # the Elfving shape: b and the columns of A are smooth in the dose; the
    # sine keeps b off the span of the rows, so tau > 0 at k = 3 too
    drugs = [
        DrugModel(Binomial(), Emax(0.1, 0.6, 12.0), (0.0, 200.0)),
        DrugModel(Poisson(), Emax(0.3, 2.0, 40.0), (0.0, 300.0)),
    ]
    rng = np.random.default_rng([n, k, 1])
    for drug in drugs:
        x = np.linspace(0.0, 1.0, n)
        F = drug.regression_rows(drug.dose_range[1] * x)
        for _ in range(3):
            _check(F @ rng.normal(size=(3, k)), F @ rng.normal(size=3) + np.sin(6.0 * x))


def test_minimax_drops_a_zero_column():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(50, 3))
    A[:, 1] = 0.0
    b = rng.normal(size=50)
    alpha, tau, _ = _check(A, b)
    assert alpha[1] == 0.0
    assert tau == pytest.approx(minimax(A[:, [0, 2]], b)[1], rel=1e-12)


def test_minimax_reduces_a_rank_deficient_matrix():
    # the third column repeats a combination of the first two
    drug = DrugModel(Binomial(), MichaelisMenten(0.5, 2.0), (0.0, 50.0))
    F = drug.regression_rows(np.linspace(0.0, 50.0, 200))
    A = np.column_stack([F, F @ [2.0, -1.0]])
    b = np.sqrt(np.linspace(1.0, 3.0, 200))
    alpha, tau, lam = _check(A, b)
    assert np.count_nonzero(lam) <= 3
    assert tau == pytest.approx(minimax(F, b)[1], rel=1e-12)


def test_minimax_with_duplicate_rows():
    rng = np.random.default_rng(4)
    A = rng.normal(size=(30, 2))
    b = rng.normal(size=30)
    _check(np.vstack([A, A, A[:5]]), np.concatenate([b, b, b[:5]]))


def test_minimax_with_a_face_of_minimizers():
    # a zero row fixes tau at |b_0| and leaves a face of minimizers, as a
    # one-point design does for the null-adjusted witness
    drug = DrugModel(Poisson(), Emax(0.3, 2.0, 40.0), (0.0, 300.0))
    F = drug.regression_rows(np.linspace(0.0, 300.0, 129))
    A = F[:, 1:] - F[64, 1:]
    b = np.full(129, 5.0)
    b[64] = -7.0
    _, tau, lam = _check(A, b)
    assert tau == pytest.approx(7.0, rel=1e-12)
    assert lam[64] == pytest.approx(-1.0, abs=1e-12)


def test_minimax_failures_raise_estimability_error():
    with pytest.raises(EstimabilityError):
        minimax(np.ones((4, 1)), np.array([1.0, np.nan, 0.0, 2.0]))
    with pytest.raises(EstimabilityError):
        minimax(np.eye(3), np.ones(3))  # as many independent columns as rows
    with pytest.raises(EstimabilityError):
        minimax(np.zeros((0, 2)), np.zeros(0))
