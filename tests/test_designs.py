import itertools

import numpy as np
import pytest

from acdesign import (
    ARM_CONTROL,
    ARM_DRUG,
    Binomial,
    ControlModel,
    Design,
    DesignError,
    DrugModel,
    InducedDesign,
    MichaelisMenten,
    Normal,
    Poisson,
    drug_info_matrix,
    estimable,
    info_matrix,
    pseudo_inverse,
    round_design,
)


def make_design(entries):
    pts = [(d, a) for d, a, _ in entries]
    wts = [w for _, _, w in entries]
    return Design(tuple(pts), tuple(wts))


# ---------------------------------------------------------------------------
# design construction and the induced design
# ---------------------------------------------------------------------------

def test_induced_renormalizes():
    des = make_design([(1.0, ARM_DRUG, 0.3), (5.0, ARM_DRUG, 0.3), (0.0, ARM_CONTROL, 0.4)])
    ind = des.induced()
    assert ind.doses == (1.0, 5.0)
    assert ind.weights == pytest.approx((0.5, 0.5))


def test_induced_identity_and_thirds():
    one = make_design([(2.0, ARM_DRUG, 1.0)])
    assert one.induced().weights == (1.0,)
    four = make_design([(1.0, ARM_DRUG, 0.25), (2.0, ARM_DRUG, 0.25),
                        (3.0, ARM_DRUG, 0.25), (0.0, ARM_CONTROL, 0.25)])
    assert four.induced().weights == pytest.approx((1/3, 1/3, 1/3))


def test_induced_requires_drug_points():
    ctrl_only = make_design([(0.0, ARM_CONTROL, 1.0)])
    with pytest.raises(DesignError):
        ctrl_only.induced()


def test_design_invariants():
    with pytest.raises(DesignError):
        make_design([(1.0, ARM_DRUG, 0.5), (1.0, ARM_DRUG, 0.5)])
    with pytest.raises(DesignError):
        make_design([(1.0, ARM_DRUG, 0.4), (0.0, ARM_CONTROL, 0.3), (5.0, ARM_CONTROL, 0.3)])
    with pytest.raises(DesignError):
        make_design([(1.0, ARM_DRUG, 0.7)])
    with pytest.raises(DesignError):
        make_design([(1.0, ARM_DRUG, 1.5), (2.0, ARM_DRUG, -0.5)])


@pytest.mark.parametrize("entries,message", [
    ([(np.nan, ARM_DRUG, 0.5), (0.0, ARM_CONTROL, 0.5)], "finite"),
    ([(np.inf, ARM_DRUG, 0.5), (0.0, ARM_CONTROL, 0.5)], "finite"),
    ([(1.0, ARM_DRUG, np.nan), (2.0, ARM_DRUG, 0.5), (0.0, ARM_CONTROL, 0.5)], "positive"),
    ([(1.0, ARM_DRUG, np.inf), (0.0, ARM_CONTROL, 0.5)], "sum"),
], ids=["nan-dose", "inf-dose", "nan-weight", "inf-weight"])
def test_design_rejects_non_finite_doses_and_weights(entries, message):
    with pytest.raises(DesignError, match=message):
        make_design(entries)


@pytest.mark.parametrize("points,weights,message", [
    ([(1.0, ARM_DRUG), (0.0, ARM_CONTROL)], [-0.5, 1.5], "nonnegative"),
    ([(1.0, ARM_DRUG), (0.0, ARM_CONTROL)], [np.nan, 1.0], "finite"),
    ([(1.0, ARM_DRUG), (2.0, 2), (0.0, ARM_CONTROL)], [0.4, 0.2, 0.4], "arm"),
    ([(1.0, ARM_DRUG), (0.0, ARM_CONTROL), (0.0, ARM_CONTROL)], [0.5, 0.25, 0.25], "control"),
], ids=["negative", "nan", "arm-2", "two-controls"])
def test_from_points_rejects_what_it_used_to_drop_or_sum(points, weights, message):
    with pytest.raises(DesignError, match=message):
        Design.from_points(points, weights)


def test_from_points_merges_near_duplicates():
    des = Design.from_points(
        [(1.0, ARM_DRUG), (1.0 + 1e-9, ARM_DRUG), (0.0, ARM_CONTROL)],
        [0.3, 0.3, 0.4],
        merge_tol=1e-6,
    )
    assert len(des.drug_doses) == 1
    assert des.drug_weights[0] == pytest.approx(0.6)



def test_from_points_keeps_repeated_doses_without_merge_tol():
    # merging happens only for merge_tol > 0, so a repeated drug dose is an error
    with pytest.raises(DesignError, match="pairwise distinct"):
        Design.from_points([(1.0, ARM_DRUG), (1.0, ARM_DRUG), (0.0, ARM_CONTROL)],
                           [0.3, 0.3, 0.4], merge_tol=0.0)

# ---------------------------------------------------------------------------
# information matrices
# ---------------------------------------------------------------------------

def test_info_matrix_block_diagonal():
    drug = DrugModel(Normal(0.04), MichaelisMenten(0.5, 2.0), (0.0, 50.0))
    ctrl = ControlModel(Normal(0.04), 0.3)
    des = make_design([(1.0, ARM_DRUG, 0.3), (50.0, ARM_DRUG, 0.3), (0.0, ARM_CONTROL, 0.4)])
    M = info_matrix(des, drug, ctrl)
    s1 = drug.n_params
    assert np.all(M[:s1, s1:] == 0.0)
    assert np.all(M[s1:, :s1] == 0.0)


def test_info_matrix_no_control_zero_block():
    drug = DrugModel(Poisson(), MichaelisMenten(0.5, 2.0), (0.0, 50.0))
    ctrl = ControlModel(Poisson(), 0.4)
    des = make_design([(1.0, ARM_DRUG, 0.5), (50.0, ARM_DRUG, 0.5)])
    M = info_matrix(des, drug, ctrl)
    assert np.all(M[2:, 2:] == 0.0)


def test_info_matrix_two_point_average():
    drug = DrugModel(Poisson(), MichaelisMenten(0.5, 2.0), (0.0, 50.0))
    ind = InducedDesign((0.9434, 50.0), (0.5, 0.5))
    M1 = drug_info_matrix(ind, drug)
    expected = 0.5 * drug.fisher(0.9434) + 0.5 * drug.fisher(50.0)
    assert M1 == pytest.approx(expected)


def test_info_matrix_arm_scaling():
    drug = DrugModel(Normal(0.0025), MichaelisMenten(0.5, 2.0), (0.0, 50.0))
    ctrl = ControlModel(Normal(0.0025), 0.3)
    des = make_design([(1.85, ARM_DRUG, 0.3), (50.0, ARM_DRUG, 0.3), (0.0, ARM_CONTROL, 0.4)])
    M = info_matrix(des, drug, ctrl)
    M1 = drug_info_matrix(des.induced(), drug)
    s1 = drug.n_params
    assert M[:s1, :s1] == pytest.approx(0.6 * M1)
    assert M[s1:, s1:] == pytest.approx(0.4 * ctrl.fisher())


def test_induced_design_invariance():
    # moving weight to the control never changes the induced information
    drug = DrugModel(Binomial(), MichaelisMenten(0.5, 2.0), (0.0, 50.0))
    doses = (1.0, 10.0, 50.0)
    rel = np.array([0.2, 0.3, 0.5])
    for wc in (0.1, 0.4, 0.7):
        des = Design(
            tuple((d, ARM_DRUG) for d in doses) + ((0.0, ARM_CONTROL),),
            tuple((1 - wc) * rel) + (wc,),
        )
        M1 = drug_info_matrix(des.induced(), drug)
        if wc == 0.1:
            ref = M1
        assert M1 == pytest.approx(ref, rel=1e-12)


# ---------------------------------------------------------------------------
# pseudo-inverse and estimability
# ---------------------------------------------------------------------------

def test_pseudo_inverse_simple():
    assert pseudo_inverse(np.eye(3)) == pytest.approx(np.eye(3))
    assert pseudo_inverse(np.diag([2.0, 0.0])) == pytest.approx(np.diag([0.5, 0.0]))


def test_pseudo_inverse_moore_penrose_identities():
    rng = np.random.default_rng(11)
    for _ in range(20):
        rank = rng.integers(1, 4)
        B = rng.normal(size=(4, rank))
        A = B @ B.T
        Ap = pseudo_inverse(A)
        assert A @ Ap @ A == pytest.approx(A, abs=1e-9)
        assert Ap @ A @ Ap == pytest.approx(Ap, abs=1e-9)
        assert (A @ Ap).T == pytest.approx(A @ Ap, abs=1e-9)
        assert (Ap @ A).T == pytest.approx(Ap @ A, abs=1e-9)


def test_estimable_range_checks():
    rng = np.random.default_rng(3)
    B = rng.normal(size=(3, 2))
    A = B @ B.T
    lam, V = np.linalg.eigh(A)
    lead = V[:, -1]
    assert estimable(lead.reshape(-1, 1), A)
    # one-point design: only the regression direction is estimable
    drug = DrugModel(Binomial(), MichaelisMenten(0.5, 2.0), (0.0, 50.0))
    f = drug.regression_vector(5.0)
    M1 = np.outer(f, f)
    assert estimable(f.reshape(-1, 1), M1)
    perp = np.array([-f[1], f[0]])
    assert not estimable(perp.reshape(-1, 1), M1)


# ---------------------------------------------------------------------------
# rounding
# ---------------------------------------------------------------------------

def test_round_design_exact_case():
    des = make_design([(0.0, ARM_DRUG, 2/9), (9.81, ARM_DRUG, 2/9),
                       (300.0, ARM_DRUG, 2/9), (0.0, ARM_CONTROL, 1/3)])
    assert round_design(des, 36) == (8, 8, 8, 12)


def test_round_design_thirds_brute_force():
    des = make_design([(1.0, ARM_DRUG, 1/3), (2.0, ARM_DRUG, 1/3), (0.0, ARM_CONTROL, 1/3)])
    got = round_design(des, 100)
    # oracle: the efficient apportionment maximizes min_i n_i / w_i; ties
    # break toward the lexicographically largest allocation (lowest index)
    w = np.array([1/3, 1/3, 1/3])
    best = max(
        (a for a in itertools.product(range(101), repeat=3) if sum(a) == 100),
        key=lambda a: (min(n / wi for n, wi in zip(a, w)), a),
    )
    assert got == best == (34, 33, 33)


def test_round_design_two_points_and_errors():
    des = make_design([(1.0, ARM_DRUG, 0.5), (2.0, ARM_DRUG, 0.5)])
    assert round_design(des, 2) == (1, 1)
    with pytest.raises(DesignError):
        round_design(des, 1)


def test_round_design_maximizes_minimum_ratio():
    # the multiplier method maximizes min_i n_i/w_i over all allocations;
    # brute-force that characterization on small problems
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(10):
        w = np.maximum(rng.dirichlet(np.ones(3)), 0.05)
        cases.append((w / w.sum(), int(rng.integers(3, 40))))
    # the start (3, 3, 3, 2) overshoots n, so subjects are taken away again
    cases.append((np.array([0.26, 0.26, 0.26, 0.22]), 10))
    for w, n in cases:
        k = w.size
        des = Design(
            tuple((float(i + 1), ARM_DRUG) for i in range(k)),
            tuple(float(x) for x in w),
        )
        alloc = round_design(des, n)
        assert sum(alloc) == n
        best = max(
            min(a / wi for a, wi in zip(cand, w))
            for cand in itertools.product(range(1, n + 1), repeat=k)
            if sum(cand) == n
        )
        assert min(a / wi for a, wi in zip(alloc, w)) == pytest.approx(best, rel=1e-12)


def test_round_design_quota_on_benchmarks():
    # quota holds on the benchmark-style weight patterns even though divisor
    # methods do not satisfy it universally
    for weights, n in [((2/9, 2/9, 2/9, 1/3), 36), ((1/3, 1/3, 1/3), 100),
                       ((0.3, 0.3, 0.4), 50), ((0.25,) * 4, 37)]:
        des = Design(
            tuple((float(i + 1), ARM_DRUG) for i in range(len(weights))),
            tuple(weights),
        )
        alloc = round_design(des, n)
        for ai, wi in zip(alloc, weights):
            assert abs(ai - n * wi) < 1.0 + 1e-9
