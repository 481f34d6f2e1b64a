"""Tests for ensembles and empirical statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eks_lab import ensemble
from eks_lab.ensemble import (
    Ensemble,
    _canonical_order,
    _mean_rows,
    affine_span_distance,
    centered_moments,
    empirical_stats,
    load_csv,
    particle_moments,
    save_csv,
    stacked_stats,
)
from eks_lab.errors import DimensionMismatch, NonFinite, NonPositive
from eks_lab.model import (
    InverseProblem,
    apply_forward_batch,
    apply_forward_stack,
    make_perpendicular_perturbation,
)


def identity_problem(l):
    return InverseProblem(a=np.eye(l), gamma=np.eye(l), gamma0=np.eye(l),
                          y=np.zeros(l), u0=np.zeros(l))


def test_ensemble_validation():
    with pytest.raises(NonFinite):
        Ensemble(particles=np.array([[np.inf, 0.0]]))
    with pytest.raises(DimensionMismatch):
        Ensemble(particles=np.zeros(3))
    with pytest.raises(NonPositive):
        Ensemble(particles=np.zeros((2, 2)), time=-1.0)


def test_stats_hand_case():
    # u1 = (0,0), u2 = (2,0), identity G:
    # mean (1,0); cov_uu = ((-1,0)x(-1,0) + (1,0)x(1,0))/2 = [[1,0],[0,0]]
    ens = Ensemble(particles=np.array([[0.0, 0.0], [2.0, 0.0]]))
    stats = empirical_stats(ens, identity_problem(2))
    assert np.array_equal(stats.mean_u, [1.0, 0.0])
    assert np.array_equal(stats.mean_g, [1.0, 0.0])
    assert np.array_equal(stats.cov_uu, [[1.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(stats.cov_ug, stats.cov_uu)


def test_stats_single_particle():
    ens = Ensemble(particles=np.array([[3.0, -1.0]]))
    stats = empirical_stats(ens, identity_problem(2))
    assert np.array_equal(stats.cov_uu, np.zeros((2, 2)))
    assert np.array_equal(stats.cov_ug, np.zeros((2, 2)))
    assert np.array_equal(stats.mean_u, [3.0, -1.0])


def test_stats_identical_particles_exactly_zero():
    row = np.array([0.7, -2.3, 1.1])
    ens = Ensemble(particles=np.tile(row, (17, 1)))
    stats = empirical_stats(ens, identity_problem(3))
    assert np.array_equal(stats.cov_uu, np.zeros((3, 3)))
    assert np.array_equal(stats.cov_ug, np.zeros((3, 3)))
    assert np.array_equal(stats.mean_u, row)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_stats_permutation_invariant_bitwise(seed):
    rng = np.random.default_rng(seed)
    particles = rng.standard_normal((13, 3))
    perm = rng.permutation(13)
    problem = identity_problem(3)
    base = empirical_stats(Ensemble(particles=particles), problem)
    shuffled = empirical_stats(Ensemble(particles=particles[perm]), problem)
    assert np.array_equal(base.mean_u, shuffled.mean_u)
    assert np.array_equal(base.mean_g, shuffled.mean_g)
    assert np.array_equal(base.cov_uu, shuffled.cov_uu)
    assert np.array_equal(base.cov_ug, shuffled.cov_ug)


def random_linear_problem(seed, l, k):
    rng = np.random.default_rng(seed)
    return InverseProblem(a=rng.standard_normal((k, l)), gamma=np.eye(k),
                          gamma0=np.eye(l), y=rng.standard_normal(k),
                          u0=np.zeros(l))


def shipped_nonlinear_problem():
    # configs/demo_nonlinear.json
    a = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    gamma = np.diag([1.0, 2.0, 0.5])
    pert = make_perpendicular_perturbation(
        a, gamma, seed_direction=[0.0, 0.0, 1.0], frequency=[0.7, -0.4],
        amplitude=2.0)
    return InverseProblem(a=a, gamma=gamma, gamma0=np.eye(2),
                          y=[1.0, 1.0, 1.5], u0=[0.0, 0.0], nonlinear=pert)


def with_ties(rng, j, l):
    """j rows with exact duplicates, rows that tie in the first column only,
    and rows one ulp apart, so every branch of the row order is used."""
    base = rng.standard_normal((j // 2, l))
    rows = np.concatenate([base, base[: j // 4]])
    rows[: j // 8, 0] = rows[j // 8: j // 4, 0]
    near = rows[: j - len(rows)].copy()
    near[:, -1] = np.nextafter(near[:, -1], np.inf)
    return np.concatenate([rows, near])


def assert_stats_equal(a, b):
    for name in ("mean_u", "mean_g", "cov_uu", "cov_ug"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize("problem", [
    random_linear_problem(21, l=32, k=24), shipped_nonlinear_problem()],
    ids=["linear_L32", "shipped_nonlinear"])
def test_stats_permutation_invariant_bitwise_with_ties(problem):
    rng = np.random.default_rng(20)
    particles = with_ties(rng, 512, problem.dim_l)
    assert len(np.unique(particles, axis=0)) < 512
    base = empirical_stats(Ensemble(particles=particles), problem)
    for _ in range(5):
        perm = rng.permutation(512)
        shuffled = empirical_stats(Ensemble(particles=particles[perm]),
                                   problem)
        assert_stats_equal(base, shuffled)


@st.composite
def rows_with_ties(draw):
    """Rows drawn from a small pool of values (-0.0 and 0.0 included), so
    that first columns tie and whole rows repeat; or, half the time, a
    tie-free first column over rows that still repeat in the others."""
    l = draw(st.integers(1, 5))
    j = draw(st.integers(1, 120))
    pool = draw(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=5))
    pool += [-0.0, 0.0]
    rows = np.array(draw(st.lists(
        st.lists(st.sampled_from(pool), min_size=l, max_size=l),
        min_size=j, max_size=j)), dtype=float)
    if draw(st.booleans()):
        rows[:, 0] = draw(st.lists(st.floats(-1e6, 1e6), min_size=j,
                                   max_size=j, unique=True))
    return rows


@settings(max_examples=200, deadline=None)
@given(u=rows_with_ties())
def test_canonical_order_is_the_lexicographic_order(u):
    assert np.array_equal(_canonical_order(u), np.lexsort(u.T[::-1]))


@pytest.mark.parametrize("j, l", [(4000, 2), (1024, 8), (512, 32)])
def test_canonical_order_without_ties_at_size(j, l):
    # numpy's default sort orders equal keys its own way, so the tied
    # copy must go through the tie check to np.lexsort; study-sized J
    u = np.random.default_rng(j + l).standard_normal((j, l))
    assert np.array_equal(_canonical_order(u), np.lexsort(u.T[::-1]))
    tied = u.copy()
    tied[1::7, 0] = tied[::7, 0][: len(tied[1::7])]
    assert np.array_equal(_canonical_order(tied), np.lexsort(tied.T[::-1]))


@pytest.mark.parametrize("l", [1, 2, 8, 31, 32, 50])
def test_mean_rows_pivot_is_the_columnwise_minimum(l):
    # component-major rows: one row of 300 particles per component
    rows = np.random.default_rng(l).standard_normal((300, l)).T.copy()
    pivot = rows.min(axis=1)
    expected = pivot + np.einsum("lj->l", rows - pivot[:, None]) / 300
    assert np.array_equal(_mean_rows(rows), expected)
    same = np.tile(rows[:, :1], (1, 300))
    assert np.array_equal(_mean_rows(same), rows[:, 0])


def test_stats_order_key_is_the_raw_rows():
    # sixteen particles within 2e-15 of 0 next to sixteen near 2000:
    # centering on mean ~ 1000 rounds the small ones to one row, yet the
    # steep perturbation gives them G rows of both signs, so a key on
    # centered rows would let their order into mean_g and cov_ug
    a = np.array([[1.0], [0.0]])
    pert = make_perpendicular_perturbation(
        a, np.eye(2), seed_direction=[0.0, 1.0], frequency=[1e15],
        amplitude=1.0)
    problem = InverseProblem(a=a, gamma=np.eye(2), gamma0=np.eye(1),
                             y=[0.0, 0.0], u0=[0.0], nonlinear=pert)
    rng = np.random.default_rng(29)
    particles = np.concatenate([2000.0 + rng.standard_normal(16),
                                np.arange(-8, 8) * 2e-16])[:, None]
    base = empirical_stats(Ensemble(particles=particles), problem)
    assert len(np.unique(particles - base.mean_u)) < len(particles)
    for _ in range(20):
        perm = rng.permutation(len(particles))
        shuffled = empirical_stats(Ensemble(particles=particles[perm]),
                                   problem)
        assert_stats_equal(base, shuffled)


def test_stats_match_independent_reference_wide():
    rng = np.random.default_rng(23)
    problem = random_linear_problem(24, l=32, k=24)
    u = 3.0 + rng.standard_normal((512, 32)) * rng.uniform(0.1, 2.0, 32)
    stats = empirical_stats(Ensemble(particles=u), problem)
    g = u @ problem.a.T
    joint = np.cov(np.hstack([u, g]), rowvar=False, bias=True)

    def rel(got, want):
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    assert rel(stats.mean_u, u.mean(axis=0)) <= 1e-13
    assert rel(stats.mean_g, g.mean(axis=0)) <= 1e-13
    assert rel(stats.cov_uu, joint[:32, :32]) <= 1e-13
    assert rel(stats.cov_ug, joint[:32, 32:]) <= 1e-13


def test_stats_identical_particles_exactly_zero_wide():
    row = np.random.default_rng(25).standard_normal(32)
    ens = Ensemble(particles=np.tile(row, (64, 1)))
    stats = empirical_stats(ens, random_linear_problem(26, l=32, k=24))
    assert np.array_equal(stats.cov_uu, np.zeros((32, 32)))
    assert np.array_equal(stats.cov_ug, np.zeros((32, 24)))
    assert np.array_equal(stats.mean_u, row)


@pytest.mark.parametrize("problem", [
    random_linear_problem(27, l=2, k=3), shipped_nonlinear_problem()],
    ids=["linear", "nonlinear"])
def test_stats_forward_rows_in_particle_order(problem):
    rng = np.random.default_rng(28)
    particles = with_ties(rng, 64, 2)
    stats = empirical_stats(Ensemble(particles=particles), problem)
    assert np.array_equal(stats.forward,
                          apply_forward_batch(problem, particles))


@pytest.mark.parametrize("problem, j", [
    (random_linear_problem(29, l=2, k=3), 64),
    (random_linear_problem(30, l=32, k=24), 512),
    (shipped_nonlinear_problem(), 64)],
    ids=["linear_L2", "linear_L32", "nonlinear"])
def test_particle_moments_equal_stats_bitwise(problem, j):
    rng = np.random.default_rng(31)
    for particles in (with_ties(rng, j, problem.dim_l),
                      rng.standard_normal((j, problem.dim_l)),
                      np.tile(rng.standard_normal(problem.dim_l), (j, 1))):
        ens = Ensemble(particles=particles)
        stats = empirical_stats(ens, problem)
        mean_u, cov_uu = particle_moments(ens)
        assert np.array_equal(mean_u, stats.mean_u)
        assert np.array_equal(cov_uu, stats.cov_uu)


def separate_rows_stats(particles, problem):
    """The statistics pass written out with u and G(u) kept apart, as two
    gathers, two pivot and mean passes and two centrings, operation for
    operation; the order is the lexicographic one by its definition."""
    j = particles.shape[0]
    g = apply_forward_batch(problem, particles)
    order = np.lexsort(particles.T[::-1])
    us = np.take(particles.T, order, axis=1)
    gs = np.take(g.T, order, axis=1)
    pivot_u, pivot_g = us.min(axis=1), gs.min(axis=1)
    mean_u = pivot_u + np.einsum("lj->l", us - pivot_u[:, None]) / j
    mean_g = pivot_g + np.einsum("lj->l", gs - pivot_g[:, None]) / j
    cu, cg = us - mean_u[:, None], gs - mean_g[:, None]
    return {"mean_u": mean_u, "mean_g": mean_g,
            "cov_uu": np.einsum("lj,mj->lm", cu, cu) / j,
            "cov_ug": np.einsum("lj,mj->lm", cu, cg) / j, "forward": g}


def layouts(particles):
    """The same particles C-ordered, Fortran-ordered, and as a strided
    view that starts one row and one column into a larger array."""
    j, l = particles.shape
    big = np.zeros((j + 1, l + 1))
    big[1:, 1:] = particles
    return (np.ascontiguousarray(particles), np.asfortranarray(particles),
            big[1:, 1:])


@pytest.mark.parametrize("j", [1, 2, 7, 64, 1023, 4000])
@pytest.mark.parametrize("problem", [
    random_linear_problem(40, l=2, k=2), random_linear_problem(41, l=2, k=3),
    random_linear_problem(42, l=8, k=10),
    random_linear_problem(43, l=32, k=32), shipped_nonlinear_problem()],
    ids=["L2_K2", "L2_K3", "L8_K10", "L32_K32", "shipped_nonlinear"])
def test_stats_bitwise_equal_separate_rows_copy(problem, j):
    # one gather, pivot, mean and centring over the stacked (L+K, J)
    # block gives every field exactly as the separate row blocks do
    rng = np.random.default_rng(j + problem.dim_l)
    l = problem.dim_l
    row = rng.standard_normal(l)
    ensembles = [2.0 + rng.standard_normal((j, l)), np.tile(row, (j, 1))]
    if j >= 3:
        # whole rows repeat, and other rows tie in the first column only
        tied = 2.0 + rng.standard_normal((j, l))
        tied[1::3] = tied[::3][: len(tied[1::3])]
        tied[2::3, 0] = tied[::3, 0][: len(tied[2::3])]
        ensembles.append(tied)
    for particles in ensembles:
        expected = separate_rows_stats(particles, problem)
        for laid_out in layouts(particles):
            stats = empirical_stats(Ensemble(particles=laid_out), problem)
            for name, want in expected.items():
                assert np.array_equal(getattr(stats, name), want), name
    # all-identical particles: both covariances exactly zero
    stats = empirical_stats(Ensemble(particles=ensembles[1]), problem)
    assert not stats.cov_uu.any() and not stats.cov_ug.any()
    assert np.array_equal(stats.mean_u, row)


# ------------------------------------------------------ stacked statistics


def bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_slices_are_cells(u, problem):
    """Every slice of stacked_stats on the (R, L, J) stack u is bitwise
    empirical_stats on that cell's (J, L) rows, forward transposed."""
    stacked = stacked_stats(u, problem)
    for c, cell in enumerate(u):
        alone = empirical_stats(
            Ensemble(particles=np.ascontiguousarray(cell.T)), problem)
        for name in ("mean_u", "mean_g", "cov_uu", "cov_ug"):
            assert bitwise_equal(getattr(stacked, name)[c],
                                 getattr(alone, name)), (name, c)
        assert bitwise_equal(stacked.forward[c], alone.forward.T), c
    return stacked


@pytest.mark.parametrize("r", [2, 3, 20])
@pytest.mark.parametrize("j", [1, 2, 3, 64, 1024])
@pytest.mark.parametrize("problem", [
    random_linear_problem(50, l=1, k=1), random_linear_problem(51, l=2, k=3),
    random_linear_problem(52, l=3, k=2), random_linear_problem(53, l=8, k=10),
    random_linear_problem(54, l=32, k=32), shipped_nonlinear_problem()],
    ids=["L1_K1", "L2_K3", "L3_K2", "L8_K10", "L32_K32", "shipped_nonlinear"])
def test_stacked_stats_slices_bitwise_equal_cells(problem, j, r):
    rng = np.random.default_rng(100 * r + j + problem.dim_l)
    u = 2.0 + rng.standard_normal((r, problem.dim_l, j))
    assert_slices_are_cells(u, problem)


def test_stacked_stats_tied_cell_beside_untied():
    # the middle cell ties in the first column, so its order comes from
    # np.lexsort; the cells around it sort by their first column alone
    rng = np.random.default_rng(60)
    problem = random_linear_problem(61, l=3, k=4)
    tied = with_ties(rng, 64, 3)
    assert len(np.unique(tied[:, 0])) < 64
    u = 2.0 + rng.standard_normal((3, 3, 64))
    u[1] = tied.T
    assert_slices_are_cells(u, problem)


@pytest.mark.parametrize("problem", [
    random_linear_problem(62, l=3, k=2), shipped_nonlinear_problem()],
    ids=["linear_L3_K2", "shipped_nonlinear"])
def test_stacked_stats_collapsed_cell_beside_spread(problem):
    rng = np.random.default_rng(63)
    l = problem.dim_l
    u = rng.standard_normal((2, l, 32))
    row = rng.standard_normal(l)
    u[0] = row[:, None]
    stats = assert_slices_are_cells(u, problem)
    assert not stats.cov_uu[0].any() and not stats.cov_ug[0].any()
    assert bitwise_equal(stats.mean_u[0], row)
    assert stats.cov_uu[1].any() and stats.cov_ug[1].any()


def test_stacked_stats_non_finite_forward_row_raises():
    problem = InverseProblem(a=[[2.0, 0.0]], gamma=np.eye(1),
                             gamma0=np.eye(2), y=[0.0], u0=[0.0, 0.0])
    u = np.random.default_rng(64).standard_normal((3, 2, 16))
    u[1, 0, 5] = 1e308
    assert np.isfinite(u).all()
    with pytest.raises(NonFinite,
                       match="^forward map produced non-finite values$"):
        stacked_stats(u, problem)


def test_stacked_stats_run_just_over_the_chunk_budget():
    # one cell more than a chunk holds: two passes, slices still bitwise
    # the cells
    problem = random_linear_problem(65, l=2, k=2)
    j = 64
    r = ensemble.STATS_STACK_BUDGET // (4 * j) + 1
    u = np.random.default_rng(66).standard_normal((r, 2, j))
    assert_slices_are_cells(u, problem)


@pytest.mark.parametrize("shape", [(0, 2, 4), (2, 2, 0), (4, 2), (2, 3, 4)])
def test_stacked_stats_rejects_malformed_stacks(shape):
    with pytest.raises(DimensionMismatch, match="^stack must have shape"):
        stacked_stats(np.zeros(shape), identity_problem(2))


def test_apply_forward_stack_slices_equal_batch():
    problem = shipped_nonlinear_problem()
    u = np.random.default_rng(67).standard_normal((3, 2, 5))
    out = apply_forward_stack(problem, u)
    assert out.shape == (3, 3, 5) and out.flags.c_contiguous
    for c, cell in enumerate(u):
        assert bitwise_equal(out[c], apply_forward_batch(problem, cell.T).T)
    with pytest.raises(DimensionMismatch, match=r"\(R, 2, J\)"):
        apply_forward_stack(problem, u[0])


def test_cov_psd_on_random_ensembles():
    rng = np.random.default_rng(8)
    problem = identity_problem(3)
    for _ in range(100):
        j = int(rng.integers(1, 12))
        ens = Ensemble(particles=rng.standard_normal((j, 3)))
        stats = empirical_stats(ens, problem)
        w = np.linalg.eigvalsh(stats.cov_uu)
        assert w[0] >= -1e-12 * max(w[-1], 1e-30)
        assert np.linalg.matrix_rank(stats.cov_uu, tol=1e-10) <= min(3, j - 1) \
            or j == 1


def test_cov_ug_equals_cov_uu_at_for_linear_map():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((4, 3))
    problem = InverseProblem(a=a, gamma=np.eye(4), gamma0=np.eye(3),
                             y=np.zeros(4), u0=np.zeros(3))
    ens = Ensemble(particles=rng.standard_normal((50, 3)))
    stats = empirical_stats(ens, problem)
    assert np.max(np.abs(stats.cov_ug - stats.cov_uu @ a.T)) <= 1e-12


def test_centered_moment_hand_case():
    # particles 0 and 2 in 1-D: centered values -1, +1; both moments are 1
    ens = Ensemble(particles=np.array([[0.0], [2.0]]))
    assert centered_moments(ens) == (1.0, 1.0)


def test_centered_moment_identical_zero():
    ens = Ensemble(particles=np.full((9, 2), 1.25))
    assert centered_moments(ens) == (0.0, 0.0)


def test_centered_moment_matches_trace():
    rng = np.random.default_rng(10)
    ens = Ensemble(particles=rng.standard_normal((40, 3)))
    stats = empirical_stats(ens, identity_problem(3))
    second, fourth = centered_moments(ens)
    assert second == pytest.approx(np.trace(stats.cov_uu), rel=1e-12)
    # the fourth moment from its own definition
    c = ens.particles - ens.particles.mean(axis=0)
    assert fourth == pytest.approx(
        np.mean(np.sum(c * c, axis=1) ** 2), rel=1e-12)


def test_centered_moment_law_of_large_numbers():
    rng = np.random.default_rng(11)
    l = 3
    ens = Ensemble(particles=rng.standard_normal((10_000, l)))
    second, fourth = centered_moments(ens)
    assert second == pytest.approx(l, rel=0.05)
    # E |xi|^4 = L^2 + 2 L for a standard normal in R^L
    assert fourth == pytest.approx(l * l + 2 * l, rel=0.05)


def test_affine_span_distance_cases():
    rng = np.random.default_rng(12)
    ref = Ensemble(particles=rng.standard_normal((4, 5)))
    assert affine_span_distance(ref, ref) <= 1e-12

    # a coplanar cloud in 3-D, plus a point displaced orthogonally by 1
    plane = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                      [0.5, 0.5, 0.0]])
    probe = Ensemble(particles=np.array([[0.2, 0.3, 1.0]]))
    assert affine_span_distance(probe, Ensemble(particles=plane)) == \
        pytest.approx(1.0, abs=1e-12)

    # random affine combinations of the reference lie in its span
    weights = rng.dirichlet(np.ones(4), size=6)
    combos = Ensemble(particles=weights @ ref.particles)
    assert affine_span_distance(combos, ref) <= 1e-10


def test_affine_span_single_point_reference():
    ref = Ensemble(particles=np.array([[1.0, 1.0]]))
    probe = Ensemble(particles=np.array([[1.0, 1.0], [4.0, 5.0]]))
    assert affine_span_distance(probe, ref) == pytest.approx(5.0, abs=1e-12)


def test_affine_span_dimension_check():
    with pytest.raises(DimensionMismatch):
        affine_span_distance(Ensemble(particles=np.zeros((2, 2))),
                             Ensemble(particles=np.zeros((2, 3))))


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    ens = Ensemble(particles=rng.standard_normal((7, 3)) * 1e3,
                   time=0.05, step=5)
    path = tmp_path / "ens.csv"
    save_csv(ens, path)
    back = load_csv(path)
    assert np.array_equal(back.particles, ens.particles)
    assert back.time == ens.time
    assert back.step == ens.step


def test_csv_single_column(tmp_path):
    ens = Ensemble(particles=np.array([[1.5], [2.5]]), time=1.0, step=10)
    path = tmp_path / "one.csv"
    save_csv(ens, path)
    back = load_csv(path)
    assert np.array_equal(back.particles, ens.particles)
