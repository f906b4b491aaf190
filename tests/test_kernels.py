"""The kernels against the brute-force and scalar-loop oracles in
tests/scalar_reference.py, and the Chamfer properties that follow from them;
the assignment solver against the scipy solver it was ported from.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from scipy.optimize import linear_sum_assignment as scipy_lsap

from icmap._kernels import inside_mask, linear_sum_assignment, nn_mean_dist
from icmap.geometry import EGO_TO_WORLD, Pose2, chamfer_distance, transform_points

# derandomized, so that a run of the suite is reproducible
properties = settings(max_examples=150, deadline=None, derandomize=True, database=None)

SIZES = [(10, 10), (140, 142), (149, 151), (400, 600), (3000, 600)]


@pytest.mark.parametrize("n,m", SIZES, ids=[f"{n}x{m}" for n, m in SIZES])
def test_nn_mean_dist_matches_brute_force(n, m):
    rng = np.random.default_rng(n * 7919 + m)
    a = rng.uniform(-50, 50, (n, 2))
    b = rng.uniform(-50, 50, (m, 2))
    assert abs(nn_mean_dist(a, b) - ref.nn_mean_dist(a, b)) <= 1e-12
    assert abs(nn_mean_dist(b, a) - ref.nn_mean_dist(b, a)) <= 1e-12


@pytest.mark.parametrize("n,m", [(3, 5), (60, 60), (400, 600)])
def test_broadcast_and_tree_return_same_bits(n, m):
    # chamfer_matrix broadcasts what nn_mean_dist's k-d tree queries; the
    # tree's distances are sqrt(dx*dx + dy*dy), the broadcast's arithmetic
    rng = np.random.default_rng(n + m)
    a = rng.uniform(-50, 50, (n, 2))
    b = np.vstack([rng.uniform(-50, 50, (m, 2)), a[:2]])  # exact ties at 0
    d2 = (a[:, None, 0] - b[None, :, 0]) ** 2 + (a[:, None, 1] - b[None, :, 1]) ** 2
    assert nn_mean_dist(a, b) == float(np.sqrt(d2.min(axis=1)).sum() / n)


coord = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
point_set = st.lists(st.tuples(coord, coord), min_size=1, max_size=200).map(
    lambda p: np.array(p, float))


@properties
@given(point_set, point_set)
def test_chamfer_symmetric(p, q):
    assert chamfer_distance(p, q) == chamfer_distance(q, p)


@properties
@given(point_set, point_set, st.floats(-np.pi, np.pi), coord, coord)
def test_chamfer_rigid_invariant(p, q, theta, tx, ty):
    pose = Pose2(tx, ty, theta)
    moved = chamfer_distance(transform_points(pose, p, EGO_TO_WORLD),
                             transform_points(pose, q, EGO_TO_WORLD))
    assert abs(moved - chamfer_distance(p, q)) <= 1e-9


grid = st.integers(-24, 24).map(lambda k: k / 4)
ring = st.lists(st.tuples(grid, grid), min_size=3, max_size=8).map(lambda p: np.array(p, float))
# cell centres on the quarter-metre grid land on ring vertices and edges
axis = st.one_of(
    st.lists(grid, min_size=1, max_size=20),
    st.lists(st.floats(-7, 7), min_size=1, max_size=20),
).map(lambda v: np.array(v, float))


@properties
@given(axis, axis, ring)
def test_inside_mask_matches_scalar_loop(xs, ys, r):
    got = inside_mask(xs, ys, r)
    assert got.shape == (len(ys), len(xs))
    assert np.array_equal(got, ref.inside_mask(xs, ys, r))


@st.composite
def assignment_case(draw):
    """(cost, maximize): wide, tall or empty matrices of up to 8 x 8, of
    normal reals or of one of three tie-heavy kinds: small integers, zero
    where ineligible under maximize (as `association.optimal_match` builds
    them) and 1e9 past a gate (as `metrics.clear_mot_counts` builds them)."""
    shape = (draw(st.integers(0, 8)), draw(st.integers(0, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["real", "integer", "zero_heavy", "gated"]))
    if kind == "real":
        return rng.normal(0.0, 1.0, shape), draw(st.booleans())
    if kind == "integer":
        return rng.integers(-3, 4, shape).astype(float), draw(st.booleans())
    if kind == "zero_heavy":
        h = rng.integers(0, 5, shape) / 4  # repeated scores, many of them 0
        return np.where(h > 0.5, h, 0.0), True
    dist = rng.uniform(0.0, 3.0, shape).round(1)
    return np.where(dist < 1.5, dist, 1e9), False


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(assignment_case())
def test_assignment_matches_scipy(case):
    cost, maximize = case
    rows, cols = linear_sum_assignment(cost, maximize=maximize)
    want_rows, want_cols = scipy_lsap(cost, maximize=maximize)
    assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)


@pytest.mark.parametrize("cost, maximize, message", [
    ([[0.0, np.nan], [1.0, 2.0]], False, "invalid numeric entries"),
    ([[0.0, -np.inf], [1.0, 2.0]], False, "invalid numeric entries"),
    ([[0.0, np.inf], [1.0, 2.0]], True, "invalid numeric entries"),
    ([[1.0, 2.0], [np.inf, np.inf]], False, "infeasible"),
    ([[1.0, np.inf, 3.0], [np.inf, np.inf, np.inf]], False, "infeasible"),
], ids=["nan", "minus_inf", "plus_inf_maximized", "all_inf_row", "all_inf_row_wide"])
def test_assignment_rejects_like_scipy(cost, maximize, message):
    for solver in (linear_sum_assignment, scipy_lsap):
        with pytest.raises(ValueError, match=message):
            solver(np.array(cost), maximize=maximize)
