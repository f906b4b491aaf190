"""The kernels against the brute-force and scalar-loop oracles in
tests/scalar_reference.py, and the Chamfer properties that follow from them.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from icmap._kernels import inside_mask, nn_mean_dist
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
