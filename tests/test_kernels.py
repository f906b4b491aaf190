"""The kernels against the brute-force and scalar-loop oracles in
tests/scalar_reference.py, and the Chamfer properties that follow from them;
the nearest-neighbour search against the scipy k-d tree it replaced, the
assignment solver against the scipy solver it was ported from and the banded
solve against the scipy solve it replaced.
"""
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from scipy.linalg import solveh_banded as scipy_solveh_banded
from scipy.optimize import linear_sum_assignment as scipy_lsap
from scipy.spatial import cKDTree

from icmap import _kernels, curvefit
from icmap._kernels import (PAIR_CHUNK, _cell_side, inside_mask, linear_sum_assignment,
                            nearest_sq_dist, nn_mean_dist, solveh_banded, sq_dist_table)
from icmap.geometry import EGO_TO_WORLD, Pose2, chamfer_distance, transform_points
from icmap.pipeline import PipelineParams, run_scene
from icmap.synth import make_scene

from test_golden import SCENES

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
    # chamfer_pairs broadcasts what nn_mean_dist's grid search finds; both
    # compute sqrt(dx*dx + dy*dy), as the k-d tree the search replaced did
    rng = np.random.default_rng(n + m)
    a = rng.uniform(-50, 50, (n, 2))
    b = np.vstack([rng.uniform(-50, 50, (m, 2)), a[:2]])  # exact ties at 0
    d2 = (a[:, None, 0] - b[None, :, 0]) ** 2 + (a[:, None, 1] - b[None, :, 1]) ** 2
    assert nn_mean_dist(a, b) == float(np.sqrt(d2.min(axis=1)).sum() / n)


@st.composite
def nn_case(draw):
    """(a, b) laid out against the grid search's cells: all of a and b but
    one far point of b in one cell; exact duplicates; points on
    axis-parallel lines; points on the boundaries of cells one or four cell
    sides wide, or one float off them; a far point of a, which the grid
    does not resolve; points of a between one and four cell sides from b,
    which the grid does not resolve either. Any of them may sit 1e5 m from
    the origin."""
    kind = draw(st.sampled_from(["one_cell", "duplicates", "lines", "boundaries", "outlier",
                                 "band"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(1, 60)), draw(st.integers(1, 60))
    if kind == "one_cell":
        a, b = rng.uniform(0.0, 0.01, (n, 2)), rng.uniform(0.0, 0.01, (m, 2))
        b[0] = (400.0, -300.0)
    elif kind == "duplicates":
        pool = rng.integers(-8, 9, (draw(st.integers(1, 6)), 2)) / 4
        a, b = pool[rng.integers(len(pool), size=n)], pool[rng.integers(len(pool), size=m)]
    elif kind == "lines":
        a, b = (np.column_stack([rng.integers(-40, 41, k) / 4, rng.integers(-1, 2, k) * 0.5])
                for k in (n, m))
        if draw(st.booleans()):
            a, b = a[:, ::-1].copy(), b[:, ::-1].copy()
    else:
        a, b = rng.uniform(-10.0, 10.0, (n, 2)), rng.uniform(-10.0, 10.0, (m, 2))
    if draw(st.booleans()):
        a, b = a + 1e5, b + 1e5
    if kind == "boundaries":
        lo, hi = b.min(axis=0), b.max(axis=0)
        side = _cell_side(tuple((hi - lo).tolist()), m) * draw(st.sampled_from([1, 4]))
        a = lo + np.round((a - lo) / side) * side
        a = np.nextafter(a, a + rng.integers(-1, 2, a.shape))
        inner = ~((b == lo) | (b == hi)).any(axis=1)  # moving them keeps the box
        b[inner] = np.clip(lo + np.round((b[inner] - lo) / side) * side, lo, hi)
    if kind == "outlier":
        a[rng.integers(n)] = rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(3, 6, 2)
    if kind == "band":
        lo, hi = b.min(axis=0), b.max(axis=0)
        side = _cell_side(tuple((hi - lo).tolist()), m)
        # points 1 to 4 sides from a point of b, kept where no point of b is nearer than a side
        k = 4 * n + 16
        turn, reach = rng.uniform(0.0, 2 * np.pi, k), rng.uniform(side, 4 * side, (k, 1))
        near = b[rng.integers(m, size=k)] + reach * np.column_stack([np.cos(turn), np.sin(turn)])
        a = near[sq_dist_table(near, b).min(axis=1) >= side * side][:n]
        assume(len(a))
    return a, b


@properties
@given(nn_case(), st.sampled_from([PAIR_CHUNK, 1, 7]))
def test_nearest_matches_table_and_tree(case, chunk):
    # every distance bit for bit, with the default chunk and with chunks that
    # split the candidate pairs and the fallback table into many pieces
    a, b = case
    with mock.patch.object(_kernels, "PAIR_CHUNK", chunk):
        got = np.sqrt(nearest_sq_dist(a, b))
        mean = nn_mean_dist(a, b)
    tree, _ = cKDTree(b).query(a)
    assert np.array_equal(got, np.sqrt(sq_dist_table(a, b).min(axis=1)))
    assert np.array_equal(got, tree)
    assert mean == float(tree.sum() / len(a))


@pytest.mark.parametrize("far_in", ["a", "b"])
def test_far_point_collapses_the_grid(far_in):
    # one point at (1e5, -1e5) stretches the cell side to the whole road, so
    # the grid search leaves nearly every point to the chunked table
    s = np.linspace(0.0, 140.0, 400)
    road = np.column_stack([s, 3.0 * np.sin(s / 20.0)])
    a, b = road[::2], road[1::2] + (0.0, 0.25)
    if far_in == "a":
        a = far = np.vstack([a, (1e5, -1e5)])
    else:
        b = far = np.vstack([b, (1e5, -1e5)])
    assert _cell_side(tuple(np.ptp(far, axis=0).tolist()), len(far)) > 140.0
    d2 = (a[:, None, 0] - b[None, :, 0]) ** 2 + (a[:, None, 1] - b[None, :, 1]) ** 2
    assert np.array_equal(nearest_sq_dist(a, b), d2.min(axis=1))
    assert np.array_equal(nearest_sq_dist(b, a), d2.min(axis=0))
    want = 0.5 * (float(np.sqrt(d2.min(axis=1)).sum() / len(a))
                  + float(np.sqrt(d2.min(axis=0)).sum() / len(b)))
    assert chamfer_distance(a, b) == want


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


def spd_band(rng, n, kd, scale):
    """Upper band (scipy's `ab`) of scale * L Lᵀ, L lower triangular with
    bandwidth kd and a dominant diagonal, so positive definite."""
    full = np.zeros((n, n))
    for d in range(min(kd, n - 1) + 1):
        full += np.diag(rng.uniform(-1.0, 1.0, n - d) + (2.0 if d == 0 else 0.0), -d)
    full = scale * (full @ full.T)
    ab = np.zeros((kd + 1, n))
    for d in range(min(kd, n - 1) + 1):
        ab[kd - d, d:] = np.diag(full, d)
    return ab


@st.composite
def banded_system(draw):
    """(ab, b): a kd = 3 SPD band of 2 to 120 columns, as the merge fit
    builds them, at a scale between 1e-6 and 1e6, and a vector or one or two
    right-hand columns."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 120))
    ab = spd_band(rng, n, 3, 10.0 ** draw(st.floats(-6.0, 6.0)))
    cols = draw(st.sampled_from([None, 1, 2]))
    return ab, rng.normal(0.0, 10.0, n if cols is None else (n, cols))


@pytest.fixture
def scipy_fallback(monkeypatch):
    # a numpy without OpenBLAS: the lookup finds no symbol
    monkeypatch.setattr(_kernels, "DPBSV_SYMBOLS", ("no_such_dpbsv_",))
    monkeypatch.setattr(_kernels, "_DPBSV", _kernels._find_dpbsv())
    assert _kernels._DPBSV is None


@properties
@given(banded_system())
def test_banded_solve_matches_scipy(case):
    ab, b = case
    got = solveh_banded(ab, b)
    assert got.shape == b.shape
    assert np.array_equal(got, scipy_solveh_banded(ab, b, check_finite=False))


@lru_cache(maxsize=None)
def merge_systems(workload):
    """Every (ab, b) that the merge fit solves in one run of `workload`'s
    golden scene."""
    systems = []

    def record(ab, b):
        systems.append((ab.copy(), b.copy()))
        return solveh_banded(ab, b)

    with mock.patch.object(curvefit, "solveh_banded", record):
        run_scene(make_scene(SCENES[workload]), PipelineParams())
    return systems


@pytest.mark.parametrize("workload", ["merge_clean", "merge_noisy"])
def test_banded_solve_matches_scipy_on_merge_systems(workload):
    systems = merge_systems(workload)
    assert len(systems) > 50
    for ab, b in systems:
        assert np.array_equal(solveh_banded(ab, b), scipy_solveh_banded(ab, b, check_finite=False))


def test_banded_solve_falls_back_to_scipy(scipy_fallback):
    rng = np.random.default_rng(5)
    bands = [(spd_band(rng, n, 3, 1.0), rng.normal(0.0, 1.0, (n, 2))) for n in (2, 3, 40, 120)]
    for ab, b in merge_systems("merge_clean")[:20] + bands:
        assert np.array_equal(solveh_banded(ab, b), scipy_solveh_banded(ab, b, check_finite=False))


@pytest.mark.parametrize("path", ["lapack", "scipy"])
def test_banded_solve_rejects_like_scipy(path, request):
    if path == "scipy":
        request.getfixturevalue("scipy_fallback")
    ab = spd_band(np.random.default_rng(0), 6, 3, 1.0)
    ab[3, 2] = -1.0  # the third leading minor is negative
    b = np.ones((6, 2))
    with pytest.raises(np.linalg.LinAlgError) as want:
        scipy_solveh_banded(ab, b, check_finite=False)
    assert str(want.value) == "3th leading minor not positive definite"
    with pytest.raises(np.linalg.LinAlgError) as got:
        solveh_banded(ab, b)
    assert str(got.value) == str(want.value)
    for bad in (np.ones(5), np.ones((5, 2))):
        with pytest.raises(ValueError, match="shapes of ab and b are not compatible"):
            solveh_banded(ab, bad)
