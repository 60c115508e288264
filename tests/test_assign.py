from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy_reference as reference
import otpiano.assign as assign_module
from otpiano.assign import (
    Assignment,
    CostMatrix,
    InfeasibleError,
    TooLargeError,
    brute_force_assignment,
    build_cost_matrix,
    format_debug_table,
    key_distances,
    resting_gap,
    resting_pairs,
    solve_assignment,
    solve_cost_rows,
)
from otpiano.hand import HandConfig, HandMotion, init_hands
from otpiano.keyboard import KeyboardGeometry, OutOfRangeError, key_press_point, press_point_table

GEOM = KeyboardGeometry()
FINGERS = HandConfig.default().enabled_fingers


def _matrix(costs):
    costs = np.asarray(costs, dtype=np.float64)
    rows, cols = costs.shape
    return CostMatrix(costs=costs, key_ids=tuple(range(rows)), finger_ids=tuple(range(cols)))


def _check_constraints(assignment: Assignment, n_keys: int, n_fingers: int):
    rows = [r for r, _ in assignment.pairs]
    cols = [c for _, c in assignment.pairs]
    assert sorted(rows + list(assignment.dropped_rows)) == list(range(n_keys))
    assert len(rows) == len(set(rows))  # each key once
    assert len(cols) == len(set(cols))  # each finger at most once
    assert all(0 <= c < n_fingers for c in cols)


# ---------------------------------------------------------------------------
# cost matrix construction
# ---------------------------------------------------------------------------


def test_cost_zero_when_finger_on_press_point():
    point = key_press_point(39, GEOM)
    matrix = build_cost_matrix([point], FINGERS[:1], {39}, GEOM)
    assert matrix.costs.shape == (1, 1)
    assert matrix.costs[0, 0] == 0.0


def test_cost_is_euclidean_distance():
    px, py, pz = key_press_point(10, GEOM)
    tip = (px - 0.03, py - 0.04, pz)  # 3-4-5 triangle
    matrix = build_cost_matrix([tip], FINGERS[:1], {10}, GEOM)
    assert matrix.costs[0, 0] == pytest.approx(0.05, rel=1e-12)


def test_cost_matrix_shape_and_order():
    state = init_hands(HandConfig.default(), GEOM)
    matrix = build_cost_matrix(state.fingertips, state.fingers, {50, 39}, GEOM)
    assert matrix.costs.shape == (2, 10)
    assert matrix.key_ids == (39, 50)  # ascending keys
    assert matrix.finger_ids == state.fingers  # config order
    assert (matrix.costs >= 0).all()


# coordinates include both zeros: the kernel must keep -0.0 apart from 0.0
_COORD = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))
_POINTS = st.lists(st.tuples(_COORD, _COORD, _COORD), min_size=1, max_size=12)


@given(points=_POINTS, tips=_POINTS)
def test_distance_kernel_matches_numpy_reference(points, tips):
    got = np.array(key_distances(points, tips), dtype=np.float64)
    assert got.tobytes() == reference.key_distances(np.array(points), np.array(tips)).tobytes()


@given(keys=st.sets(st.integers(0, 87), min_size=1, max_size=12), tips=_POINTS)
def test_cost_matrix_matches_numpy_reference(keys, tips):
    matrix = build_cost_matrix(tips, tuple(range(len(tips))), keys, GEOM)
    points = np.array([key_press_point(k, GEOM) for k in sorted(keys)])
    assert matrix.costs.tobytes() == reference.key_distances(points, np.array(tips)).tobytes()


def test_cost_matrix_validation():
    with pytest.raises(ValueError):
        build_cost_matrix([], FINGERS[:0], {39}, GEOM)
    with pytest.raises(ValueError):
        build_cost_matrix([(0.0, 0.0, 0.0)], FINGERS[:1], set(), GEOM)
    for key in (-1, 88):
        with pytest.raises(OutOfRangeError):
            build_cost_matrix([(0.0, 0.0, 0.0)], FINGERS[:1], {39, key}, GEOM)
    with pytest.raises(ValueError):
        _matrix([[np.inf]])
    with pytest.raises(ValueError):
        _matrix([[-0.1]])


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


def test_single_entry():
    result = solve_assignment(_matrix([[0.3]]))
    assert result.pairs == ((0, 0),)
    assert result.total_cost == 0.3


def test_identity_beats_crossing():
    # keys at x = 0, 1; fingers at x = 0.1, 0.9
    result = solve_assignment(_matrix([[0.1, 0.9], [0.9, 0.1]]))
    assert result.pairs == ((0, 0), (1, 1))
    assert result.total_cost == pytest.approx(0.2)


def test_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(200):
        rows = int(rng.integers(1, 7))
        matrix = _matrix(rng.uniform(0.0, 1.0, size=(rows, 10)))
        fast = solve_assignment(matrix)
        slow = brute_force_assignment(matrix)
        assert abs(fast.total_cost - slow.total_cost) < 1e-9
        assert fast.pairs == slow.pairs
        _check_constraints(fast, rows, 10)


def test_tie_break_matches_brute_force_on_integer_costs():
    rng = np.random.default_rng(11)
    for _ in range(300):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(rows, 9))
        matrix = _matrix(rng.integers(0, 3, size=(rows, cols)).astype(float))
        fast = solve_assignment(matrix)
        slow = brute_force_assignment(matrix)
        assert fast.total_cost == slow.total_cost
        assert fast.pairs == slow.pairs


def test_tie_break_is_lexicographically_smallest():
    result = solve_assignment(_matrix([[1.0, 1.0], [1.0, 1.0]]))
    assert result.pairs == ((0, 0), (1, 1))
    result = solve_assignment(_matrix([[5.0, 5.0, 5.0]]))
    assert result.pairs == ((0, 0),)


def test_infeasible_when_more_keys_than_fingers():
    with pytest.raises(InfeasibleError):
        solve_assignment(_matrix([[1.0], [2.0]]))
    with pytest.raises(InfeasibleError):
        brute_force_assignment(_matrix([[1.0], [2.0]]))


def test_best_effort_drops_cheapest_subset():
    # three keys, two fingers: keeping keys 0 and 2 costs 0, key 1 is dropped
    result = solve_assignment(_matrix([[0.0, 9.0], [1.0, 1.0], [9.0, 0.0]]), best_effort=True)
    assert result.pairs == ((0, 0), (2, 1))
    assert result.dropped_rows == (1,)
    assert result.total_cost == 0.0
    _check_constraints(result, 3, 2)


def test_best_effort_noop_when_feasible():
    result = solve_assignment(_matrix([[0.1, 0.9], [0.9, 0.1]]), best_effort=True)
    assert result.dropped_rows == ()
    assert result.pairs == ((0, 0), (1, 1))


def test_monotone_in_added_fingers():
    rng = np.random.default_rng(3)
    for _ in range(50):
        base = rng.uniform(0.0, 1.0, size=(4, 6))
        extra = np.hstack([base, rng.uniform(0.0, 1.0, size=(4, 1))])
        cost_base = solve_assignment(_matrix(base)).total_cost
        cost_extra = solve_assignment(_matrix(extra)).total_cost
        assert cost_extra <= cost_base + 1e-12


def test_permutation_equivariance():
    rng = np.random.default_rng(5)
    for _ in range(30):
        costs = rng.uniform(0.0, 1.0, size=(5, 8))
        perm = rng.permutation(8)
        base = solve_assignment(_matrix(costs))
        permuted = solve_assignment(_matrix(costs[:, perm]))
        assert permuted.total_cost == pytest.approx(base.total_cost, abs=1e-12)
        remapped = {(r, int(perm[c])) for r, c in permuted.pairs}
        assert remapped == set(base.pairs)


def test_scale_equivariance():
    rng = np.random.default_rng(9)
    costs = rng.uniform(0.0, 1.0, size=(5, 8))
    base = solve_assignment(_matrix(costs))
    for lam in (0.5, 3.0, 1e-3, 1e3):
        scaled = solve_assignment(_matrix(costs * lam))
        assert scaled.pairs == base.pairs
        assert scaled.total_cost == pytest.approx(lam * base.total_cost, rel=1e-12)


def _tie_heavy(rng, rows, cols, values=3):
    return _matrix(rng.integers(0, values, size=(rows, cols)).astype(float))


def test_one_augmenting_path_solve_per_call(monkeypatch):
    calls = []
    solve = assign_module._augmenting_path_solve

    def counted(cost):
        calls.append(len(cost))
        return solve(cost)

    monkeypatch.setattr(assign_module, "_augmenting_path_solve", counted)
    rng = np.random.default_rng(13)
    for rows, cols in [(1, 1), (3, 8), (10, 10), (14, 8), (18, 8)]:
        for _ in range(20):
            calls.clear()
            solve_assignment(_tie_heavy(rng, rows, cols), best_effort=True)
            assert calls == [min(rows, cols)]


def test_optimal_totals_match_scipy():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(17)
    for _ in range(300):
        fingers = int(rng.integers(1, 11))
        keys = int(rng.integers(1, fingers + 1))
        costs = rng.uniform(0.0, 1.0, size=(keys, fingers))
        rows, cols = optimize.linear_sum_assignment(costs)
        assert solve_assignment(_matrix(costs)).total_cost == pytest.approx(costs[rows, cols].sum(), abs=1e-12)
    for _ in range(200):
        fingers = int(rng.integers(1, 9))
        keys = int(rng.integers(fingers + 1, 19))
        costs = rng.uniform(0.0, 1.0, size=(keys, fingers))
        result = solve_assignment(_matrix(costs), best_effort=True)
        # best effort keeps the cheapest finger-count subset: scipy on the transpose
        rows, cols = optimize.linear_sum_assignment(costs.T)
        assert result.total_cost == pytest.approx(costs.T[rows, cols].sum(), abs=1e-12)
        assert len(result.pairs) == fingers and len(result.dropped_rows) == keys - fingers


def _reference_lexicographic_pairs(cost: list, target: float) -> tuple:
    """The former re-solving tie-break: fix each row to its smallest column
    whose optimal completion (a fresh solve of the remaining rows) still meets
    the target total."""
    solve = assign_module._augmenting_path_solve
    n_rows = len(cost)
    eps = assign_module._TIE_RTOL * max(1.0, max(abs(x) for row in cost for x in row))
    available = list(range(len(cost[0])))
    chosen = []
    prefix = 0.0
    for i in range(n_rows):

        def completion_cost(j):
            if i + 1 == n_rows:
                return prefix + cost[i][j]
            sub = [[cost[r][jj] for jj in available if jj != j] for r in range(i + 1, n_rows)]
            col4row = solve(sub)[0]
            return prefix + cost[i][j] + sum(sub[r][c] for r, c in enumerate(col4row))

        # the first column whose completion meets the target; when summation
        # order puts every completion just past it, the cheapest one
        completions = [(completion_cost(j), j) for j in available]
        picked = next((j for total, j in completions if total <= target + eps), min(completions)[1])
        chosen.append((i, picked))
        prefix += cost[i][picked]
        available.remove(picked)
    return tuple(chosen)


def _reference_pairs(costs: np.ndarray) -> tuple:
    """Lexicographic optimum by re-solving; finger-major on the transpose when oversized."""
    transposed = costs.shape[0] > costs.shape[1]
    rows = (costs.T if transposed else costs).tolist()
    col4row = assign_module._augmenting_path_solve(rows)[0]
    pairs = _reference_lexicographic_pairs(rows, sum(rows[r][c] for r, c in enumerate(col4row)))
    return tuple(sorted((k, f) for f, k in pairs)) if transposed else pairs


def test_tie_tolerance_bounds_the_total_not_each_pair():
    # the diagonal costs 2 * slack more than the optimum while each of its
    # pairs is only ``slack`` off: a tie only when the sum is within 1e-12
    for slack, expected in ((0.75e-12, ((0, 1), (1, 0))), (0.4e-12, ((0, 0), (1, 1)))):
        costs = np.array([[1.0 + slack, 1.0], [1.0, 1.0 + slack]])
        assert solve_assignment(_matrix(costs)).pairs == expected == _reference_pairs(costs)


def test_tie_break_matches_resolving_reference_on_large_tied_instances():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(8, 11))
        values = int(rng.integers(3, 7))
        for shape in [(n, n), (n, int(rng.integers(n, 11))), (int(rng.integers(n + 1, 19)), n)]:
            matrix = _tie_heavy(rng, *shape, values)
            result = solve_assignment(matrix, best_effort=True)
            assert result.pairs == _reference_pairs(matrix.costs)



def test_tie_break_matches_resolving_reference_on_near_ties():
    # integer costs plus slack in steps of 0.4 tolerance: whether a
    # tie holds depends on how many slack steps a whole assignment sums
    rng = np.random.default_rng(29)
    for _ in range(150):
        n = int(rng.integers(2, 11))
        for shape in [(n, int(rng.integers(n, 11))), (int(rng.integers(n + 1, 19)), n)]:
            base = rng.integers(0, int(rng.integers(2, 5)), size=shape).astype(float)
            step = 0.4 * assign_module._TIE_RTOL * max(1.0, base.max())
            costs = base + rng.integers(0, 3, size=shape) * step
            assert solve_assignment(_matrix(costs), best_effort=True).pairs == _reference_pairs(costs)

def test_resolving_reference_returns_its_best_candidate_on_exact_tolerance_sums():
    # integer costs plus slack in steps of 0.2 tolerance (a 6x8 instance drawn
    # from default_rng(31)).  The lexicographic optimum ends 5 steps, exactly
    # one tolerance, above the optimum, so float summation order decides
    # ``<= target + eps``: no completion of rows 4 and 5 meets it in floats
    base = [[2, 2, 0, 2, 0, 0, 0, 1], [0, 0, 2, 0, 2, 1, 1, 2], [2, 0, 0, 2, 0, 0, 1, 1],
            [1, 1, 1, 0, 0, 0, 2, 1], [1, 2, 2, 0, 1, 0, 1, 0], [2, 2, 2, 2, 1, 1, 2, 1]]
    steps = [[2, 0, 2, 2, 0, 2, 1, 2], [0, 0, 1, 2, 2, 0, 1, 2], [1, 1, 0, 1, 2, 0, 2, 0],
             [0, 2, 2, 2, 1, 0, 2, 0], [1, 2, 2, 1, 0, 1, 1, 1], [1, 2, 2, 0, 0, 2, 2, 0]]
    costs = np.array(base, dtype=float) + np.array(steps) * 0.2 * assign_module._TIE_RTOL * 2.0
    # checked by exact integer enumeration of all 20160 mappings
    exact = ((0, 2), (1, 0), (2, 1), (3, 3), (4, 5), (5, 4))
    assert _reference_pairs(costs) == exact
    # the solver's float check misses that boundary tie in the last row and
    # keeps column 7, which costs exactly what column 4 does
    solved = solve_assignment(_matrix(costs))
    assert solved.pairs == exact[:5] + ((5, 7),)
    assert solved.total_cost == sum(costs[r, c] for r, c in exact)


_RECOVERED_COLUMN_CASES = [
    # (integer base, slack in 0.3-tolerance steps, expected pairs): an early
    # re-routing leaves a column with a negative dual uncovered and a later
    # one covers it again, which pays that dual back
    (
        [[1, 0, 1, 1], [0, 0, 1, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 1, 1, 0], [1, 1, 1, 1], [1, 0, 0, 1]],
        [[1, 3, 2, 1], [3, 3, 0, 2], [2, 1, 0, 2], [3, 3, 3, 1], [0, 0, 2, 3], [1, 1, 0, 0], [3, 3, 3, 0]],
        ((0, 1), (1, 0), (2, 3), (3, 2)),
    ),
    (
        [[1, 0, 1, 1, 0, 0, 0, 0], [1, 0, 1, 0, 1, 0, 1, 1], [1, 1, 1, 1, 0, 0, 0, 0], [1, 1, 0, 1, 0, 0, 0, 0],
         [1, 0, 0, 1, 0, 0, 0, 1]],
        [[2, 2, 2, 3, 3, 0, 2, 2], [0, 3, 1, 1, 0, 0, 1, 2], [2, 2, 1, 1, 0, 3, 1, 2], [2, 2, 0, 1, 0, 2, 2, 3],
         [3, 3, 3, 3, 0, 2, 3, 2]],
        ((0, 1), (1, 3), (2, 4), (3, 2), (4, 5)),
    ),
]


@pytest.mark.parametrize("base,steps,expected", _RECOVERED_COLUMN_CASES, ids=["best-effort-7x4", "5x8"])
def test_tie_break_covers_an_uncovered_column_at_its_dual(base, steps, expected):
    # expected pairs checked by exact integer enumeration (costs in 0.1-tolerance units)
    costs = np.array(base, dtype=float) + np.array(steps) * 0.3 * assign_module._TIE_RTOL
    assert solve_assignment(_matrix(costs), best_effort=True).pairs == expected == _reference_pairs(costs)


# ---------------------------------------------------------------------------
# resting certificate
# ---------------------------------------------------------------------------


def _solved(points, tips):
    return solve_cost_rows(key_distances(points, tips), best_effort=True)


def _gap(geom):
    """resting_gap from the bound annotate_song uses: a ten-finger rollout on the whole keyboard."""
    hands = HandConfig.default()
    points = press_point_table(geom).tolist()
    return resting_gap(HandMotion(hands, geom, 0.05).distance_bound(points, init_hands(hands, geom).base))


_NUDGES = {
    "ulp": lambda c, gap: math.nextafter(c, math.inf),
    "1e-15": lambda c, gap: c + 1e-15,
    "half-gap": lambda c, gap: c + gap / 2,
    "twice-gap": lambda c, gap: c + 2 * gap,
}


@pytest.mark.parametrize("axis", [0, 1, 2], ids=["x", "y", "z"])
@pytest.mark.parametrize("nudge", list(_NUDGES))
def test_resting_pairs_needs_other_fingertips_beyond_the_gap(nudge, axis):
    # rows 2 and 3 rest on keys 39 (white) and 40 (black); row 1 sits on key 39 but for one nudged coordinate
    points = [key_press_point(39, GEOM), key_press_point(40, GEOM)]
    gap = _gap(GEOM)
    near = list(points[0])
    near[axis] = _NUDGES[nudge](near[axis], gap)
    tips = [(0.3, 0.05, 0.0), tuple(near), points[0], points[1]]
    pairs = resting_pairs(points, tips, gap)
    if nudge == "twice-gap":
        assert pairs == ((0, 2), (1, 3))
    else:
        assert pairs is None
    solved = _solved(points, tips)
    if pairs is not None:
        assert solved == (pairs, 0.0, ())
    elif nudge != "half-gap":
        assert solved[0] == ((0, 1), (1, 3))  # a near tie: the solve takes the lower, nudged row


def test_resting_pairs_give_a_shared_point_to_the_lowest_row():
    # co-located fingertips: rows 1 and 3 both on key 39's point, rows 0 and 2 both on key 52's
    points = [key_press_point(39, GEOM), key_press_point(52, GEOM)]
    tips = [points[1], points[0], points[1], points[0], (0.3, 0.05, 0.0)]
    pairs = resting_pairs(points, tips, _gap(GEOM))
    assert pairs == ((0, 1), (1, 0))
    assert _solved(points, tips) == (pairs, 0.0, ())


def test_resting_pairs_take_negative_zero_as_on_the_point():
    points = [key_press_point(39, GEOM)]  # a white key: y == z == 0.0
    x, _, _ = points[0]
    tips = [(0.3, 0.05, 0.0), (x, -0.0, -0.0)]
    pairs = resting_pairs(points, tips, _gap(GEOM))
    assert pairs == ((0, 1),)
    assert _solved(points, tips) == (pairs, 0.0, ())


def test_resting_pairs_refuse_oversized_chords_and_shared_rows():
    points = [key_press_point(k, GEOM) for k in (30, 32, 34)]
    gap = _gap(GEOM)
    assert resting_pairs(points, points[:2], gap) is None
    assert resting_pairs([points[0], points[0]], [points[0], points[0]], gap) is None  # one point, two keys
    assert resting_pairs([], points, gap) == ()
    assert resting_pairs(points, points, gap) == ((0, 0), (1, 1), (2, 2))


def test_resting_gap_scales_with_the_geometry():
    # on a keyboard 1000 m per white key the tie slack is about 5e-8 m, so a
    # fingertip 1e-8 m off the point ties with the one on it; a bare 1e-9 gap
    # would certify the wrong row, the derived gap leaves it to the solve
    geom = KeyboardGeometry(white_key_width=1000.0)
    points = [key_press_point(39, geom)]
    x, y, z = points[0]
    tips = [key_press_point(87, geom), (x + 1e-8, y, z), points[0]]
    assert _solved(points, tips)[0] == ((0, 1),)
    assert resting_pairs(points, tips, 1e-9) == ((0, 2),)
    assert _gap(geom) > 1e-7
    assert resting_pairs(points, tips, _gap(geom)) is None


@st.composite
def _resting_instances(draw):
    """Press points of distinct keys with none, one or two fingertips on or near each, and some far off."""
    geom = draw(st.sampled_from([GEOM, KeyboardGeometry(white_key_width=1000.0)]))
    keys = draw(st.lists(st.integers(0, 87), max_size=8, unique=True))
    points = [key_press_point(k, geom) for k in keys]
    flip = draw(st.booleans())  # zeros become -0.0 in the points
    points = [tuple(-c if flip and c == 0.0 else c for c in p) for p in points]
    gap = _gap(geom)
    tips = []
    for point in points:
        for _ in range(draw(st.sampled_from([0, 1, 1, 1, 1, 1, 2]))):
            tip = list(point)
            nudge = draw(st.sampled_from([None] * 12 + ["negate-zeros", *_NUDGES]))
            if nudge == "negate-zeros":
                tip = [-c if c == 0.0 else c for c in tip]
            elif nudge is not None:
                axis = draw(st.integers(0, 2))
                tip[axis] = _NUDGES[nudge](tip[axis], gap)
            tips.append(tuple(tip))
    low, high = key_press_point(0, geom)[0], key_press_point(87, geom)[0]
    for _ in range(draw(st.integers(0 if tips else 1, 3))):
        tips.append((draw(st.floats(low, high)), draw(st.floats(0.0, geom.black_key_setback)), 0.0))
    return points, draw(st.permutations(tips)), gap


@settings(max_examples=300, deadline=None)
@given(_resting_instances())
def test_resting_pairs_match_the_solve_whenever_given(instance):
    points, tips, gap = instance
    pairs = resting_pairs(points, tips, gap)
    if not points:
        assert pairs == ()
    elif pairs is not None:
        assert _solved(points, tips) == (pairs, 0.0, ())


# ---------------------------------------------------------------------------
# exhaustive oracle
# ---------------------------------------------------------------------------


def test_extreme_magnitude_spread():
    result = solve_assignment(_matrix([[1e9, 1e-9], [1e-9, 1e9]]))
    assert result.pairs == ((0, 1), (1, 0))
    assert result.total_cost == pytest.approx(2e-9)
    oracle = brute_force_assignment(_matrix([[1e9, 1e-9], [1e-9, 1e9]]))
    assert result.total_cost == oracle.total_cost


def test_brute_force_single_row_is_argmin():
    result = brute_force_assignment(_matrix([[0.4, 0.2, 0.9, 0.2]]))
    assert result.pairs == ((0, 1),)  # first minimum wins
    assert result.total_cost == 0.2


def test_brute_force_two_by_two():
    result = brute_force_assignment(_matrix([[1.0, 2.0], [2.0, 1.0]]))
    assert result.pairs == ((0, 0), (1, 1))
    assert result.total_cost == 2.0


def test_brute_force_guard():
    with pytest.raises(TooLargeError):
        brute_force_assignment(_matrix(np.ones((8, 10))))


def test_debug_table_renders():
    state = init_hands(HandConfig.default(), GEOM)
    matrix = build_cost_matrix(state.fingertips, state.fingers, {39, 43, 46}, GEOM)
    table = format_debug_table(matrix, solve_assignment(matrix))
    assert "total cost:" in table
    assert "R1" in table and "L5" in table
    assert table.count("*") == 3
