"""Finger-to-key placement as a rectangular linear sum assignment problem.

Every active key must be claimed by exactly one fingertip and no fingertip
may claim two keys; the chosen pairing minimizes the summed Euclidean
moving distance.  The solver is a shortest-augmenting-path method with
dual variables (Jonker-Volgenant family, as in Crouse's rectangular
variant) and runs once per problem.  Ties between optima (totals within a
relative 1e-12) break toward the lexicographically smallest pair list,
read off the final duals: by complementary slackness an assignment's
excess over the optimum is the sum of its reduced costs plus the negated
duals of the columns it leaves uncovered.  A greedy pass over the rows
therefore finds the lexicographic optimum by re-routing the solved
matching along one shortest path over tight edges, without another float
solve; one extra search node stands for every unassigned column, as in
the square reduction of the rectangular problem.  A tie exactly one
tolerance above the optimum is decided by float summation order and can
keep a later column (see _lexicographic_optimum).  When every key
already has a fingertip exactly on its press point and no other
fingertip is near one, resting_pairs reads the same answer off the
points without a cost build or solve.  An exhaustive
enumerator over all injective mappings serves as the independent oracle
for small chords.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .keyboard import KEY_COUNT, KeyboardGeometry, OutOfRangeError, press_point_table

_INF = float("inf")
_BRUTE_MAX_ROWS = 7
_BRUTE_MAX_MAPPINGS = 10_000_000
# slack for "same total cost" in the tie-break: far above float noise in
# sums of ~10 entries, far below any tolerance the results are used at
_TIE_RTOL = 1e-12


class InfeasibleError(ValueError):
    """More keys than available fingers."""


class TooLargeError(ValueError):
    """Instance exceeds the exhaustive enumerator's guard."""


@dataclass(frozen=True)
class CostMatrix:
    """Moving costs in meters: rows are keys, columns are fingers."""

    costs: np.ndarray
    key_ids: tuple
    finger_ids: tuple

    def __post_init__(self) -> None:
        costs = np.asarray(self.costs, dtype=np.float64)
        if costs.ndim != 2 or costs.size == 0:
            raise ValueError("cost matrix must be 2D and non-empty")
        if not np.all(np.isfinite(costs)) or np.any(costs < 0):
            raise ValueError("costs must be finite and >= 0")
        if costs.shape != (len(self.key_ids), len(self.finger_ids)):
            raise ValueError("cost shape does not match key/finger id lists")
        costs.flags.writeable = False
        object.__setattr__(self, "costs", costs)

    @property
    def n_keys(self) -> int:
        return self.costs.shape[0]

    @property
    def n_fingers(self) -> int:
        return self.costs.shape[1]


@dataclass(frozen=True)
class Assignment:
    """Solved pairing: (key row, finger column) pairs plus the total cost.

    Every key row appears exactly once, every finger column at most once.
    ``dropped_rows`` is non-empty only in best-effort mode, listing key rows
    left unassigned because the chord exceeded the finger count.
    """

    pairs: tuple
    total_cost: float
    dropped_rows: tuple = ()


def build_cost_matrix(fingertips, finger_ids, active_keys, geom: KeyboardGeometry) -> CostMatrix:
    """Euclidean fingertip-to-press-point distances.

    Rows follow the active keys in ascending order; columns follow
    ``finger_ids`` (the embodiment's configured order).
    """
    keys = sorted(active_keys)
    if not keys:
        raise ValueError("active_keys must be non-empty")
    if keys[0] < 0 or keys[-1] >= KEY_COUNT:
        raise OutOfRangeError(f"active keys {keys[0]}..{keys[-1]} outside [0, {KEY_COUNT})")
    tips = np.asarray(fingertips, dtype=np.float64)
    if tips.ndim != 2 or tips.shape[1] != 3 or tips.shape[0] == 0:
        raise ValueError("fingertips must be a non-empty (n, 3) array")
    if tips.shape[0] != len(finger_ids):
        raise ValueError("fingertips and finger_ids disagree on finger count")
    points = press_point_table(geom)[keys].tolist()
    costs = np.array(key_distances(points, tips.tolist()), dtype=np.float64)
    return CostMatrix(costs=costs, key_ids=tuple(keys), finger_ids=tuple(finger_ids))


def key_distances(points, tips) -> list:
    """Cost rows: row i holds the distances from press point i to every fingertip.

    Both are sequences of ``(x, y, z)`` Python floats.  Each distance sums
    its squares as ``(dx*dx + dy*dy) + dz*dz``, the order of numpy's sum
    over a last axis of length 3, so the rows are the bits a numpy build of
    the same matrix gives.
    """
    rows = []
    for px, py, pz in points:
        row = []
        for x, y, z in tips:
            dx = px - x
            dy = py - y
            dz = pz - z
            row.append(math.sqrt((dx * dx + dy * dy) + dz * dz))
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Shortest augmenting path core (rows <= cols)
# ---------------------------------------------------------------------------


def _augmenting_path_solve(cost: list) -> tuple:
    """Assign every row to a distinct column minimizing total cost.

    ``cost`` is a list of row lists with len(rows) <= len(cols); returns
    ``(col4row, u, v)``.  One Dijkstra-style search per row over reduced
    costs, with dual updates keeping reduced costs ``c - u - v``
    non-negative; they are zero on the returned pairs, and columns left
    unassigned keep ``v == 0``.
    """
    n_rows = len(cost)
    n_cols = len(cost[0])
    u = [0.0] * n_rows
    v = [0.0] * n_cols
    col4row = [-1] * n_rows
    row4col = [-1] * n_cols
    for cur_row in range(n_rows):
        shortest = [_INF] * n_cols
        path = [-1] * n_cols
        scanned = [False] * n_cols
        seen_rows = [cur_row]
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            lowest = _INF
            index = -1
            row_costs = cost[i]
            ui = u[i]
            for j in range(n_cols):
                if scanned[j]:
                    continue
                reduced = min_val + row_costs[j] - ui - v[j]
                if reduced < shortest[j]:
                    shortest[j] = reduced
                    path[j] = i
                sj = shortest[j]
                # prefer an unassigned column on ties: reaches the sink sooner
                if sj < lowest or (sj == lowest and row4col[j] == -1):
                    lowest = sj
                    index = j
            min_val = lowest
            j = index
            scanned[j] = True
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
                seen_rows.append(i)
        u[cur_row] += min_val
        for i2 in seen_rows:
            if i2 != cur_row:
                u[i2] += min_val - shortest[col4row[i2]]
        for j in range(n_cols):
            if scanned[j]:
                v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return col4row, u, v


def _lexicographic_optimum(cost: list, col4row: list, u: list, v: list) -> list:
    """Rewrite a solved col4row into the lexicographically smallest optimum.

    "Optimal" means a total within ``eps`` of the solved one.  With the
    solver's final duals, an assignment's excess over the optimum is the
    sum of its reduced costs ``c - u - v`` plus ``-v`` of every column it
    leaves uncovered, all terms >= 0; so only tight edges (reduced cost
    <= eps) can appear.  Row by row, the tight columns below the row's
    current one are tried in ascending order: the cheapest re-routing of
    the matching onto that column (see _reroute) is taken if the total
    stays within ``eps``.  Otherwise the row keeps its current column,
    which always does; rows before it stay fixed.  The bound is a float
    sum, so summation order decides a tie exactly ``eps`` above the optimum
    and can keep a later column (test_resolving_reference_returns_its_best_candidate_on_exact_tolerance_sums).
    """
    n_rows = len(cost)
    eps = _TIE_RTOL * max(1.0, max(map(max, cost)))  # costs are >= 0
    target = 0.0
    for i, j in enumerate(col4row):
        target += cost[i][j]
    fixed = [False] * len(v)
    prefix = 0.0
    for i, row in enumerate(cost):
        current = col4row[i]
        ui = u[i]
        for j in range(current):
            if fixed[j] or row[j] - ui - v[j] > eps:
                continue
            moved = _reroute(cost, u, v, eps, col4row, fixed, j, current)
            if moved is None:
                continue
            rest = 0.0
            for r in range(i + 1, n_rows):
                rest += cost[r][moved[r]]
            if prefix + row[j] + rest <= target + eps:
                col4row = moved
                break
        fixed[col4row[i]] = True
        prefix += row[col4row[i]]
    return col4row


def _reroute(cost, u, v, eps, col4row, fixed, start, current) -> "list | None":
    """Cheapest re-routing of col4row that hands ``start`` to the row on ``current``.

    A shortest path from ``start`` to ``current``: along an edge between
    columns the row holding the first moves to the second, over a tight
    edge into an unfixed column, at its change in reduced cost.  One extra
    node stands for every unassigned column: a free column ``t`` reaches
    it at ``v[t]`` (``t`` becomes covered), and it reaches any unfixed,
    assigned column ``s`` at ``-v[s]`` (``s`` is left uncovered).  The
    row on ``current`` closes the path by moving to ``start``.  The
    matching is the cheapest for its fixed rows, so no cycle is negative
    and the shortest path is the cheapest re-routing; a label-correcting
    search finds it.  Returns the new col4row, or None when no path exists.
    """
    n_cols = len(v)
    noise = eps * 1e-3  # smaller gains are float noise: ignoring them keeps the tree acyclic
    row4col = [-1] * n_cols
    for row, col in enumerate(col4row):
        row4col[col] = row
    unassigned = n_cols  # the extra node

    def moves(col):
        if col == unassigned:
            for s in range(n_cols):
                if s != start and not fixed[s] and row4col[s] != -1:
                    yield s, -v[s]
            return
        row = row4col[col]
        if row == -1:
            yield unassigned, v[col]
            return
        row_costs = cost[row]
        ur = u[row]
        leave = row_costs[col] - ur - v[col]
        for nxt in range(n_cols):
            if nxt != start and not fixed[nxt]:
                enter = row_costs[nxt] - ur - v[nxt]
                if enter <= eps:
                    yield nxt, enter - leave

    dist = {start: 0.0}
    tree = {start: -1}
    stack = [start]
    while stack:
        col = stack.pop()
        if col == current:
            continue
        for nxt, step in moves(col):
            d = dist[col] + step
            if nxt not in dist or d < dist[nxt] - noise:
                dist[nxt] = d
                tree[nxt] = col
                stack.append(nxt)
    if current not in dist:
        return None
    moved = list(col4row)
    moved[row4col[current]] = start
    col = current
    while col != start:
        prev = tree[col]
        if unassigned not in (prev, col):
            moved[row4col[prev]] = col
        col = prev
    return moved


def solve_cost_rows(rows: list, best_effort: bool = False) -> tuple:
    """The solve behind solve_assignment, on a list of cost rows.

    Returns ``(pairs, total_cost, dropped_rows)`` as stored in Assignment;
    raises InfeasibleError on more rows than columns unless ``best_effort``.
    """
    n_keys, n_fingers = len(rows), len(rows[0])
    dropped = ()
    if n_keys > n_fingers:
        if not best_effort:
            raise InfeasibleError(f"{n_keys} keys but only {n_fingers} fingers")
        transposed = list(zip(*rows))
        key4finger = _lexicographic_optimum(transposed, *_augmenting_path_solve(transposed))
        pairs = tuple(sorted((key_row, finger_col) for finger_col, key_row in enumerate(key4finger)))
        assigned = set(key4finger)
        dropped = tuple(r for r in range(n_keys) if r not in assigned)
    else:
        pairs = tuple(enumerate(_lexicographic_optimum(rows, *_augmenting_path_solve(rows))))
    total = 0.0
    for i, j in pairs:
        total += rows[i][j]
    return pairs, total, dropped


def resting_gap(max_cost: float) -> float:
    """The ``gap`` resting_pairs needs on instances whose costs are at most ``max_cost``.

    Twice the tie slack of such an instance, so the slack stays below the
    gap after the rounding of a distance and of the bound itself.
    """
    return 2.0 * _TIE_RTOL * max(1.0, max_cost)


def resting_pairs(points, tips, gap: float) -> "tuple | None":
    """The pairs solve_cost_rows gives when every key already has a fingertip on it, else None.

    ``points`` are the keys' press points and ``tips`` the fingertips, as
    for key_distances; ``gap`` comes from resting_gap with a bound on every
    distance of the instance.  The pairs are given, with total ``0.0``,
    when the chord is not oversized, every key has a fingertip ``==`` its
    point (so the distance is exactly ``0.0``), the keys' lowest such rows
    differ, and every other fingertip differs from every key's point by
    more than ``gap`` in some coordinate.  Each key then takes the lowest
    row on its point, exactly as solve_cost_rows(key_distances(points, tips))
    would have it:

    - every cost is ``0.0`` or above the tie slack ``_TIE_RTOL * max(1, max cost)``;
    - so the augmenting-path solve ends on a zero-cost matching with every
      dual ``0.0``, the optimum is ``0.0``, and its ties are exactly the
      zero-cost matchings;
    - a key's zero-cost fingers are those on its point, which no other key
      shares, so the lexicographic optimum gives each key its lowest row.
      This covers co-located fingertips, such as a free finger that rests
      on the key another finger of its hand presses.

    An empty chord gives ``()``.
    """
    if len(points) > len(tips):
        return None
    pairs = []
    for i, (px, py, pz) in enumerate(points):
        on = -1
        for j, (x, y, z) in enumerate(tips):
            dx = x - px
            if dx > gap or dx < -gap:
                continue  # the common case: far off in x
            if x == px and y == py and z == pz:
                if on < 0:
                    on = j
            elif not (abs(y - py) > gap or abs(z - pz) > gap):
                return None  # near the point but not on it (or NaN): leave it to the solve
        if on < 0:
            return None
        pairs.append((i, on))
    if len({j for _, j in pairs}) < len(pairs):
        return None
    return tuple(pairs)


def solve_assignment(cost: CostMatrix, best_effort: bool = False) -> Assignment:
    """Minimum-cost injective mapping of keys to fingers.

    Requires at most as many keys as fingers; with ``best_effort`` an
    oversized chord is reduced by assigning the cheapest finger-count
    subset of keys (via the transposed problem) and reporting the dropped
    key rows.  Ties between optima break toward the lexicographically
    smallest pair list (for oversized chords, smallest in finger-major
    order on the transposed problem), so results are reproducible.
    """
    pairs, total, dropped = solve_cost_rows(cost.costs.tolist(), best_effort)
    return Assignment(pairs=pairs, total_cost=total, dropped_rows=dropped)


# ---------------------------------------------------------------------------
# Exhaustive oracle
# ---------------------------------------------------------------------------

_PERM_CACHE: dict = {}


def _permutation_table(n_rows: int, n_cols: int) -> np.ndarray:
    key = (n_rows, n_cols)
    table = _PERM_CACHE.get(key)
    if table is None:
        table = np.array(list(itertools.permutations(range(n_cols), n_rows)), dtype=np.int16)
        _PERM_CACHE[key] = table
    return table


def brute_force_assignment(cost: CostMatrix) -> Assignment:
    """Enumerate every injective key->finger mapping and return the best.

    Guarded to at most 7 keys.  Mappings are enumerated in lexicographic
    order and totals accumulated row by row, so the first minimum found is
    the same lexicographically smallest optimum solve_assignment returns.
    """
    n_keys, n_fingers = cost.n_keys, cost.n_fingers
    if n_keys > n_fingers:
        raise InfeasibleError(f"{n_keys} keys but only {n_fingers} fingers")
    if n_keys > _BRUTE_MAX_ROWS:
        raise TooLargeError(f"{n_keys} keys exceeds the {_BRUTE_MAX_ROWS}-key enumeration guard")
    count = 1
    for k in range(n_keys):
        count *= n_fingers - k
    if count > _BRUTE_MAX_MAPPINGS:
        raise TooLargeError(f"{count} mappings exceeds the enumeration guard")

    table = _permutation_table(n_keys, n_fingers)
    costs = cost.costs
    totals = costs[0, table[:, 0]].astype(np.float64, copy=True)
    for i in range(1, n_keys):
        totals += costs[i, table[:, i]]
    best = int(np.argmin(totals))
    pairs = tuple((i, int(table[best, i])) for i in range(n_keys))
    return Assignment(pairs=pairs, total_cost=float(totals[best]))


def format_debug_table(cost: CostMatrix, assignment: Assignment) -> str:
    """Aligned text table of the cost matrix with chosen pairs starred."""
    col_labels = [getattr(f, "label", lambda: str(f))() for f in cost.finger_ids]
    chosen = dict(assignment.pairs)
    width = max(8, *(len(c) + 2 for c in col_labels))
    lines = ["key".ljust(6) + "".join(c.rjust(width) for c in col_labels)]
    for i, key in enumerate(cost.key_ids):
        cells = []
        for j in range(cost.n_fingers):
            mark = "*" if chosen.get(i) == j else " "
            cells.append(f"{cost.costs[i, j]:.4f}{mark}".rjust(width))
        lines.append(str(key).ljust(6) + "".join(cells))
    lines.append(f"total cost: {assignment.total_cost:.6f}")
    if assignment.dropped_rows:
        dropped_keys = [cost.key_ids[r] for r in assignment.dropped_rows]
        lines.append(f"dropped keys: {dropped_keys}")
    return "\n".join(lines)
