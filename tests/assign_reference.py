"""The assignment solve without its row-minimum start, kept as an independent reference.

``otpiano.assign._augmenting_path_solve`` first gives every row its
cheapest column where that column is free, and runs a shortest-augmenting-
path search only for the rows left over; this is the solve it replaced,
which runs one search per row from all-zero duals.  ``solve_cost_rows``
must give the same pairs, total and dropped rows with either one in place,
apart from a tie exactly one tolerance above the optimum, which float
summation order decides (see ``otpiano.assign._lexicographic_optimum``).
"""

from __future__ import annotations

_INF = float("inf")


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
