"""Small numeric helpers: summation, quadrature, rank tests, matching."""

import numpy as np

from .errors import MatchingFailure


def kahan_sum(values):
    """Kahan-compensated sum of an iterable of (possibly complex) scalars."""
    total = 0.0 + 0.0j
    carry = 0.0 + 0.0j
    for v in values:
        v = v + carry
        new_total = total + v
        carry = v - (new_total - total)
        total = new_total
    return total


def cmul(x, y):
    """x * y for (real or complex) scalars or broadcasting arrays.

    Rounds as numpy's scalar complex multiply does: two scalars go through
    it, and arrays are multiplied componentwise, since numpy's complex array
    multiply may use fused multiply-adds and round differently.
    """
    if np.ndim(x) == 0 and np.ndim(y) == 0:
        return x * y
    out = np.empty(np.broadcast(x, y).shape, dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def cabs(x):
    """|x| for a complex array, rounded as the scalar abs of a complex is.

    numpy's complex array abs may differ from it in the last bit.
    """
    return np.hypot(x.real, x.imag)


def difference_quotient(num, diff, scale, limit):
    """num/diff, with limit() in place where |diff| < 1e-9 (1 + |scale|).

    The removable singularity of a quotient like (f(z) - f(w))/(z - w):
    limit is called only when some diff falls inside that guard.  Works on
    scalars and on arrays that broadcast together.
    """
    diff = np.asarray(diff, dtype=complex)
    near = cabs(diff) < 1e-9 * (1.0 + cabs(np.asarray(scale, dtype=complex)))
    q = num / np.where(near, 1.0, diff)
    return (np.where(near, limit(), q) if np.any(near) else q)[()]


#: elements per block (terms x points) of a batched evaluation: each
#: temporary of a block stays within 64 KB per transform summed, whatever
#: the batch size (larger blocks were no faster and raised the peak
#: resident set by megabytes)
BATCH_ELEMENTS = 4096
#: most points gauss_legendre passes to fn in one call: at 4096 a
#: (2, points) complex temporary outgrows 128 KB and a call gets slower
PANEL_POINTS = BATCH_ELEMENTS // 4
#: bisection depth at which adaptive_panel accepts a panel as it is
MAX_DEPTH = 24

#: nodes and weights of one panel: an n-point rule converges geometrically
#: in n on integrands analytic near the panel, and adaptive_panel bisects
#: where they are not (64 nodes cost half as many points again and found no
#: other window count)
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def gauss_legendre(fn, panels):
    """The GL_NODES.size-point Gauss-Legendre integral of fn on each panel.

    fn maps an array of points to an array of values; the nodes of whole
    panels go through it in calls of at most PANEL_POINTS points.  Returns
    the integrals and fn's values at the nodes, one row per panel.
    Midpoints and half-widths halve each end first, which is exact, so
    they stay finite for ends near the largest float.
    """
    half_widths = [b / 2.0 - a / 2.0 for a, b in panels]
    calls = -(-len(panels) * GL_NODES.size // PANEL_POINTS)
    vals = []
    for part in np.array_split(np.arange(len(panels)), calls):
        points = np.concatenate([panels[k][0] / 2.0 + panels[k][1] / 2.0
                                 + half_widths[k] * GL_NODES for k in part])
        vals.extend(fn(points).reshape(part.size, GL_NODES.size))
    return [h * np.sum(GL_WEIGHTS * v)
            for h, v in zip(half_widths, vals)], vals


def adaptive_panel(fn, panels, tol, wholes=None):
    """Gauss-Legendre panels, bisected until two levels agree within tol.

    Resolves spikes, such as those of N'/N from eigenvalues just off a
    window edge, which a fixed panel count can step over.  Each (a, b) of
    panels is integrated with the tolerance tol, halved at each bisection;
    wholes, when given, are their gauss_legendre integrals, computed by the
    caller.  The refinement runs level by level: the nodes of every panel
    still open at a level (the panel, unless its integral is known, and
    its two halves: 3n points at the top and 2n below, n = GL_NODES.size)
    go through gauss_legendre together.  A panel is accepted when its
    halves agree with it within its tolerance, at depth MAX_DEPTH or when
    their sum is not finite; the sums then run up the bisection tree, each
    parent the sum of its two children.  The tolerance has a floor, the
    rounding level of the halves' integrals: for each half, with centre c
    and half-width h, n eps |h| sum(GL_WEIGHTS |fn|) for the values and,
    once the levels agree to half the digits, eps |c| mean|fn(x_i+1) -
    fn(x_i)| for the nodes, which round to within eps |c| of their places.
    Below it the levels cannot agree, and a tolerance halved further
    would bisect a spike down to MAX_DEPTH.  Returns one (value, error
    estimate) per panel.
    """
    # a panel of a level is (a, b, whole or None, node); results[node] is
    # its (value, error) or, once bisected, the node number of its left half
    results = [None] * len(panels)
    eps = np.finfo(float).eps
    level = [(a, b, None if wholes is None else wholes[node], node)
             for node, (a, b) in enumerate(panels)]
    depth = 0
    while level:
        pieces = []
        for a, b, whole, _ in level:
            mid = a / 2.0 + b / 2.0
            if whole is None:
                pieces.append((a, b))
            pieces += [(a, mid), (mid, b)]
        sums, vals = gauss_legendre(fn, pieces)
        vals = np.asarray(vals)
        with np.errstate(over="ignore", invalid="ignore"):
            # per piece, the integral of |fn| and the change of fn a node's
            # rounding makes: a node lies within eps |c| of its place
            sizes = (np.abs([b / 2.0 - a / 2.0 for a, b in pieces])
                     * np.sum(GL_WEIGHTS * np.abs(vals), axis=1))
            shifts = (np.abs([a / 2.0 + b / 2.0 for a, b in pieces])
                      * np.mean(np.abs(np.diff(vals, axis=1)), axis=1))
        done = iter(zip(sums, sizes, shifts))
        bisected = []
        for a, b, whole, node in level:
            whole = next(done)[0] if whole is None else whole
            (left, l_size, l_shift), (right, r_size, r_shift) = (next(done),
                                                                 next(done))
            split = left + right
            err = abs(whole - split)
            size, shift = l_size + r_size, l_shift + r_shift
            # the nodes' rounding counts once the levels agree to half the
            # digits, where fn is resolved between the nodes
            floor = eps * GL_NODES.size * size + (
                eps * shift if err <= 2.0 ** -26 * size else 0.0)
            if (err <= max(tol, floor) or depth >= MAX_DEPTH
                    or not np.isfinite(split)):
                results[node] = (split, err)
                continue
            mid = a / 2.0 + b / 2.0
            results[node] = len(results)
            bisected += [(a, mid, left, len(results)),
                         (mid, b, right, len(results) + 1)]
            results += [None, None]
        level, tol, depth = bisected, tol / 2.0, depth + 1
    # halves come after their panel: sum the tree from the leaves up
    for node in range(len(results) - 1, -1, -1):
        if isinstance(results[node], int):
            (lv, le), (rv, re_) = results[results[node]:results[node] + 2]
            results[node] = (lv + rv, le + re_)
    return results[:len(panels)]


def sum_by_abs_pole(poles, terms):
    """Sum `terms` in order of ascending |pole|, Kahan-compensated.

    Bounded rounding for long truncations; the order is part of the
    determinism contract (identical inputs give bit-identical sums).
    """
    order = np.argsort(np.abs(np.asarray(poles)), kind="stable")
    terms = np.asarray(terms)
    return kahan_sum(terms[order])


def numerical_rank(mat, rtol=1e-10):
    """Rank via SVD; singular values below rtol * sigma_max count as zero."""
    s = np.linalg.svd(np.atleast_2d(mat), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rtol * s[0]))


def distances(xs, ys):
    """|x_i - y_j|, row i for the point x_i of xs and column j for y_j."""
    xs = np.asarray(xs, dtype=complex).ravel()
    ys = np.asarray(ys, dtype=complex).ravel()
    return np.abs(xs[:, None] - ys[None, :])


def hausdorff_distance(dist):
    """Hausdorff distance between two finite point sets in the plane, from
    their distances(xs, ys)."""
    if dist.size == 0:
        return 0.0 if dist.shape == (0, 0) else np.inf
    return float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))


def assignment(cost):
    """col with row i paired to column col[i]: a bottleneck assignment of a
    square cost matrix, one whose largest cost max_i cost[i, col[i]] is the
    least over all bijections.

    Every bijection costs at least max_i min_j cost[i, j], and the
    nearest-neighbour map argmin(cost, axis=1) attains it, so that map is
    the answer whenever it is a bijection.  Otherwise the least cost at or
    above that bound at which the costs cost[i, j] <= threshold still admit
    a perfect matching is found by bisection over the sorted costs, each
    threshold tested by augmenting paths (Hopcroft & Karp, SIAM J. Comput.
    2, 1973) from the injective part of the nearest-neighbour map.  A
    non-finite cost raises MatchingFailure.
    """
    if not np.all(np.isfinite(cost)):
        raise MatchingFailure("cannot match point sets with a non-finite "
                              "distance between them")
    nearest = np.argmin(cost, axis=1)
    if np.unique(nearest).size == nearest.size:
        return nearest
    bound = cost[np.arange(nearest.size), nearest].max()
    thresholds = np.unique(cost[cost >= bound])
    lo, hi = 0, thresholds.size - 1     # every cost is allowed at hi
    while lo < hi:
        mid = (lo + hi) // 2
        if _perfect_matching(cost <= thresholds[mid], nearest) is None:
            lo = mid + 1
        else:
            hi = mid
    return _perfect_matching(cost <= thresholds[lo], nearest)


def _perfect_matching(allowed, start):
    """col with row i paired to column col[i] and every allowed[i, col[i]],
    or None when the boolean matrix allowed admits no perfect matching.

    The matching starts from the pairs (i, start[i]) of the first row to
    claim each column, which must be allowed, and grows by one augmenting
    path per unmatched row, found by a breadth-first search that crosses
    from the rows of a level to their allowed unseen columns, and from a
    matched column to its row.  When the search from a row ends without a
    free column, the rows it reached have fewer allowed columns than
    themselves, so no perfect matching exists (Hall's theorem).
    """
    n = len(allowed)
    row_of = np.full(n, -1)          # the row matched to each column
    col_of = np.full(n, -1)          # the column matched to each row
    first = np.unique(start, return_index=True)[1]
    row_of[start[first]] = first
    col_of[first] = start[first]
    for root in np.flatnonzero(col_of < 0):
        came_from = np.full(n, -1)   # the row each column was reached from
        seen = np.zeros(n, dtype=bool)
        rows = np.array([root])
        while True:
            reach = allowed[rows] & ~seen
            cols = np.flatnonzero(reach.any(axis=0))
            if cols.size == 0:
                return None
            came_from[cols] = rows[np.argmax(reach[:, cols], axis=0)]
            seen[cols] = True
            free = cols[row_of[cols] < 0]
            if free.size:
                break
            rows = row_of[cols]
        # flip the path from the free column back to root
        col = free[0]
        while col >= 0:
            row = came_from[col]
            col_of[row], row_of[col], col = col, row, col_of[row]
    return col_of


def matched_max_distance(dist):
    """The optimal matching distance of two point sets from their
    distances(xs, ys): the least max_i |x_i - y_pi(i)| over bijections pi
    (Bhatia, Matrix Analysis, GTM 169, Ch. VI), through assignment; inf
    when the sets differ in size.
    """
    if dist.shape[0] != dist.shape[1]:
        return np.inf
    if dist.size == 0:
        return 0.0
    return float(dist[np.arange(len(dist)), assignment(dist)].max())


def cluster_points(points, radius):
    """Greedy clustering of complex points; returns (centers, multiplicities).

    Points within `radius` of a cluster center are merged; centers are the
    means of their clusters, processed in sorted (re, im) order so the
    result is deterministic.  A center lies among its members' real parts
    (up to the rounding of the mean, covered by a margin), so points whose
    real parts are more than radius apart never meet: the scan runs only
    within runs of sorted points whose consecutive real gaps are at most
    radius, and every other point is its own center.
    """
    pts = np.asarray(points, dtype=complex).ravel()
    pts = pts[np.lexsort((pts.imag, pts.real))]
    re = pts.real
    margin = 4.0 * np.finfo(float).eps * pts.size * np.max(
        np.abs(re[np.isfinite(re)]), initial=0.0)
    starts = np.flatnonzero(~(np.diff(re, prepend=np.nan)
                              <= radius + margin))
    centers, mults = [], []
    for start, stop in zip(starts, np.append(starts[1:], pts.size)):
        if stop - start == 1:
            centers.append(pts[start])
            mults.append(1)
            continue
        run = np.empty(stop - start, dtype=complex)
        members = []
        for z in pts[start:stop]:
            hits = np.flatnonzero(cabs(z - run[:len(members)]) <= radius)
            if hits.size:
                cluster = members[hits[0]]
                cluster.append(z)
                run[hits[0]] = np.mean(cluster)
            else:
                run[len(members)] = z
                members.append([z])
        centers.extend(run[:len(members)])
        mults.extend(len(m) for m in members)
    return (np.asarray(centers, dtype=complex),
            np.asarray(mults, dtype=int))
