"""Small numeric helpers: summation, quadrature, rank tests, matching."""

import numpy as np


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


GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def adaptive_panel(fn, a, b, tol, whole=None, depth=0):
    """64-point panels, bisected until two levels agree within tol.

    Resolves spikes, such as those of phi'/phi from zeros sitting just off
    a window edge, which a fixed panel count can step over.  fn maps an
    array of points to an array of values.  The nodes of the
    panel (unless its integral comes in as whole, computed by the parent)
    and of its two halves go through one call: 192 points at the top and
    128 in each recursion.
    """
    mid = (a + b) / 2.0
    pieces = ((a, mid), (mid, b)) if whole is not None else \
        ((a, b), (a, mid), (mid, b))
    half_widths = [(q - p) / 2.0 for p, q in pieces]
    vals = fn(np.concatenate([(p + q) / 2.0 + h * GL_NODES
                              for (p, q), h in zip(pieces, half_widths)]))
    sums = [h * np.sum(GL_WEIGHTS * v)
            for h, v in zip(half_widths, np.split(vals, len(pieces)))]
    whole = sums[0] if whole is None else whole
    left, right = sums[-2:]
    split = left + right
    if abs(whole - split) <= tol or depth >= 24 or not np.isfinite(split):
        return split, abs(whole - split)
    left, le = adaptive_panel(fn, a, mid, tol / 2.0, left, depth + 1)
    right, re_ = adaptive_panel(fn, mid, b, tol / 2.0, right, depth + 1)
    return left + right, le + re_


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


def hausdorff_distance(xs, ys):
    """Hausdorff distance between two finite point sets in the plane."""
    xs = np.asarray(xs, dtype=complex).ravel()
    ys = np.asarray(ys, dtype=complex).ravel()
    if xs.size == 0 and ys.size == 0:
        return 0.0
    if xs.size == 0 or ys.size == 0:
        return np.inf
    d = np.abs(xs[:, None] - ys[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def matched_max_distance(xs, ys):
    """Max pairwise distance under optimal bipartite matching (Hungarian)."""
    from scipy.optimize import linear_sum_assignment

    xs = np.asarray(xs, dtype=complex).ravel()
    ys = np.asarray(ys, dtype=complex).ravel()
    if xs.size != ys.size:
        return np.inf
    if xs.size == 0:
        return 0.0
    cost = np.abs(xs[:, None] - ys[None, :])
    row, col = linear_sum_assignment(cost)
    return float(cost[row, col].max())


def cluster_points(points, radius):
    """Greedy clustering of complex points; returns (centers, multiplicities).

    Points within `radius` of a cluster center are merged; centers are the
    means of their clusters, processed in sorted (re, im) order so the
    result is deterministic.
    """
    pts = sorted(np.asarray(points, dtype=complex).ravel(),
                 key=lambda z: (z.real, z.imag))
    centers = []
    members = []
    for z in pts:
        placed = False
        for i, c in enumerate(centers):
            if abs(z - c) <= radius:
                members[i].append(z)
                centers[i] = np.mean(members[i])
                placed = True
                break
        if not placed:
            centers.append(z)
            members.append([z])
    mults = [len(m) for m in members]
    return np.asarray(centers), np.asarray(mults, dtype=int)

