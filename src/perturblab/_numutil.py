"""Small numeric helpers: compensated summation, rank tests, matching."""

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
    """x * y for complex arrays of one shape, formed componentwise.

    Rounds as numpy's scalar complex multiply does; its complex array
    multiply may use fused multiply-adds and round differently.
    """
    out = np.empty_like(x)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def cabs(x):
    """|x| for a complex array, rounded as the scalar abs of a complex is.

    numpy's complex array abs may differ from it in the last bit.
    """
    return np.hypot(x.real, x.imag)


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


def poly_scale(coeffs):
    """Scale a coefficient vector by its max-|coefficient| (returns copy)."""
    c = np.asarray(coeffs, dtype=complex)
    m = np.max(np.abs(c)) if c.size else 0.0
    if m == 0.0:
        return c.copy()
    return c / m

