"""Seeded problem generator for large truncations.

Atoms sit one per cell of an even partition of [lo, hi], jittered inside
the middle half of the cell, so neighbouring atoms are at least a quarter
of a cell apart and no atom comes within a quarter cell of 0.  Masses are
drawn from [0.5, 2], the moduli of a and b from [0.5, 1] with uniform
phases (so |b| is bounded below), and a, b and kappa are redrawn until
kappa keeps a relative distance of at least KAPPA_MARGIN from the pairing
sum.  Atoms are never redrawn, so any size costs one pass, unlike rejection
sampling of free atoms on a minimum gap.  Draws come from a Philox stream
keyed by (seed, stream), so a seed always gives the same problem.
"""

import numpy as np

#: least |kappa - omega| / (1 + |omega|) of a generated problem
KAPPA_MARGIN = 0.25


def rng_for(seed, *stream):
    """Independent Philox stream for one (seed, stream...) pair."""
    key = np.random.SeedSequence([int(seed), *(int(s) for s in stream)])
    return np.random.Generator(np.random.Philox(key))


def separated_atoms(rng, n, lo=-20.0, hi=20.0):
    width = (hi - lo) / n
    centers = lo + width * (np.arange(n) + 0.5)
    t = centers + rng.uniform(-0.25, 0.25, n) * width
    near_zero = np.abs(centers) < 0.25 * width
    # with n odd, the cell centred on 0 keeps its atom at least a quarter
    # cell away from 0 (and still a quarter cell from its neighbours)
    side = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    t = np.where(near_zero, side * width * rng.uniform(0.25, 0.5, n), t)
    return t


def _unit_disc_values(rng, shape):
    r = rng.uniform(0.5, 1.0, shape)
    return r * np.exp(2j * np.pi * rng.uniform(size=shape))


def problem(rng, n, rank=1, kappa=None, lo=-20.0, hi=20.0):
    """One problem as a dict with keys t, mu, a, b, kappa (numpy values).

    kappa=None draws the coupling with a and b; a given kappa (such as 0)
    is kept while a and b are redrawn.
    """
    t = separated_atoms(rng, n, lo, hi)
    mu = rng.uniform(0.5, 2.0, n)
    shape = (n,) if rank == 1 else (n, rank)
    while True:
        a = _unit_disc_values(rng, shape)
        b = _unit_disc_values(rng, shape)
        omega = pairing(t, mu, a, b)
        if kappa is not None:
            k = kappa
        elif rank == 1:
            k = complex(*rng.uniform(-3.0, 3.0, 2))
        else:
            k = (rng.uniform(-3.0, 3.0, (rank, rank))
                 + 1j * rng.uniform(-3.0, 3.0, (rank, rank)))
        if _far(k, omega):
            return {"t": t, "mu": mu, "a": a, "b": b, "kappa": k}


def dissipative(rng, n, coupling=0.2, lo=-20.0, hi=20.0):
    """Atoms at the cell centres, b = a and kappa = omega - i/coupling.

    The operator is then diag(t) plus i*coupling times a positive rank-one
    term, so its whole spectrum lies in the open upper half-plane.  The
    atoms are not jittered: the cost of a contour along the real axis
    follows the atom gaps, and fixed gaps keep it steady across seeds.
    """
    if n % 2:
        raise ValueError("n must be even, or the middle atom sits at 0")
    width = (hi - lo) / n
    t = lo + width * (np.arange(n) + 0.5)
    mu = rng.uniform(0.5, 2.0, n)
    a = _unit_disc_values(rng, (n,))
    kappa = pairing(t, mu, a, a) - 1j / coupling
    return {"t": t, "mu": mu, "a": a, "b": a.copy(), "kappa": kappa}


def pairing(t, mu, a, b):
    """omega_jk = sum_n a_nj conj(b_nk) mu_n / t_n (a scalar at rank one)."""
    w = mu / t
    if np.ndim(a) == 1:
        return complex(np.sum(a * np.conj(b) * w))
    return (a * w[:, None]).T @ np.conj(b)


def _far(kappa, omega):
    diff = np.atleast_2d(kappa - omega)
    smallest = np.linalg.svd(diff, compute_uv=False)[-1]
    return smallest >= KAPPA_MARGIN * (1.0 + np.max(np.abs(omega)))


def to_json_doc(p):
    """Problem file document: complex numbers as [re, im] pairs."""
    def pair(z):
        z = complex(z)
        return [z.real, z.imag]

    doc = {"atoms": [{"t": float(t), "mu": float(m)}
                     for t, m in zip(p["t"], p["mu"])]}
    if np.ndim(p["a"]) == 1:
        doc["a"] = [pair(z) for z in p["a"]]
        doc["b"] = [pair(z) for z in p["b"]]
        doc["kappa"] = pair(p["kappa"])
    else:
        doc["a"] = [[pair(z) for z in row] for row in p["a"]]
        doc["b"] = [[pair(z) for z in row] for row in p["b"]]
        doc["kappa"] = [[pair(z) for z in row] for row in p["kappa"]]
    return doc
