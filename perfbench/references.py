"""Reference computations made apart from perturblab.

Nothing here imports perturblab.  Each function computes a quantity the
program also computes, by another method: a dense eigensolve of the
Woodbury form of the perturbed operator, plain numpy sums for beta, rho and
Theta, bracketed bisection for Clark atoms, adaptive quadrature in a tangent
substitution, batched SVDs over every partition.

A problem is a dict with numpy values under t, mu, a, b and kappa (see
instances.problem); a and b are N x n and kappa is n x n at rank n.
"""

import math

import numpy as np
from scipy.integrate import quad


def _columns(p):
    a, b, kappa = p["a"], p["b"], p["kappa"]
    if np.ndim(a) == 1:
        return a[:, None], b[:, None], np.array([[kappa]])
    return a, b, np.asarray(kappa)


def eigenvalues(p):
    """Spectrum as eig(diag(t) + a C^{-1} b^H diag(mu)), C = kappa - b^H diag(mu/t) a."""
    t, mu = p["t"], p["mu"]
    a, b, kappa = _columns(p)
    c = kappa - (np.conj(b).T * (mu / t)) @ a
    return np.linalg.eigvals(np.diag(t) + a @ np.linalg.solve(c, np.conj(b).T * mu))


def phi_poles(p):
    """Poles of phi, the solutions of rho(z) = -i: eig(diag(t) - i nu 1^T)."""
    nu = clark_weights(p)
    return np.linalg.eigvals(np.diag(p["t"]).astype(complex)
                             - 1j * np.outer(nu, np.ones_like(nu)))


def clark_weights(p):
    """nu_n = |b_n|^2 mu_n."""
    return np.abs(p["b"]) ** 2 * p["mu"]


def beta(p, z, conjugate=False):
    """kappa + sum (1/(t - z) - 1/t) a conj(b) mu; conjugated coefficients on request."""
    t = p["t"]
    w = p["a"] * np.conj(p["b"]) * p["mu"]
    kappa = p["kappa"]
    if conjugate:
        w, kappa = np.conj(w), np.conj(kappa)
    z = np.asarray(z, dtype=complex)[..., None]
    return kappa + np.sum((1.0 / (t - z) - 1.0 / t) * w, axis=-1)


def rho(p, z):
    """sum nu/(t - z): rho with the canonical constant delta = sum nu/t."""
    z = np.asarray(z, dtype=complex)[..., None]
    return np.sum(clark_weights(p) / (p["t"] - z), axis=-1)


def rho_prime(p, x):
    x = np.asarray(x, dtype=float)[..., None]
    return np.sum(clark_weights(p) / (p["t"] - x) ** 2, axis=-1)


def theta(p, z):
    r = rho(p, z)
    return (1j - r) / (1j + r)


def phi(p, z):
    """beta (1 + Theta)/2 = i beta/(i + rho)."""
    return 1j * beta(p, z) / (1j + rho(p, z))


def phi_tilde(p, z):
    """Theta(z) conj(phi(conj z)) = i beta~/(i + rho) with conjugated coefficients."""
    return 1j * beta(p, z, conjugate=True) / (1j + rho(p, z))


def clark_atoms(p, zeta):
    """Atoms and weights of the Clark measure of Theta at a unimodular zeta != -1.

    Theta(x) = zeta is rho(x) = c with c = i(1 - zeta)/(1 + zeta) real.  rho
    increases from -inf to +inf between consecutive atoms, and from 0 to
    +inf left of the first one (-inf to 0 right of the last), so there is
    one root per gap plus one outer root, found here by bisection.  Each
    weight is 2/|Theta'(x)| = (1 + c^2)/rho'(x).
    """
    c = (1j * (1.0 - zeta) / (1.0 + zeta)).real
    t = p["t"]
    reach = 4.0 * float(np.sum(clark_weights(p))) / abs(c) + (t[-1] - t[0])
    if c > 0:
        lo, hi = np.concatenate(([t[0] - reach], t[:-1])), t
    else:
        lo, hi = t, np.concatenate((t[1:], [t[-1] + reach]))
    return _bisect_rho(p, c, lo, hi)


def _bisect_rho(p, c, lo, hi):
    lo, hi = lo.astype(float).copy(), hi.astype(float).copy()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = rho(p, mid).real < c
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    x = 0.5 * (lo + hi)
    return x, (1.0 + c * c) / rho_prime(p, x)


def window_count(eigs, rect):
    x1, x2, y1, y2 = rect
    return int(np.sum((eigs.real > x1) & (eigs.real < x2)
                      & (eigs.imag > y1) & (eigs.imag < y2)))


def min_partition_sigma(p, eigs):
    """Smallest singular value over every partition of the mixed system.

    Column j is a/(t - lam_j) (index in J1) or b/(t - conj lam_j) (in J2),
    weighted by sqrt(mu) and scaled to unit norm; exhaustive over 2^n masks.
    """
    t, mu = p["t"], p["mu"]
    w = np.sqrt(mu)[:, None]
    f = p["a"][:, None] / (t[:, None] - eigs[None, :]) * w
    g = p["b"][:, None] / (t[:, None] - np.conj(eigs)[None, :]) * w
    f /= np.linalg.norm(f, axis=0)
    g /= np.linalg.norm(g, axis=0)
    n = eigs.size
    masks = np.arange(2 ** n)
    bits = ((masks[:, None] >> np.arange(n)[None, :]) & 1).astype(bool)
    x = np.where(bits[:, None, :], g[None, :, :], f[None, :, :])
    return float(np.linalg.svd(x, compute_uv=False)[:, -1].min())


def integral(p, n_weight, tau, eta):
    """integral over R of 1/(|phi(x + i eta)|^tau (1 + |x|)^n_weight), x = tan(s)."""
    def integrand(s):
        x = math.tan(s)
        val = abs(complex(phi(p, complex(x, eta))))
        return 1.0 / (val ** tau * (1.0 + abs(x)) ** n_weight) / math.cos(s) ** 2

    pts = sorted(math.atan(v) for v in p["t"])
    val, _ = quad(integrand, -math.pi / 2, math.pi / 2, points=pts,
                  limit=2000, epsabs=0.0, epsrel=1e-11)
    return val


def section4_q_total(k):
    """sum over atoms outside the doubling subsequence of (2 t_n)^-n min |t_n - t_nk|."""
    t = np.arange(1.0, k + 1.0)
    n1 = doubling_subsequence(t)
    others = [i for i in range(k) if i not in n1]
    return math.fsum((2.0 * t[i]) ** -(i + 1) * min(abs(t[i] - t[j]) for j in n1)
                     for i in others)


def doubling_subsequence(t):
    idx = [0]
    for i in range(1, len(t)):
        if t[i] > 2.0 * t[idx[-1]]:
            idx.append(i)
    return idx


def mittag_leffler_partial(z, n):
    """1 + sum_{k<=n} (1/(t_k - z) - 1/t_k) c_k with t_k = (k-1/2)^2."""
    k = np.arange(1, n + 1)
    t = (k - 0.5) ** 2
    c = (2.0 / np.pi) * (-1.0) ** (k + 1) * (k - 0.5)
    terms = c * (1.0 / (t - z) - 1.0 / t)
    return 1.0 + math.fsum(terms.real) + 1j * math.fsum(np.imag(terms))


def sharp_problem(n, eps=1.0, alpha1=0.0):
    """t_n = (n - 1/2)^2, a'_n = n^(3/2 - 2 alpha1 - eps), b'_n = c_n/a'_n."""
    k = np.arange(1, n + 1, dtype=float)
    t = (k - 0.5) ** 2
    c = (2.0 / np.pi) * (-1.0) ** (k + 1) * (k - 0.5)
    a = k ** (1.5 - 2.0 * alpha1 - eps)
    return t, a, c / a
