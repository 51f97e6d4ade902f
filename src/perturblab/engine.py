"""Matrix realization of the perturbed operator and its spectrum.

The perturbation acts on the weighted space l^2(mu) over the atoms, where the
unperturbed operator is A = diag(t_n) and adjoints are always taken in the
mu-weighted inner product <x, y> = sum x_n conj(y_n) mu_n.  When the coupling
is invertible the operator is the algebraic inverse of a bounded finite-rank
perturbation of A^{-1},

    L = (A^{-1} - (A^{-1} a) kappa^{-1} (b* A^{-1}))^{-1},

otherwise a deterministic scan picks a real shift lambda with invertible
shifted coupling kappa(lambda) = kappa + lambda b*(A - lambda)^{-1} A^{-1} a
and the spectrum is moved back afterwards.

The spectrum is computed two independent ways: dense eigensolve of L (the
oracle) and zeros of the generating function phi (the model route).  For
finite data the eigenvalue multiset of L equals the root multiset of the
numerator polynomial of beta, combining the zeros of phi in the closed upper
half-plane with the conjugated zeros of phi_tilde.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (AdmissibilityError, ChainRequired, EigensolveFailure,
                     NoInvertibleShift, NotBiorthogonal, NotMinimal,
                     OrderTooHigh, SingularGauge)
from .data import RankOneData, RankNData, validate
from .model import (BATCH_ELEMENTS, CauchyRepresentation, ModelPair,
                    build_model, kernel_k)
from ._numutil import (cabs, cluster_points, cmul, difference_quotient,
                       matched_max_distance, hausdorff_distance,
                       numerical_rank, kahan_sum, sum_by_abs_pole)

#: relative residual allowed for the algebraic-inverse identity
INVERSE_RTOL = 1e-10
#: singular values below this (relative) are zero in Jordan rank tests
JORDAN_RANK_RTOL = 1e-7
#: eigenvalue cluster radius, relative to the spectral scale
CLUSTER_RTOL = 1e-6
#: most Aberth iterations of one refinement
ABERTH_ITERATIONS = 120
#: most Aberth iterations secular_zeros spends on its first-order starts
#: before it falls back to the eigensolve starts
FIRST_ORDER_ITERATIONS = 24


def _columns(data):
    """a, b as N x n column matrices regardless of rank-one/rank-n input."""
    if isinstance(data, RankOneData):
        return data.a[:, None], data.b[:, None], np.array([[data.kappa]])
    return data.a, data.b, data.kappa


def kappa_shift(data, lam):
    """Shifted coupling kappa(lambda) = kappa + lambda b*(A-lambda)^{-1}A^{-1}a.

    For rank-one data this coincides with beta(lambda).
    """
    a, b, kappa = _columns(data)
    t, mu = data.t, data.mu
    w = mu / ((t - lam) * t)
    mat = kappa + lam * (b.conj().T * w) @ a
    return mat[0, 0] if isinstance(data, RankOneData) else mat


def shifted_data(data, lam):
    """Same perturbation over the shifted base A - lambda."""
    from .data import Atom, DiscreteSpectralData

    base = DiscreteSpectralData(tuple(Atom(t - lam, m)
                                      for t, m in zip(data.t, data.mu)))
    kl = kappa_shift(data, lam)
    if isinstance(data, RankOneData):
        return RankOneData(base, data.a.copy(), data.b.copy(), kl)
    return RankNData(base, data.a.copy(), data.b.copy(), kl)


@dataclass(frozen=True)
class MatrixRealization:
    L: np.ndarray
    route: tuple  # ("direct",) or ("shift", lambda)
    data: object
    inverse_residual: float

    @property
    def weights(self):
        return self.data.mu


def _build_direct(data):
    a, b, kappa = _columns(data)
    t, mu = data.t, data.mu
    n = a.shape[1]
    ainv = 1.0 / t
    kinv = np.linalg.inv(kappa)
    # b* A^{-1} y = b^H diag(mu/t) y  (weighted adjoint)
    bstar_ainv = b.conj().T * (mu * ainv)
    m = np.diag(ainv).astype(complex) - (a * ainv[:, None]) @ kinv @ bstar_ainv
    try:
        L = np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise AdmissibilityError(f"inverse-form matrix is singular: {exc}")
    resid = np.linalg.norm(L @ m - np.eye(len(t))) / (
        np.linalg.norm(L) * np.linalg.norm(m))
    return L, resid


def _kappa_invertible(kappa_mat, tol=1e-12):
    s = np.linalg.svd(kappa_mat, compute_uv=False)
    return s[-1] > tol * (1.0 + s[0])


def build_matrix(data, route="auto"):
    """Matrix realization of L(A, a, b, kappa) on l^2(mu).

    route "direct" requires invertible kappa; "shift" forces the scan;
    "auto" picks direct when possible.
    """
    report = validate(data)
    if not report.condition_A:
        raise AdmissibilityError("admissibility condition fails")
    _, _, kappa = _columns(data)
    if route == "auto":
        route = "direct" if _kappa_invertible(kappa) else "shift"
    if route == "direct":
        if not _kappa_invertible(kappa):
            raise AdmissibilityError("kappa not invertible; use the shift route")
        L, resid = _build_direct(data)
        return MatrixRealization(L, ("direct",), data, resid)
    if route != "shift":
        raise ValueError(f"unknown route {route!r}")
    t = data.t
    big = 2.0 * np.max(np.abs(t))
    for lam in np.linspace(-big, big, 1000):
        if np.min(np.abs(t - lam)) < 1e-6 * (1.0 + abs(lam)):
            continue
        kl = kappa_shift(data, lam)
        kl_mat = np.atleast_2d(np.asarray(kl, dtype=complex))
        s = np.linalg.svd(kl_mat, compute_uv=False)
        if s[-1] > 1e-8:
            shifted = shifted_data(data, lam)
            L, resid = _build_direct(shifted)
            return MatrixRealization(L + lam * np.eye(len(t)),
                                     ("shift", float(lam)), data, resid)
    raise NoInvertibleShift("no invertible shifted coupling among 1000 candidates")


@dataclass(frozen=True)
class OracleSpectrum:
    eigenvalues: np.ndarray          # raw eigenvalues from the dense solve
    clusters: np.ndarray             # cluster centers
    multiplicities: np.ndarray
    jordan: tuple                    # per-cluster tuple of block sizes

    @property
    def spectral_scale(self):
        if self.eigenvalues.size == 0:
            return 1.0
        return max(1.0, float(np.max(np.abs(self.eigenvalues))))


def oracle_spectrum(M: MatrixRealization):
    """Dense eigensolve with multiplicity clustering and Jordan structure."""
    L = M.L
    if L.shape[0] > 2048:
        raise EigensolveFailure("dense route limited to 2048 atoms")
    try:
        eigs = np.linalg.eigvals(L)
    except np.linalg.LinAlgError as exc:
        raise EigensolveFailure(str(exc))
    scale = max(1.0, float(np.max(np.abs(eigs)))) if eigs.size else 1.0
    centers, mults = cluster_points(eigs, CLUSTER_RTOL * scale)
    jordan = []
    n = L.shape[0]
    for lam, m in zip(centers, mults):
        if m == 1:
            jordan.append((1,))
            continue
        shifted = L - lam * np.eye(n)
        kernel_dims = [0]
        power = np.eye(n, dtype=complex)
        for _ in range(int(m)):
            power = power @ shifted
            kernel_dims.append(n - numerical_rank(power, JORDAN_RANK_RTOL))
            if kernel_dims[-1] == kernel_dims[-2]:
                break
        increments = np.diff(kernel_dims)
        blocks = []
        for k in range(1, len(increments) + 1):
            count_ge_k = increments[k - 1]
            count_ge_next = increments[k] if k < len(increments) else 0
            blocks.extend([k] * int(count_ge_k - count_ge_next))
        jordan.append(tuple(sorted(blocks, reverse=True)))
    return OracleSpectrum(eigs, centers, mults, tuple(jordan))


@dataclass(frozen=True)
class PhiZeros:
    zeros: np.ndarray               # all numerator roots (model spectrum)
    clusters: np.ndarray
    multiplicities: np.ndarray
    upper: np.ndarray               # zeros of phi with Im > 0
    real: np.ndarray
    lower: np.ndarray               # conjugates of the phi_tilde zeros
    seeding: str                    # "first_order", "eigensolve" or "none"
    aberth_iterations: int          # of the refinement that was kept


def _sum_inverse_differences(zs, points, skip):
    """sum_m 1/(zs[k] - points[m]) over m != skip[k], for every k.

    Blocks of at most BATCH_ELEMENTS (zs x points) entries, each inverted
    in place with each row's skipped term zeroed; rows sum as if alone.
    """
    sums = np.empty(zs.size, dtype=complex)
    step = max(1, BATCH_ELEMENTS // max(points.size, 1))
    for k in range(0, zs.size, step):
        inv = zs[k:k + step, None] - points
        np.reciprocal(inv, out=inv)
        inv[np.arange(inv.shape[0]), skip[k:k + step]] = 0.0
        sums[k:k + step] = np.sum(inv, axis=1)
    return sums


def _repeats(zs):
    """Flag each entry of zs equal to an earlier one: after a stable sort
    by (real, imag), every equal neighbour after the first."""
    order = np.lexsort((zs.imag, zs.real))
    ordered = zs[order]
    flags = np.zeros(zs.size, dtype=bool)
    flags[order[1:]] = ordered[1:] == ordered[:-1]
    return flags


def _aberth_refine(rep: CauchyRepresentation, roots,
                   budget=ABERTH_ITERATIONS):
    """Simultaneous Aberth-Ehrlich refinement of the zeros of a Cauchy
    transform F(z) = c + sum_n w_n/(t_n - z), c = F(infinity) != 0.

    F has exactly N zeros, those of the degree-N numerator
    F(z) prod_m (t_m - z).  With u = t_j - z for the pole nearest a root z
    and R the regular part of F at t_j, that numerator is
    (w_j + u R) prod_{m != j} (t_m - z), so its logarithmic derivative is
    (u R' - R)/(w_j + u R) + sum_{m != j} 1/(z - t_m): no polynomial value
    is ever formed.  Each iteration is one Jacobi-style step over all roots
    at once (as in MPSolve, Bini & Robol 2014), through (roots x poles) and
    (roots x roots) sums and one rep.regular_parts call.  An iterate equal
    to an earlier one is nudged aside; one whose correction is not finite
    stays put.  The refinement stops after the first step that moves every
    root z_k by less than 1e-14 max(1, max|t|, |z_k|), or after budget
    steps.  Returns the roots, the steps taken and whether that stop rule
    fired (False when the budget ran out first).
    """
    roots = np.array(roots, dtype=complex)
    rows = np.arange(roots.size)
    t = rep.poles
    scale = max(1.0, float(np.max(np.abs(t))))
    nudge = -1e-8 * scale * (1.0 + 1.0j)
    with np.errstate(all="ignore"):
        for iterations in range(1, budget + 1):
            js = rep.nearest_poles(roots)
            u = t[js] - roots
            r, rp = rep.regular_parts(js, roots)
            logd = ((cmul(u, rp) - r) / (rep.residues[js] + cmul(u, r))
                    + _sum_inverse_differences(roots, t, js))
            collided = _repeats(roots)
            denom = logd - _sum_inverse_differences(roots, roots, rows)
            step = 1.0 / denom
            ok = (denom != 0) & np.isfinite(denom) & np.isfinite(step)
            steps = np.where(collided, nudge, np.where(ok, step, 0.0))
            roots = roots - steps
            if np.all(np.abs(steps)
                      < 1e-14 * np.maximum(scale, np.abs(roots))):
                return roots, iterations, True
    return roots, budget, False


def _beta_infinity(beta: CauchyRepresentation):
    """F(inf) = c0 - sum_n w_n/t_n of a Cauchy transform F; for beta it is
    zero only for strict=False models, for i + rho never."""
    t = beta.poles
    c = beta.constant - sum_by_abs_pole(t, beta.residues / t)
    if c == 0:
        raise AdmissibilityError(
            "beta vanishes at infinity; the model route has no linearization")
    return c


def secular_zeros(rep: CauchyRepresentation):
    """The N zeros of F(z) = c + sum_n w_n/(t_n - z), c = F(infinity) != 0,
    in np.sort_complex order, the start kept and its refinement's steps.

    The first-order starts t_n + w_n/R_n, R_n the regular part of F at t_n
    (MPSolve's; Bini & Robol, JCAM 2014), cost one regular_parts call and
    get FIRST_ORDER_ITERATIONS Aberth steps.  They are kept ("first_order")
    when the stop rule fired and the starts and roots are finite and
    distinct; otherwise (zeros far from the poles, as on the sharp
    instances, or R_n = 0) the eigenvalues of diag(t) + (w/c) 1^T, whose
    determinant is det(diag(t) - z) F(z)/c, start ABERTH_ITERATIONS steps
    ("eigensolve", O(N^3)).  The gate is no certificate of the roots."""
    t, w = rep.poles, rep.residues
    c = _beta_infinity(rep)
    with np.errstate(divide="ignore", invalid="ignore"):
        seeds = t + w / rep.regular_parts(np.arange(t.size), t)[0]
    roots, iterations, stopped = _aberth_refine(rep, seeds,
                                                FIRST_ORDER_ITERATIONS)
    seeding = "first_order"
    if not (stopped and np.all(np.isfinite(seeds))
            and np.all(np.isfinite(roots)) and not np.any(_repeats(roots))):
        mat = np.outer(w / c, np.ones(t.size))
        mat[np.diag_indices(t.size)] += t
        roots, iterations, _ = _aberth_refine(rep, np.linalg.eigvals(mat))
        seeding = "eigensolve"
    return np.sort_complex(roots), seeding, iterations


def phi_zeros(model: ModelPair):
    """The zeros of beta (secular_zeros), classified by half-plane: the
    zeros of phi in the closed upper half-plane and the conjugated zeros of
    phi_tilde from the lower one, every array in np.sort_complex order."""
    roots, seeding, iterations = secular_zeros(model.beta)
    scale = max(1.0, float(np.max(np.abs(roots))))
    centers, mults = cluster_points(roots, CLUSTER_RTOL * scale)
    im_tol = 1e-9 * scale
    upper = roots[roots.imag > im_tol]
    real = roots[np.abs(roots.imag) <= im_tol]
    lower = roots[roots.imag < -im_tol]
    return PhiZeros(roots, centers, mults, upper, real, lower, seeding,
                    iterations)


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray
    phi_zero_set: np.ndarray
    match_residual: float
    hausdorff: float
    oracle: OracleSpectrum
    model_zeros: PhiZeros
    chains: tuple
    route: tuple


def compute_spectrum(data, route="auto", model=None):
    """Oracle and model spectra with the optimal-matching residual.

    The model route applies to rank-one data; rank-n results carry the
    oracle spectrum only (match_residual is nan).
    """
    M = build_matrix(data, route=route)
    oracle = oracle_spectrum(M)
    if model is None and isinstance(data, RankOneData):
        model = build_model(data)
    if model is None:
        empty = np.array([], dtype=complex)
        zeros = PhiZeros(empty, empty, np.array([], dtype=int),
                         empty, empty, empty, "none", 0)
        return SpectrumResult(oracle.eigenvalues, empty, float("nan"),
                              float("nan"), oracle, zeros, oracle.jordan,
                              M.route)
    zeros = phi_zeros(model)
    resid = matched_max_distance(oracle.eigenvalues, zeros.zeros)
    hd = hausdorff_distance(oracle.eigenvalues, zeros.zeros)
    return SpectrumResult(oracle.eigenvalues, zeros.zeros, resid, hd,
                          oracle, zeros, oracle.jordan, M.route)


# ---------------------------------------------------------------------------
# Eigensystem, biorthogonality, chains
# ---------------------------------------------------------------------------

def strong_real_type(data, result: SpectrumResult = None):
    """Real-type data whose spectrum is entirely real (within tolerance)."""
    from .data import classify_real_type

    if not classify_real_type(data):
        return False
    if result is None:
        result = compute_spectrum(data)
    eigs = result.eigenvalues
    scale = max(1.0, float(np.max(np.abs(eigs)))) if eigs.size else 1.0
    return bool(np.max(np.abs(eigs.imag)) <= 1e-9 * scale)


@dataclass(frozen=True)
class Eigensystem:
    eigenvalues: np.ndarray
    h_samples: np.ndarray            # rows: h_lam at atoms
    right_vectors: np.ndarray        # columns: eigenvectors of L
    left_vectors: np.ndarray         # columns: eigenvectors of L*, normalized
    model_vectors: np.ndarray        # columns: a_n/(t_n - lam)
    collinearity: np.ndarray         # 1 - |<v, w>| per eigenvalue
    gram: np.ndarray                 # <h_j, k_k> discrete Clark inner product
    gram_offdiag: float
    weights: np.ndarray              # mu


def eigensystem(data: RankOneData, model=None, matrix=None):
    """Eigenfunctions, matrix eigenvectors and the biorthogonal Gram data.

    Requires a simple spectrum; multiple eigenvalues raise ChainRequired and
    are handled by root_chain.
    """
    if model is None:
        model = build_model(data)
    if matrix is None:
        matrix = build_matrix(data)
    zeros = phi_zeros(model)
    if np.any(zeros.multiplicities > 1):
        raise ChainRequired("spectrum has multiple eigenvalues")
    lams = zeros.zeros
    t, mu, nu = data.t, data.mu, data.nu

    from scipy.optimize import linear_sum_assignment
    evals, evecs = np.linalg.eig(matrix.L)
    rows, cols = linear_sum_assignment(np.abs(lams[:, None] - evals))
    evecs = evecs[:, cols[np.argsort(rows)]]

    diff = t - lams[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):   # checked below
        # h_lam(t_n) = phi(t_n)/(t_n - lam), with the limit phi'(t_n) at lam
        h_samples = difference_quotient(model.phi(t), diff, t,
                                        lambda: model.phi_prime(t))
        # row j: the model vector a_n/(t_n - lam_j) and the left eigenvector
        # b_n/(t_n - conj(lam_j)) of the weighted adjoint, normalized so
        # that <f_j, g_j>_mu = 1
        f = data.a / diff
        g = data.b / (t - np.conj(lams)[:, None])
    # an eigenvalue on an atom t_n (which a_n = 0 allows) makes them 0/0
    for stage, vals in (("model vector a_n/(t_n - lam)", f),
                        ("left vector b_n/(t_n - conj(lam))", g),
                        ("eigenfunction sample h_lam(t_n)", h_samples)):
        bad = np.argwhere(~np.isfinite(vals))
        if bad.size:
            j, n = bad[0]
            raise NotBiorthogonal(
                f"eigensystem: {stage} is not finite at eigenvalue "
                f"{lams[j]} on atom {n} (t_n = {t[n]}, a_n = {data.a[n]})")
    # row by row: numpy's complex multiply of whole matrices can round
    # otherwise than that of their rows, and the sum can add in another order
    ip = np.array([np.sum(fj * np.conj(gj) * mu) for fj, gj in zip(f, g)])
    small = cabs(ip) < 1e-13 * (np.linalg.norm(f, axis=1)
                                * np.linalg.norm(g, axis=1) + 1e-300)
    if np.any(small):
        raise NotBiorthogonal(
            f"pair at eigenvalue {lams[small][0]} degenerate")
    g = g / np.conj(ip)[:, None]
    v, w = evecs.T * np.sqrt(mu), f * np.sqrt(mu)
    collin = 1.0 - cabs(np.sum(np.conj(v) * w, axis=1)) / (
        np.linalg.norm(v, axis=1) * np.linalg.norm(w, axis=1))

    # gram[j, k] = pi sum_n h_j(t_n) conj(k_k(t_n)) nu_n, summed over n
    kernels = np.conj(kernel_k(model, lams[:, None], t))
    gram = np.pi * kahan_sum(h_samples[:, n, None] * kernels[:, n] * nu[n]
                             for n in range(t.size))
    d = np.sqrt(np.abs(np.diag(gram)))
    off = gram / np.outer(d, d)
    np.fill_diagonal(off, 0.0)
    gram_offdiag = float(np.max(np.abs(off))) if lams.size > 1 else 0.0

    return Eigensystem(lams, h_samples, evecs, g.T, f.T, collin,
                       gram, gram_offdiag, mu)


@dataclass(frozen=True)
class RootChainReport:
    lam: complex                     # the zero, Newton-polished
    order: int
    constants: np.ndarray            # c with T h_l = z h_l - c phi
    membership_residuals: np.ndarray # beta^(j)(lam), j < order, relative
    chain_residuals: np.ndarray      # (T - lam) h_l vs h_{l-1}, relative


def _taylor_coefficient(beta: CauchyRepresentation, z, j):
    """beta^(j)(z)/j! as a compensated sum, and the sum of its terms' moduli.

    For j >= 1 the terms are w_n/(t_n - z)^(j+1); for j = 0 they are those
    of beta(z) itself, its constant and the w_n (1/(t_n - z) - 1/t_n).
    """
    t, w = beta.poles, beta.residues
    if j == 0:
        terms = np.append(w * (1.0 / (t - z) - 1.0 / t), beta.constant)
    else:
        terms = w / (t - z) ** (j + 1)
    return kahan_sum(terms), float(np.sum(np.abs(terms)))


def root_chain(model: ModelPair, lam, k):
    """Verify the chain h_l = phi/(z - lam)^l, l = 1..k, under the model action.

    lam is a zero of order >= k exactly when beta^(j)(lam) = 0 for j < k.
    beta^(k-1) has a simple zero there, so lam is first polished by Newton
    on it; the membership residuals are then the Taylor coefficients
    beta^(j)(lam)/j!, each over the sum of its terms' moduli.  Given
    membership, beta(z)/(z - lam)^l = g_l(z) = sum_n w_n (t_n - lam)^-l
    /(t_n - z) exactly, and h_l = g_l (1 + Theta)/2.  The coupling constant
    of T h_l = z h_l - c phi is c_l = -s_l/beta(infinity) with
    s_l = sum_n w_n (t_n - lam)^-l: 1 at l = 1 and 0 above.  The chain
    residual of (T - lam) h_l = h_{l-1} (= 0 at l = 1) is checked at sample
    points off the real axis, relative to the sum of the terms' moduli.
    """
    beta, t = model.beta, model.t
    w = beta.residues
    c_inf = _beta_infinity(beta)
    if k > t.size:
        raise OrderTooHigh(f"requested order {k} exceeds degree {t.size}")
    lam = complex(lam)
    for _ in range(60):
        f = _taylor_coefficient(beta, lam, k - 1)[0]
        fp = _taylor_coefficient(beta, lam, k)[0]
        # beta^(k-1)/beta^(k) = (f/(k-1)!)/(fp/k!)
        step = f / (k * fp) if fp != 0 else 0.0
        if not np.isfinite(step):
            break
        lam -= step
        if abs(step) <= 1e-16 * (1.0 + abs(lam)):
            break
    mem = []
    for j in range(k):
        value, size = _taylor_coefficient(beta, lam, j)
        mem.append(abs(value) / size)
    if max(mem) > 1e-6:
        raise OrderTooHigh(
            f"lam={lam} is not a zero of order >= {k}: residuals {mem}")
    inverse = 1.0 / (t - lam)
    constants = np.array([-kahan_sum(w * inverse ** ell) / c_inf
                          for ell in range(1, k + 1)])
    chain = np.zeros(k)
    probes = np.array(_probe_points(t))
    for z, half, phi in zip(probes, model.one_plus_theta(probes) / 2.0,
                            model.phi(probes)):
        prev = 0.0
        for ell in range(1, k + 1):
            h = kahan_sum(w * inverse ** ell / (t - z)) * half
            terms = ((z - lam) * h, -constants[ell - 1] * phi, -prev)
            chain[ell - 1] = max(chain[ell - 1],
                                 abs(sum(terms)) / sum(map(abs, terms)))
            prev = h
    return RootChainReport(lam, k, constants, np.asarray(mem), chain)


# ---------------------------------------------------------------------------
# Adjoints, gauge, generating element
# ---------------------------------------------------------------------------

def weighted_adjoint(mat, mu):
    """Adjoint with respect to <x,y> = sum x conj(y) mu."""
    w = np.asarray(mu, dtype=float)
    return (mat.conj().T * w[None, :]) / w[:, None]


def adjoint_data(data):
    """Adjoint triple (b, a, conj(kappa)); requires the starred condition."""
    report = validate(data)
    if not report.condition_A_star:
        raise AdmissibilityError("starred admissibility condition fails")
    return data.adjoint()


def adjoint_residual(data):
    """|| L(adjoint data) - (weighted adjoint of L(data)) || / ||L||."""
    m = build_matrix(data)
    m_star = build_matrix(adjoint_data(data))
    expected = weighted_adjoint(m.L, data.mu)
    return float(np.linalg.norm(m_star.L - expected)
                 / max(1.0, np.linalg.norm(m.L)))


def gauge_check(data, tau1, tau2):
    """Residual of L(a, b, kappa) vs L(a tau1^{-1}, b tau2, tau2* kappa tau1^{-1})."""
    if isinstance(data, RankOneData):
        t1, t2 = complex(tau1), complex(tau2)
        if abs(t1) < 1e-14 or abs(t2) < 1e-14:
            raise SingularGauge("gauge factors must be invertible")
        other = RankOneData(data.base, data.a / t1, data.b * t2,
                            np.conj(t2) * data.kappa / t1)
    else:
        t1 = np.atleast_2d(np.asarray(tau1, dtype=complex))
        t2 = np.atleast_2d(np.asarray(tau2, dtype=complex))
        for m in (t1, t2):
            s = np.linalg.svd(m, compute_uv=False)
            if s[-1] < 1e-12 * (1.0 + s[0]):
                raise SingularGauge("gauge factors must be invertible")
        t1inv = np.linalg.inv(t1)
        other = RankNData(data.base, data.a @ t1inv, data.b @ t2,
                          t2.conj().T @ data.kappa @ t1inv)
    L1 = build_matrix(data).L
    L2 = build_matrix(other).L
    return float(np.linalg.norm(L1 - L2) / max(1.0, np.linalg.norm(L1)))


@dataclass(frozen=True)
class GeneratingFunction:
    lambdas: np.ndarray
    lambda0: complex
    coefficients: np.ndarray         # Clark-basis coefficients of g
    condition: float
    model: ModelPair = field(repr=False)

    def g(self, z):
        """g at one point or at every point of an array."""
        terms = self.coefficients * _clark_kernels(self.model, z)
        return kahan_sum(np.moveaxis(terms, -1, 0))

    def __call__(self, z):
        return cmul(np.asarray(z) - self.lambda0, self.g(z))

    def max_residual_on_lambdas(self):
        scale = np.max(cabs(self(np.array(_probe_points(self.lambdas)))))
        return float(np.max(cabs(self(self.lambdas))) / scale)


def _clark_kernels(model: ModelPair, z):
    """Clark basis kernels k_{t_n}(z) = (1 + Theta(z))/(z - t_n), n last.

    z is a point or an array; at z = t_n the kernel takes its limit
    Theta'(t_n).
    """
    z = np.asarray(z, dtype=complex)[..., None]
    return difference_quotient(model.one_plus_theta(z), z - model.t, model.t,
                               lambda: model.theta_prime(z))


def _probe_points(lams):
    base = 1.0 + float(np.max(np.abs(lams)))
    return [base * 1j, -base + base * 1j, 2.0 * base + 0.5j * base]


def generating_function(model: ModelPair, lambdas, lambda0=None):
    """Unique-up-to-scale model-space element vanishing on Lambda \\ {lambda0}.

    The kernels at Lambda must be complete and minimal in the finite model
    space, i.e. |Lambda| equals the atom count and the interpolation system
    is nonsingular.  Returns phi_Lambda = (z - lambda0) g with g in the Clark
    basis of sigma_{-1}.
    """
    lams = np.asarray(lambdas, dtype=complex).ravel()
    n = model.t.size
    if lams.size != n:
        raise NotMinimal(f"need exactly {n} points, got {lams.size}")
    if lambda0 is None:
        lambda0 = lams[0]
    rest = lams[np.abs(lams - lambda0) > 0]
    if rest.size != n - 1:
        rest = np.delete(lams, int(np.argmin(np.abs(lams - lambda0))))
    if n == 1:
        coeffs = np.array([1.0 + 0.0j])
        cond = 1.0
    else:
        u, s, vh = np.linalg.svd(_clark_kernels(model, rest))
        if s[0] == 0 or s[-1] < 1e-12 * s[0]:
            raise NotMinimal("interpolation system is singular")
        coeffs = vh[-1].conj()
        cond = float(s[0] / s[-1])
    return GeneratingFunction(lams, complex(lambda0), coeffs, cond, model)
