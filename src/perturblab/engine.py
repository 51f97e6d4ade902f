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
from numpy.polynomial import polynomial as P

from .errors import (AdmissibilityError, ChainRequired, DegreeOverflow,
                     EigensolveFailure, NoInvertibleShift, NotMinimal,
                     OrderTooHigh, SingularGauge)
from .data import RankOneData, RankNData, validate
from .model import ModelPair, build_model, kernel_k
from ._numutil import (cluster_points, cmul, matched_max_distance,
                       hausdorff_distance, numerical_rank, poly_scale,
                       kahan_sum)

#: relative residual allowed for the algebraic-inverse identity
INVERSE_RTOL = 1e-10
#: singular values below this (relative) are zero in Jordan rank tests
JORDAN_RANK_RTOL = 1e-7
#: eigenvalue cluster radius, relative to the spectral scale
CLUSTER_RTOL = 1e-6


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


def _aberth_refine(model: ModelPair, roots, iterations=120):
    """Simultaneous root refinement on the stable evaluator.

    Monomial-basis companion roots degrade around degree ~100 for atoms
    spread over tens of units; Aberth-Ehrlich corrections driven by the
    partial-fraction log-derivative of the beta numerator recover them
    without ever forming big polynomial values.  With u = t_j - z for the
    atom nearest a root z, that numerator factors as
    (w_j + u B)(prod_{m != j} (t_m - z)) up to a constant, so its
    logarithmic derivative is (u B' - B)/(w_j + u B) + sum_{m != j} 1/(z - t_m).

    Each iteration is one Jacobi-style step over all roots at once (as in
    MPSolve, Bini & Robol 2014): every correction comes from the same
    iterate, through (roots x atoms) and (roots x roots) arrays, and the
    regular parts B, B' through CauchyRepresentation.regular_parts.  An
    iterate that coincides with an earlier one is nudged aside; iterates
    whose correction is not finite stay put.
    """
    roots = np.array(roots, dtype=complex)
    n = roots.size
    t, beta = model.t, model.beta
    scale = max(1.0, float(np.max(np.abs(t))))
    cols = np.arange(t.size - 1)
    off_diagonal = ~np.eye(n, dtype=bool)
    nudge = -1e-8 * scale * (1.0 + 1.0j)
    with np.errstate(all="ignore"):
        for _ in range(iterations):
            js = beta.nearest_poles(roots)
            u = t[js] - roots
            b, bp = beta.regular_parts(js, roots)
            others = t[cols + (cols >= js[:, None])]
            logd = ((cmul(u, bp) - b) / (beta.residues[js] + cmul(u, b))
                    + np.sum(1.0 / (roots[:, None] - others), axis=1))
            diffs = roots[:, None] - roots
            collided = np.any(np.tril(diffs == 0, -1), axis=1)
            diffs = diffs[off_diagonal].reshape(n, n - 1)
            denom = logd - np.sum(1.0 / diffs, axis=1)
            step = 1.0 / denom
            ok = (denom != 0) & np.isfinite(denom) & np.isfinite(step)
            steps = np.where(collided, nudge, np.where(ok, step, 0.0))
            roots = roots - steps
            if np.max(np.abs(steps)) < 1e-14 * scale:
                break
    return roots


def phi_zeros(model: ModelPair):
    """Zeros of the generating function, classified by half-plane.

    Roots of the numerator polynomial of beta via the balanced companion
    matrix, Newton-polished (Aberth-polished against the stable evaluator
    for larger truncations); this multiset is the full model spectrum:
    zeros of phi in the closed upper half-plane together with the
    conjugated zeros of phi_tilde from the lower one.
    """
    forms = model.rational()
    num = poly_scale(forms.num_beta)
    num = np.trim_zeros(num, "b")
    if num.size <= 1:
        empty = np.array([], dtype=complex)
        return PhiZeros(empty, empty, np.array([], dtype=int),
                        empty, empty, empty)
    # a genuine degree drop comes only from kappa meeting the pairing sum
    # (one order, two when the residues also sum to zero); anything steeper,
    # or a leading coefficient driven into the underflow range, means the
    # monomial basis collapsed at this atom spread and the companion route
    # would silently lose zeros
    min_degree = model.t.size if model.report.condition_A else model.t.size - 2
    if num.size - 1 < min_degree or abs(num[-1]) < 1e-250:
        raise DegreeOverflow(
            "numerator coefficients underflow at this atom spread; "
            "use contour counting instead of the companion route")
    roots = P.polyroots(num)
    dnum = P.polyder(num)
    for _ in range(3):
        vals = P.polyval(roots, num)
        dvals = P.polyval(roots, dnum)
        ok = np.abs(dvals) > 1e-14
        roots = np.where(ok, roots - vals / np.where(ok, dvals, 1.0), roots)
    if roots.size >= 16:
        roots = _aberth_refine(model, roots)
    scale = max(1.0, float(np.max(np.abs(roots))))
    centers, mults = cluster_points(roots, CLUSTER_RTOL * scale)
    im_tol = 1e-9 * scale
    upper = roots[roots.imag > im_tol]
    real = roots[np.abs(roots.imag) <= im_tol]
    lower = roots[roots.imag < -im_tol]
    return PhiZeros(roots, centers, mults, upper, real, lower)


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
                         empty, empty, empty)
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


def h_eval(model: ModelPair, lam, z):
    """Model eigenfunction h_lam(z) = phi(z)/(z - lam), with the limit at lam."""
    if abs(z - lam) < 1e-9 * (1.0 + abs(z)):
        return model.phi_prime(z)
    return model.phi(z) / (z - lam)


def clark_kernel_at_atom(model: ModelPair, n, z):
    """Clark basis kernel k_{t_n}(z) = (1 + Theta(z))/(z - t_n)."""
    tn = model.t[n]
    if abs(z - tn) < 1e-9 * (1.0 + abs(tn)):
        return model.theta_prime(z)
    return model.one_plus_theta(z) / (z - tn)


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
    n_atoms = t.size

    evals, evecs = np.linalg.eig(matrix.L)
    from scipy.optimize import linear_sum_assignment
    cost = np.abs(lams[:, None] - evals[None, :])
    rows, cols = linear_sum_assignment(cost)
    order = cols[np.argsort(rows)]
    evals = evals[order]
    evecs = evecs[:, order]

    h_samples = np.array([[h_eval(model, lam, tn) for tn in t]
                          for lam in lams])
    model_vecs = np.empty((n_atoms, lams.size), dtype=complex)
    for j, lam in enumerate(lams):
        model_vecs[:, j] = data.a / (t - lam)

    wsqrt = np.sqrt(mu)
    collin = np.empty(lams.size)
    for j in range(lams.size):
        v = evecs[:, j] * wsqrt
        w = model_vecs[:, j] * wsqrt
        collin[j] = 1.0 - abs(np.vdot(v, w)) / (
            np.linalg.norm(v) * np.linalg.norm(w))

    # left eigenvectors: eigenvectors of the weighted adjoint, matched to
    # conj(lam); closed form b_n/(t_n - conj(lam)); normalized so that
    # <f_j, g_j>_mu = 1.
    left = np.empty_like(model_vecs)
    for j, lam in enumerate(lams):
        left[:, j] = data.b / (t - np.conj(lam))
    for j in range(lams.size):
        ip = np.sum(model_vecs[:, j] * np.conj(left[:, j]) * mu)
        if abs(ip) < 1e-13 * (np.linalg.norm(model_vecs[:, j])
                              * np.linalg.norm(left[:, j]) + 1e-300):
            from .errors import NotBiorthogonal
            raise NotBiorthogonal(f"pair at eigenvalue {lams[j]} degenerate")
        left[:, j] = left[:, j] / np.conj(ip)

    gram = np.empty((lams.size, lams.size), dtype=complex)
    kernel_samples = [np.array([kernel_k(model, lam, tn) for tn in t])
                      for lam in lams]
    for j in range(lams.size):
        for k in range(lams.size):
            gram[j, k] = np.pi * kahan_sum(
                h_samples[j] * np.conj(kernel_samples[k]) * nu)
    d = np.sqrt(np.abs(np.diag(gram)))
    off = gram / np.outer(d, d)
    np.fill_diagonal(off, 0.0)
    gram_offdiag = float(np.max(np.abs(off))) if lams.size > 1 else 0.0

    return Eigensystem(lams, h_samples, evecs, left, model_vecs, collin,
                       gram, gram_offdiag, mu)


@dataclass(frozen=True)
class RootChainReport:
    lam: complex
    order: int
    constants: np.ndarray            # c with T h_l = z h_l - c phi
    membership_residuals: np.ndarray # division remainders, relative
    chain_residuals: np.ndarray      # (T - lam) h_l vs h_{l-1}, relative


def root_chain(model: ModelPair, lam, k):
    """Verify the chain h_l = phi/(z - lam)^l, l = 1..k, under the model action.

    (T - lam) h_l = h_{l-1} for l >= 2 and 0 for l = 1, with the coupling
    constant c = 1 at l = 1 and 0 above; all checked as rational identities
    on the numerator polynomials.
    """
    forms = model.rational()
    num = forms.phi_num
    n_deg = len(np.trim_zeros(num, "b")) - 1
    if k > n_deg:
        raise OrderTooHigh(f"requested order {k} exceeds degree {n_deg}")
    scale = np.max(np.abs(num))
    quotients = [num]
    mem = []
    for _ in range(k):
        q, rem = _synth_div(quotients[-1], lam)
        mem.append(abs(rem) / scale)
        quotients.append(q)
    if max(mem) > 1e-6:
        raise OrderTooHigh(
            f"lam={lam} is not a zero of order >= {k}: remainders {mem}")
    lead = num[n_deg]
    constants = []
    chain = []
    for ell in range(1, k + 1):
        q = quotients[ell]
        zq = P.polymulx(q)
        c = zq[n_deg] / lead if len(zq) > n_deg else 0.0
        constants.append(c)
        # (z - lam) h_l - c phi vs h_{l-1}: numerator difference
        resid_poly = P.polysub(P.polysub(P.polymul(q, [-lam, 1.0]),
                                         c * np.asarray(num)),
                               0.0 if ell == 1 else quotients[ell - 1])
        if ell == 1:
            # (T - lam) h_1 should vanish entirely
            resid_poly = P.polysub(P.polymul(q, [-lam, 1.0]), c * np.asarray(num))
        chain.append(float(np.max(np.abs(resid_poly))) / scale)
    return RootChainReport(lam, k, np.asarray(constants), np.asarray(mem),
                           np.asarray(chain))


def refine_multiple_root(coeffs, lam, order):
    """Polish a root of multiplicity `order` via the (order-1)-th derivative.

    Companion roots of a near-multiple cluster carry O(sqrt(eps)) error;
    the derivative polynomial has a simple, well-conditioned root at the
    same point, so Newton there recovers full precision.
    """
    d = np.asarray(coeffs, dtype=complex)
    for _ in range(order - 1):
        d = P.polyder(d)
    dp = P.polyder(d)
    lam = complex(lam)
    for _ in range(60):
        fv, fpv = P.polyval(lam, d), P.polyval(lam, dp)
        if fpv == 0:
            break
        step = fv / fpv
        lam -= step
        if abs(step) <= 1e-16 * (1.0 + abs(lam)):
            break
    return lam


def _synth_div(coeffs, lam):
    """Synthetic division by (z - lam); returns (quotient, remainder)."""
    c = np.trim_zeros(np.asarray(coeffs, dtype=complex), "b")
    if c.size == 0:
        return np.array([0.0 + 0.0j]), 0.0 + 0.0j
    q = np.zeros(max(c.size - 1, 1), dtype=complex)
    acc = 0.0 + 0.0j
    for i in range(c.size - 1, 0, -1):
        acc = c[i] + lam * acc
        q[i - 1] = acc
    rem = c[0] + lam * acc
    return q, rem


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
        vals = np.array([clark_kernel_at_atom(self.model, n, z)
                         for n in range(self.model.t.size)])
        return kahan_sum(self.coefficients * vals)

    def __call__(self, z):
        return (z - self.lambda0) * self.g(z)

    def max_residual_on_lambdas(self):
        scale = max(abs(self(x)) for x in _probe_points(self.lambdas))
        return max(abs(self(lam)) for lam in self.lambdas) / scale


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
    mat = np.empty((n - 1, n), dtype=complex)
    for j, lam in enumerate(rest):
        for k in range(n):
            mat[j, k] = clark_kernel_at_atom(model, k, lam)
    if n == 1:
        coeffs = np.array([1.0 + 0.0j])
        cond = 1.0
    else:
        u, s, vh = np.linalg.svd(mat)
        if s[0] == 0 or s[-1] < 1e-12 * s[0]:
            raise NotMinimal("interpolation system is singular")
        coeffs = vh[-1].conj()
        cond = float(s[0] / s[-1])
    return GeneratingFunction(lams, complex(lambda0), coeffs, cond, model)
