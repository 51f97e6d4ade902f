"""Matrix realization of the perturbed operator and its spectrum.

The perturbation acts on the weighted space l^2(mu) over the atoms, where the
unperturbed operator is A = diag(t_n) and adjoints are always taken in the
mu-weighted inner product <x, y> = sum x_n conj(y_n) mu_n.  The paper defines
the operator as the algebraic inverse of a bounded finite-rank perturbation
of A^{-1},

    L = (A^{-1} - (A^{-1} a) kappa^{-1} (b* A^{-1}))^{-1},

and the Sherman-Morrison-Woodbury identity gives it in closed form,

    L = A + a S^{-1} b*,    S = kappa - b* A^{-1} a,

where S is the coupling that admissibility keeps invertible (the report's
kappa_minus_omega).  build_matrix forms the closed form: one r x r solve and
one (N x r)(r x N) product, O(N^2 r) time and one N x N array.  The inverse
form is kept only as the reference MatrixRealization.inverse_residual checks
the closed form against.  When kappa is not invertible a deterministic scan
picks a real shift lambda with invertible shifted coupling
kappa(lambda) = kappa + lambda b*(A - lambda)^{-1} A^{-1} a, builds over
A - lambda and moves the spectrum back; the shifted data have the same S, so
both routes give the same L.

The spectrum is computed two independent ways: dense eigensolve of L (the
oracle) and zeros of the generating function phi (the model route).  For
finite data the eigenvalue multiset of L equals the root multiset of the
numerator polynomial of beta, combining the zeros of phi in the closed upper
half-plane with the conjugated zeros of phi_tilde.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (AdmissibilityError, BadParameters, ChainRequired,
                     EigensolveFailure, NoInvertibleShift, NotBiorthogonal,
                     SingularGauge)
from .data import RankOneData, RankNData, validate
from .model import (BATCH_ELEMENTS, CauchyRepresentation, ModelPair,
                    build_model)
from ._numutil import (cabs, cluster_points, cmul, distances,
                       matched_max_distance, hausdorff_distance,
                       numerical_rank, sum_by_abs_pole)

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
    from .data import DiscreteSpectralData

    base = DiscreteSpectralData(data.t - lam, data.mu)
    kl = kappa_shift(data, lam)
    if isinstance(data, RankOneData):
        return RankOneData(base, data.a.copy(), data.b.copy(), kl)
    return RankNData(base, data.a.copy(), data.b.copy(), kl)


def _inverse_form(data):
    """The paper's m = A^{-1} - (A^{-1} a) kappa^{-1} (b* A^{-1}), kappa
    invertible: L is its inverse."""
    a, b, kappa = _columns(data)
    ainv = 1.0 / data.t
    # b* A^{-1} y = b^H diag(mu/t) y  (weighted adjoint)
    bstar_ainv = b.conj().T * (data.mu * ainv)
    m = -((a * ainv[:, None]) @ np.linalg.inv(kappa) @ bstar_ainv)
    m[np.diag_indices(ainv.size)] += ainv
    return m


@dataclass(frozen=True)
class MatrixRealization:
    L: np.ndarray
    route: tuple  # ("direct",) or ("shift", lambda)
    data: object

    @property
    def inverse_residual(self):
        """||L m - I|| / (||L|| ||m||), m the inverse form of the data (on the
        shift route, of the shifted data, against L - lambda): the closed
        form checked against the paper's definition.  Formed when read, at
        the cost of an N x N inverse form and an N^3 product."""
        L, data = self.L, self.data
        if self.route[0] == "shift":
            lam = self.route[1]
            data = shifted_data(data, lam)
            L = L.copy()
            L[np.diag_indices(len(data.t))] -= lam
        m = _inverse_form(data)
        prod = L @ m
        prod[np.diag_indices(len(data.t))] -= 1.0
        return float(np.linalg.norm(prod)
                     / (np.linalg.norm(L) * np.linalg.norm(m)))


def _closed_form(data, s):
    """L = A + a S^{-1} b* = diag(t) + a S^{-1} b^H diag(mu), S the
    coupling kappa - b* A^{-1} a of the data: one N x N array."""
    a, b, _ = _columns(data)
    L = a @ np.linalg.solve(np.atleast_2d(s), b.conj().T * data.mu)
    L[np.diag_indices(len(data.t))] += data.t
    return L


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
    if route not in ("auto", "direct", "shift"):
        raise BadParameters(f"unknown route {route!r}")
    if route != "shift":
        if _kappa_invertible(_columns(data)[2]):
            L = _closed_form(data, report.kappa_minus_omega)
            return MatrixRealization(L, ("direct",), data)
        if route == "direct":
            raise AdmissibilityError("kappa not invertible; use the shift route")
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
            L = _closed_form(shifted, validate(shifted).kappa_minus_omega)
            L[np.diag_indices(len(t))] += lam
            return MatrixRealization(L, ("shift", float(lam)), data)
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


def _collisions(roots, moving):
    """Two flags for each moving root, roots[moving]: whether it equals a
    frozen root or an earlier moving one, and whether it equals any other
    root at all.  One stable sort by (real, imag) with every frozen root
    put first: equal roots are then neighbours, in index order."""
    frozen = np.delete(roots, moving)
    zs = np.concatenate((frozen, roots[moving]))
    order = np.lexsort((zs.imag, zs.real))
    ordered = zs[order]
    equal = ordered[1:] == ordered[:-1]
    earlier, later = np.zeros((2, zs.size), dtype=bool)
    earlier[order[1:]] = equal
    later[order[:-1]] = equal
    return earlier[frozen.size:], (earlier | later)[frozen.size:]


def numerator_log_derivative(rep: CauchyRepresentation, z):
    """N'/N at the points of a 1-d array z, N(z) = F(z) prod_m (t_m - z)
    the degree-N numerator of a Cauchy transform F = c + sum_n w_n/(t_n - z)
    (for beta, the characteristic polynomial of L up to a constant factor).

    With u = t_j - z for the pole nearest z and R the regular part of F at
    t_j, N = (w_j + u R) prod_{m != j} (t_m - z), so
    N'/N = (u R' - R)/(w_j + u R) + sum_{m != j} 1/(z - t_m): no polynomial
    value is formed, and the only singularities are the zeros of N, none at
    the poles.  Callers choose how floating-point errors are handled.
    """
    js = rep.nearest_poles(z)
    u = rep.poles[js] - z
    r, rp = rep.regular_parts(js, z)
    return ((cmul(u, rp) - r) / (rep.residues[js] + cmul(u, r))
            + _sum_inverse_differences(z, rep.poles, js))


def _aberth_refine(rep: CauchyRepresentation, roots,
                   budget=ABERTH_ITERATIONS):
    """Simultaneous Aberth-Ehrlich refinement of the zeros of a Cauchy
    transform F(z) = c + sum_n w_n/(t_n - z), c = F(infinity) != 0.

    F has exactly N zeros, those of the degree-N numerator
    F(z) prod_m (t_m - z), whose logarithmic derivative
    numerator_log_derivative forms without any polynomial value.  Each
    iteration is one Jacobi-style step over the roots still moving (as in
    MPSolve, Bini & Fiorentino 2000, Bini & Robol 2014), through
    (moving x poles) and (moving x all roots) sums and one
    rep.regular_parts call on the moving roots only.  A moving iterate equal
    to a frozen root or to an earlier moving one is nudged aside; one whose
    correction is not finite takes a zero step.  A root freezes, keeping its
    value, after the first step that moves it by less than
    1e-14 max(1, max|t|, |z_k|), unless it shared its value with another
    root in that step (the first of equal iterates is not nudged, but the
    1/0 in its sum over the roots makes its step zero).  The refinement
    stops once every root is frozen, or after budget steps.  Returns the
    roots, the steps taken and whether every root froze (False when the
    budget ran out first).
    """
    roots = np.array(roots, dtype=complex)
    moving = np.arange(roots.size)
    t = rep.poles
    scale = max(1.0, float(np.max(np.abs(t))))
    nudge = -1e-8 * scale * (1.0 + 1.0j)
    with np.errstate(all="ignore"):
        for iterations in range(1, budget + 1):
            z = roots[moving]
            logd = numerator_log_derivative(rep, z)
            collided, shared = _collisions(roots, moving)
            denom = logd - _sum_inverse_differences(z, roots, moving)
            step = 1.0 / denom
            ok = (denom != 0) & np.isfinite(denom) & np.isfinite(step)
            steps = np.where(collided, nudge, np.where(ok, step, 0.0))
            z = z - steps
            roots[moving] = z
            moving = moving[shared | ~(np.abs(steps)
                                       < 1e-14 * np.maximum(scale, np.abs(z)))]
            if moving.size == 0:
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
        seeds = t + w / rep.regular_parts(np.arange(t.size), t,
                                          derivatives=False)[0]
    roots, iterations, stopped = _aberth_refine(rep, seeds,
                                                FIRST_ORDER_ITERATIONS)
    seeding = "first_order"
    if not (stopped and np.all(np.isfinite(seeds))
            and np.all(np.isfinite(roots))
            and not np.any(_collisions(roots, np.arange(roots.size))[0])):
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
    route: tuple


def compute_spectrum(data, route="auto"):
    """Oracle and model spectra, their optimal matching distance
    (match_residual, from matched_max_distance) and their Hausdorff
    distance, both from one matrix of distances.

    The model route applies to rank-one data; rank-n results carry the
    oracle spectrum only (match_residual is nan).
    """
    M = build_matrix(data, route=route)
    oracle = oracle_spectrum(M)
    if not isinstance(data, RankOneData):
        empty = np.array([], dtype=complex)
        zeros = PhiZeros(empty, empty, np.array([], dtype=int),
                         empty, empty, empty, "none", 0)
        return SpectrumResult(oracle.eigenvalues, empty, float("nan"),
                              float("nan"), oracle, zeros, M.route)
    zeros = phi_zeros(build_model(data))
    dist = distances(oracle.eigenvalues, zeros.zeros)
    return SpectrumResult(oracle.eigenvalues, zeros.zeros,
                          matched_max_distance(dist), hausdorff_distance(dist),
                          oracle, zeros, M.route)


# ---------------------------------------------------------------------------
# Eigensystem and biorthogonality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Eigensystem:
    eigenvalues: np.ndarray
    left_vectors: np.ndarray         # columns: eigenvectors of L*, normalized
    model_vectors: np.ndarray        # columns: a_n/(t_n - lam)
    weights: np.ndarray              # mu


def eigensystem(data: RankOneData):
    """The eigenvalues of L, the zeros of beta from phi_zeros, with the
    eigenvectors of L and of its weighted adjoint L* in closed form: the
    model vector f = a_n/(t_n - lam) and the left vector
    g = b_n/(t_n - conj(lam)), normalized so that <f, g>_mu = 1.

    Requires a simple spectrum: a multiple model zero raises ChainRequired,
    which ends a command with exit code 4.
    """
    zeros = phi_zeros(build_model(data))
    if np.any(zeros.multiplicities > 1):
        raise ChainRequired("spectrum has multiple eigenvalues")
    lams = zeros.zeros
    t, mu = data.t, data.mu
    with np.errstate(divide="ignore", invalid="ignore"):   # checked below
        # row j: the model vector and the left vector of eigenvalue lam_j
        f = data.a / (t - lams[:, None])
        g = data.b / (t - np.conj(lams)[:, None])
    # an eigenvalue on an atom t_n (which a_n = 0 allows) makes them 0/0
    for stage, vals in (("model vector a_n/(t_n - lam)", f),
                        ("left vector b_n/(t_n - conj(lam))", g)):
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
    return Eigensystem(lams, g.T, f.T, mu)


# ---------------------------------------------------------------------------
# Adjoints and gauge
# ---------------------------------------------------------------------------

def adjoint_data(data):
    """Adjoint triple (b, a, conj(kappa)); requires the starred condition."""
    report = validate(data)
    if not report.condition_A_star:
        raise AdmissibilityError("starred admissibility condition fails")
    return data.adjoint()


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
