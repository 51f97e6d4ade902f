"""Completeness and synthesis diagnostics on finite data.

Everything here is a hypothesis check on finite or truncated data: growth
envelopes of the generating function along the imaginary axis, integrability
tests, invertibility of the weak-perturbation matrices, point-mass detection
for the boundary parameter, synthesis-defect metrics over partitions of the
eigensystem, and argument-principle zero counting in rectangles.  None of
these decide infinite-dimensional completeness; they quantify the finite
identities that completeness arguments consume.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (BadParameters, ContourTooClose, DivergentNearRealZero,
                     NotBiorthogonal)
from .data import omega_matrix
from .model import (BATCH_ELEMENTS, ModelPair, lebesgue_integral,
                    unimodular)
from .engine import Eigensystem, numerator_log_derivative, phi_zeros
from ._numutil import adaptive_panel, cabs


# ---------------------------------------------------------------------------
# Growth along the imaginary axis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthProfile:
    y_grid: np.ndarray
    phi_values: np.ndarray
    beta_values: np.ndarray
    phi_tilde_values: np.ndarray
    fitted_exponent: float
    lower_envelope_c: float          # min over y >= 10 of y |phi(iy)|
    envelope_argmin: float
    top_decade_ratio: float          # max/min of |phi(iy)| over top decade
    exact_exponent: int              # exponent of |phi| at infinity
    inner_margin_c: float            # min (1-|Theta(iy)|)(y^2+1)/y over y > 1


def growth_profile(model: ModelPair, y_max=1e4, n_points=200):
    """Sample |phi|, |beta|, |phi_tilde| on i[1, y_max] and fit the decay.

    The envelope constant is min over the grid (restricted to y >= 10) of
    y |phi(iy)|; the exponent is a least-squares fit of log|phi| against
    log y over the top decade of the grid, and the exact asymptotic exponent
    is read off the partial-fraction data (ModelPair.exponent_at_infinity).
    y_max must be finite and at least 10, and n_points at least 2; the
    grid's top, which may round a few ulps above y_max, must not exceed
    sqrt of the largest float (1.34e154), where the margins' y^2 overflows.
    """
    if not (np.isfinite(y_max) and y_max >= 10.0 and n_points >= 2):
        raise BadParameters(f"need a finite y_max >= 10 and n_points >= 2, "
                            f"got {y_max} and {n_points}")
    y = np.logspace(0.0, np.log10(y_max), n_points)
    if y[-1] > np.sqrt(np.finfo(float).max):
        raise BadParameters(f"y_max {y_max} is too large: y^2 overflows "
                            f"above 1.34e154")
    phi = cabs(model.phi(1j * y))
    beta = cabs(model.beta(1j * y))
    phit = cabs(model.phi_tilde(1j * y))
    top = y >= y_max / 10.0
    mask = top & (phi > 0)
    slope = (np.polyfit(np.log(y[mask]), np.log(phi[mask]), 1)[0]
             if np.count_nonzero(mask) >= 2 else float("nan"))
    env_mask = y >= 10.0
    env_vals = y[env_mask] * phi[env_mask]
    i_min = int(np.argmin(env_vals))
    ratio = float(np.max(phi[top]) / np.min(phi[top])) if np.min(phi[top]) > 0 \
        else float("inf")
    exact = model.exponent_at_infinity
    # exhibited constant in 1 - |Theta(z)| >= c Im z/(|z|^2 + 1), sampled
    up = y[y > 1.0]
    margins = (1.0 - cabs(model.theta(1j * up))) * (up * up + 1.0) / up
    inner_margin = float(np.min(margins)) if up.size else float("nan")
    return GrowthProfile(y, phi, beta, phit, float(slope),
                         float(env_vals[i_min]), float(y[env_mask][i_min]),
                         ratio, exact, inner_margin)


# ---------------------------------------------------------------------------
# Integrability test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegralReport:
    value: float
    tail_estimate: float
    convergent: bool
    decay_exponent: float            # integrand ~ |t|^decay_exponent at infinity


def integral_test(model: ModelPair, n_weight, tau, eta):
    """Quadrature of 1/(|phi(t + i eta)|^tau (1 + |t|)^n_weight) over the line.

    eta = 0 requires phi to have no real zeros; otherwise the integrand has a
    non-integrable singularity and DivergentNearRealZero is raised.  A
    non-finite n_weight, tau or eta raises BadParameters.
    """
    if not np.all(np.isfinite([n_weight, tau, eta])):
        raise BadParameters(f"integral_test needs finite n_weight, tau and "
                            f"eta, got {n_weight}, {tau}, {eta}")
    zeros = phi_zeros(model)
    if eta == 0.0 and zeros.real.size > 0:
        raise DivergentNearRealZero(
            f"phi has real zeros at {zeros.real}; integrand not integrable")
    drop = -model.exponent_at_infinity
    decay = tau * drop - n_weight          # integrand ~ |t|^decay
    if decay >= -1.0:
        return IntegralReport(float("inf"), float("inf"), False, float(decay))

    def integrand(x):
        return (cabs(model.phi(x + 1j * eta)) ** -tau
                * (1.0 + np.abs(x)) ** -n_weight)

    # 0.0: the kink of (1 + |x|)^-n_weight
    value, tail = lebesgue_integral(
        integrand, np.concatenate([model.t, zeros.zeros.real, [0.0]]))
    return IntegralReport(float(value), float(tail), True, float(decay))


# ---------------------------------------------------------------------------
# Weak-perturbation (Macaev-type) matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MacaevReport:
    picture: str
    matrix: np.ndarray
    smallest_singular: float
    invertible: bool


def macaev_check(data, picture="singular"):
    """Invertibility check of kappa - omega (singular) or I + omega (bounded),
    omega = b* A^{-1} a (data.omega_matrix)."""
    omega = omega_matrix(data)
    if picture == "singular":
        mat = np.atleast_2d(data.kappa) - omega
    elif picture == "bounded":
        mat = np.eye(omega.shape[0]) + omega
    else:
        raise BadParameters(f"unknown picture {picture!r}")
    s = np.linalg.svd(mat, compute_uv=False)
    invertible = bool(s[-1] > 1e-12 * (1.0 + s[0]))
    return MacaevReport(picture, mat, float(s[-1]), invertible)


# ---------------------------------------------------------------------------
# Point mass detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MassReport:
    zeta: complex
    p_est: float                     # stabilized y|zeta - Theta(iy)|/2
    has_mass: bool
    herglotz_p: float                # mass in the Herglotz representation
    grid_values: np.ndarray


def mass_detect(model: ModelPair, zeta):
    """Detect the point mass of sigma_zeta at infinity.

    For rational Theta the limit y (zeta - Theta(iy)) is exact from the
    expansion at infinity: the unique massy parameter is Theta(inf), where
    y|zeta - Theta(iy)|/2 stabilizes to S0/|i + rho(inf)|^2 with
    S0 = sum nu_n; the Herglotz mass itself is the reciprocal
    |i + rho(inf)|^2 / S0.  For all other unimodular zeta the sampled
    quantity grows linearly and has_mass is False.  A zeta that is not
    unimodular raises BadParameters.
    """
    zeta = unimodular(zeta)
    y = np.logspace(1, 6, 26)
    vals = y * cabs(zeta - model.theta(1j * y)) / 2.0
    d_inf = model.delta_infinity
    s0 = float(np.sum(model.nu))
    has_mass = abs(zeta - model.theta_infinity) <= 1e-9
    if has_mass:
        p_est = s0 / abs(1j + d_inf) ** 2
        herglotz_p = abs(1j + d_inf) ** 2 / s0
    else:
        p_est = float(vals[-1])
        herglotz_p = 0.0
    return MassReport(zeta, float(p_est), has_mass, float(herglotz_p), vals)


# ---------------------------------------------------------------------------
# Synthesis defect over partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthesisDefect:
    partition: tuple                 # (J1, J2) as tuples of indices
    sigma_min: float
    gram_condition: float


def _worst_defect(eigsys: Eigensystem, total, rows_for):
    """Worst defect over partitions 0..total-1, and total; rows_for(start,
    stop) gives them as rows of indices into [f | g] (J1, then n + J2).

    The screen (see enumerate_partitions): a partition's A^H A is the
    principal submatrix H_P of the Gram H of the unit columns, and once a
    running worst s* exists a block is skipped when Cholesky of every
    H_P - tau I in it completes, tau = (s*(1 + 1e-6) + delta)^2 + delta
    with delta = 16 (n + 1)^3 eps for the rounding of H, the Cholesky and
    the SVD (||H_P|| <= n).  Non-finite columns turn the screen off, since
    LAPACK's Cholesky need not reject a NaN.
    """
    x = (np.concatenate([eigsys.model_vectors.T, eigsys.left_vectors.T])
         * np.sqrt(eigsys.weights))
    norms = np.sqrt(np.sum(x.real * x.real + x.imag * x.imag, axis=1))
    unit = x / np.where(norms == 0, 1.0, norms)[:, None]
    n = eigsys.eigenvalues.size
    step = max(1, BATCH_ELEMENTS // (n * x.shape[1]))
    # a single block (synthesis_defect's batch of one) has nothing to screen
    gram = (np.conj(unit) @ unit.T
            if total > step and np.all(np.isfinite(unit)) else None)
    delta = 16.0 * (n + 1) ** 3 * np.finfo(float).eps
    row = s = shifted = None
    for start in range(0, total, step):
        rows = rows_for(start, min(start + step, total))
        if np.any(norms[rows] == 0):
            raise NotBiorthogonal("zero column in the mixed system")
        if shifted is not None:
            try:
                np.linalg.cholesky(shifted[rows[:, :, None], rows[:, None, :]])
                continue
            except np.linalg.LinAlgError:
                pass
        block = np.linalg.svd(unit[rows].transpose(0, 2, 1), compute_uv=False)
        i = np.argmin(block[:, -1])
        if row is None or block[i, -1] < s[-1]:
            row, s = rows[i], block[i]
            if gram is not None:
                tau = (s[-1] * (1.0 + 1e-6) + delta) ** 2 + delta
                shifted = gram - tau * np.eye(2 * n)
    partition = (tuple(int(j) for j in row if j < n),
                 tuple(int(j) - n for j in row if j >= n))
    cond = float(s[0] / s[-1]) if s[-1] > 0 else float("inf")
    return SynthesisDefect(partition, float(s[-1]), cond), total


def synthesis_defect(eigsys: Eigensystem, partition):
    """Smallest singular value of the normalized mixed system {f}_J1 u {g}_J2,
    columns in the given order: a batch of one through the sweep's kernel."""
    j1, j2 = (tuple(int(j) for j in side) for side in partition)
    n = eigsys.eigenvalues.size
    if sorted(j1 + j2) != list(range(n)):
        raise BadParameters(f"partition must split 0..{n - 1}, got {partition}")
    row = np.array([j1 + tuple(n + j for j in j2)])
    return _worst_defect(eigsys, 1, lambda *_: row)[0]


def enumerate_partitions(eigsys: Eigensystem, budget=10000, seed=0):
    """Worst synthesis defect over partitions, and the number checked.

    Exhaustive for n <= 12 (2^n partitions); beyond that, `budget`
    partitions, each n random bits from a counter-based generator seeded
    with `seed`.  Bit j of a partition puts index j into J2.  One kernel,
    shared with synthesis_defect, normalizes the 2n columns [f | g] sqrt(mu)
    once (norms summed in real arithmetic, independent of column position)
    and takes one batched SVD per block of at most BATCH_ELEMENTS entries;
    bits are made block by block, so the whole table never exists.  After
    the first block, one batched Cholesky of the blocks' shifted Gram
    submatrices screens each block: where it completes, no partition in
    the block can go below the running worst (a completed floating-point
    Cholesky certifies positive definiteness up to its backward error:
    Demmel, LAPACK Working Note 14, 1989; Higham, Accuracy and Stability
    of Numerical Algorithms, Thm 10.7), and the block's SVD is skipped.
    The shift's margin covers the rounding of the Gram, the Cholesky and
    the SVD, so the report is the one an SVD of every partition gives.
    """
    n = eigsys.eigenvalues.size
    if n > 12 and budget < 1:
        raise BadParameters(f"budget must be positive, got {budget}")
    rng, index = np.random.Generator(np.random.Philox(seed)), np.arange(n)

    def rows_for(start, stop):
        bits = ((np.arange(start, stop)[:, None] >> index) & 1 if n <= 12
                else rng.integers(0, 2, size=(stop - start, n)))
        return np.sort(index + n * bits, axis=1)        # J1, then n + J2

    return _worst_defect(eigsys, 2 ** n if n <= 12 else budget, rows_for)


# ---------------------------------------------------------------------------
# Argument-principle window check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowReport:
    count: int
    winding_value: float
    boundary_min_abs_phi: float
    nudge: float
    poles_added_back: int            # always 0: no poles enter the count


def volterra_window_check(model: ModelPair, rectangle):
    """Count the eigenvalues of L, the zeros of beta's numerator
    N(z) = beta(z) prod_m (t_m - z), inside a rectangle; in the closed upper
    half-plane they are the zeros of phi.

    Argument-principle integral of N'/N (engine.numerator_log_derivative)
    over the rectangle boundary.  N'/N is singular only at the eigenvalues,
    so the poles of phi below the axis play no part and none is solved
    for: the winding number is the count, and poles_added_back is always
    0.  A bottom edge on the real axis is nudged below it by
    min(cap, 1e-6 max(1, max|t|)), cap = min(1e-3 max(1, x2 - x1), 0.2 y2),
    so real eigenvalues are enclosed; the report's nudge is that distance,
    0.0 when y1 != 0.  Each edge is one quadrature panel, except that a
    bottom edge within cap of the axis is split at the atoms, and panels
    are bisected only where two levels disagree.  The winding integral is
    computed at most 8 times, the quadrature tolerance divided by 4 each
    time, until it is within 0.05 of an integer with an error estimate of
    at most 0.02; a certified distance above 0.1, or an N'/N not finite on
    the contour, raises ContourTooClose.  A degenerate or non-finite
    rectangle raises BadParameters.
    """
    x1, x2, y1, y2 = (float(v) for v in rectangle)
    if not (np.all(np.isfinite((x1, x2, y1, y2)))
            and x1 < x2 and max(y1, 0.0) < y2):
        raise BadParameters(
            f"degenerate rectangle {rectangle}: need x1 < x2 and "
            "max(y1, 0) < y2, all finite")
    cap = min(1e-3 * max(1.0, x2 - x1), 0.2 * y2)
    nudge = (min(cap, 1e-6 * max(1.0, float(np.max(np.abs(model.t)))))
             if y1 == 0.0 else 0.0)
    y_bot = y1 - nudge
    corners = [complex(x1, y_bot), complex(x2, y_bot),
               complex(x2, y2), complex(x1, y2)]

    # panel breakpoints: atoms projected onto a bottom edge near the axis
    atoms_in = sorted(t for t in model.t if x1 < t < x2)

    def edge_panels(a, b):
        pts = [a]
        if a.imag == b.imag and abs(a.imag) <= cap:
            for t in (atoms_in if a.real < b.real else atoms_in[::-1]):
                pts.append(complex(t, a.imag))
        pts.append(b)
        return list(zip(pts[:-1], pts[1:]))

    def integrand(z):
        # no warnings: an eigenvalue on the contour makes a value that is
        # not finite, which the check below reports, and where |z| nears
        # 1e308 the products with u = t_j - z overflow
        with np.errstate(all="ignore"):
            return numerator_log_derivative(model.beta, z)

    panels = [pan for a, b in zip(corners, corners[1:] + corners[:1])
              for pan in edge_panels(a, b)]
    tol = 0.05 * 2.0 * np.pi
    for _ in range(8):
        total, err = 0.0 + 0.0j, 0.0
        for val, e in adaptive_panel(integrand, panels,
                                     tol / max(len(panels), 1)):
            total += val
            err += e
        winding = (total / (2j * np.pi)).real
        if not np.isfinite(winding):
            raise ContourTooClose(
                "the log-derivative of beta's numerator is not finite on "
                "the contour")
        err /= 2.0 * np.pi
        if abs(winding - round(winding)) <= 0.05 and err <= 0.02:
            break
        tol /= 4.0
    if abs(winding - round(winding)) > 0.1:
        raise ContourTooClose(
            f"winding integral {winding} not certified near an integer")

    s = np.linspace(0.0, 1.0, 65)[:-1]
    bdry = cabs(model.phi(np.concatenate(
        [a + (b - a) * s for a, b in zip(corners, corners[1:] + corners[:1])])))
    return WindowReport(int(round(winding)), float(winding),
                        float(np.min(bdry)), float(nudge), 0)
