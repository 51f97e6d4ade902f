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
from .model import (BATCH_ELEMENTS, CauchyRepresentation, ModelPair,
                    lebesgue_integral)
from .engine import Eigensystem, phi_zeros, secular_zeros
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
    """
    y = np.logspace(0.0, np.log10(y_max), n_points)
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
    non-integrable singularity and DivergentNearRealZero is raised.
    """
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

    value, tail = lebesgue_integral(
        integrand, np.concatenate([model.t, zeros.zeros.real]))
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
    """Invertibility check of kappa - omega (singular) or I + omega (bounded)."""
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
    quantity grows linearly and has_mass is False.
    """
    zeta = complex(zeta)
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
    stop) gives them as rows of indices into [f | g] (J1, then n + J2)."""
    x = (np.concatenate([eigsys.model_vectors.T, eigsys.left_vectors.T])
         * np.sqrt(eigsys.weights))
    norms = np.sqrt(np.sum(x.real * x.real + x.imag * x.imag, axis=1))
    unit = x / np.where(norms == 0, 1.0, norms)[:, None]
    n = eigsys.eigenvalues.size
    step = max(1, BATCH_ELEMENTS // (n * x.shape[1]))
    row = s = None
    for start in range(0, total, step):
        rows = rows_for(start, min(start + step, total))
        if np.any(norms[rows] == 0):
            raise NotBiorthogonal("zero column in the mixed system")
        block = np.linalg.svd(unit[rows].transpose(0, 2, 1), compute_uv=False)
        i = np.argmin(block[:, -1])
        if row is None or block[i, -1] < s[-1]:
            row, s = rows[i], block[i]
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
    bits are made block by block, so the whole table never exists.
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

def _phi_poles(model: ModelPair):
    """Poles of phi: the N zeros of i + rho, in np.sort_complex order.

    i + rho is the Cauchy transform with the poles and weights of rho and
    the constant i + delta; at infinity it is i + rho(infinity) != 0, so
    engine.secular_zeros finds all N of them, one below each atom.
    """
    return secular_zeros(CauchyRepresentation(model.t, model.nu,
                                              1j + model.delta))[0]


@dataclass(frozen=True)
class WindowReport:
    count: int
    winding_value: float
    boundary_min_abs_phi: float
    nudge: float
    poles_added_back: int


def volterra_window_check(model: ModelPair, rectangle, nudge=None,
                          max_refine=8):
    """Count zeros of phi in a rectangle of the closed upper half-plane.

    Argument-principle integral of phi'/phi over the rectangle boundary; a
    bottom edge on the real axis is nudged slightly below it so real zeros
    are enclosed, with the nudge kept clear of the poles of phi in the lower
    half-plane.  The winding integral is refined by doubling the panel count
    until it is within 0.05 of an integer; a certified distance above 0.1,
    or a phi'/phi not finite on the contour, raises ContourTooClose.  A
    degenerate or non-finite rectangle raises BadParameters.
    """
    x1, x2, y1, y2 = (float(v) for v in rectangle)
    if not (np.all(np.isfinite((x1, x2, y1, y2)))
            and x1 < x2 and max(y1, 0.0) < y2):
        raise BadParameters(
            f"degenerate rectangle {rectangle}: need x1 < x2 and "
            "max(y1, 0) < y2, all finite")
    poles = _phi_poles(model)
    if nudge is None:
        # the smallest pole depth near the window (poles sit where
        # rho = -i, roughly a weight-depth below each atom)
        near = poles[(poles.real >= x1 - 1.0) & (poles.real <= x2 + 1.0)]
        depth = float(np.min(np.abs(near.imag))) if near.size else np.inf
        nudge = min(1e-3 * max(1.0, x2 - x1), 0.25 * depth, 0.2 * y2)
    y_bot = y1 - nudge if y1 == 0.0 else y1
    corners = [complex(x1, y_bot), complex(x2, y_bot),
               complex(x2, y2), complex(x1, y2)]

    # panel breakpoints: atoms projected onto the horizontal edges
    atoms_in = sorted(t for t in model.t if x1 < t < x2)

    def edge_panels(a, b, splits_per_seg):
        pts = [a]
        if a.imag == b.imag and abs(a.imag) <= max(nudge, 1e-12) + 1e-15:
            for t in (atoms_in if a.real < b.real else atoms_in[::-1]):
                pts.append(complex(t, a.imag))
        pts.append(b)
        panels = []
        for p, q in zip(pts[:-1], pts[1:]):
            for k in range(splits_per_seg):
                # k/splits first: (q - p) k may overflow where the panel
                # ends do not
                panels.append((p + (q - p) * (k / splits_per_seg),
                               p + (q - p) * ((k + 1) / splits_per_seg)))
        return panels

    panels = [pan for a, b in zip(corners, corners[1:] + corners[:1])
              for pan in edge_panels(a, b, 2)]
    tol = 0.05 * 2.0 * np.pi
    for _ in range(max_refine):
        total, err = 0.0 + 0.0j, 0.0
        for val, e in adaptive_panel(model.log_derivative_phi, panels,
                                     tol / max(len(panels), 1)):
            total += val
            err += e
        winding = (total / (2j * np.pi)).real
        if not np.isfinite(winding):
            raise ContourTooClose("phi'/phi is not finite on the contour")
        err /= 2.0 * np.pi
        if abs(winding - round(winding)) <= 0.05 and err <= 0.02:
            break
        tol /= 4.0
    if abs(winding - round(winding)) > 0.1:
        raise ContourTooClose(
            f"winding integral {winding} not certified near an integer")

    # poles of phi inside the contour (all lie below the real axis, so none
    # when y_bot >= 0)
    poles_in = int(np.sum((poles.real > x1) & (poles.real < x2)
                          & (poles.imag > y_bot) & (poles.imag < y2)))
    count = int(round(winding)) + poles_in

    s = np.linspace(0.0, 1.0, 65)[:-1]
    bdry = cabs(model.phi(np.concatenate(
        [a + (b - a) * s for a, b in zip(corners, corners[1:] + corners[:1])])))
    return WindowReport(count, float(winding), float(np.min(bdry)),
                        float(nudge), poles_in)
