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
from .data import RankOneData, omega_matrix
from .model import ModelPair
from .engine import Eigensystem, phi_zeros
from ._numutil import cabs, cmul


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
    phi = np.array([abs(model.phi(1j * v)) for v in y])
    beta = np.array([abs(model.beta(1j * v)) for v in y])
    phit = np.array([abs(model.phi_tilde(1j * v)) for v in y])
    top = y >= y_max / 10.0
    mask = top & (phi > 0)
    if np.count_nonzero(mask) >= 2:
        slope = np.polyfit(np.log(y[mask]), np.log(phi[mask]), 1)[0]
    else:
        slope = float("nan")
    env_mask = y >= 10.0
    env_vals = y[env_mask] * phi[env_mask]
    i_min = int(np.argmin(env_vals))
    ratio = float(np.max(phi[top]) / np.min(phi[top])) if np.min(phi[top]) > 0 \
        else float("inf")
    exact = model.exponent_at_infinity
    # exhibited constant in 1 - |Theta(z)| >= c Im z/(|z|^2 + 1), sampled
    up = y[y > 1.0]
    margins = [(1.0 - abs(model.theta(1j * v))) * (v * v + 1.0) / v
               for v in up]
    inner_margin = float(min(margins)) if margins else float("nan")
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
    from scipy.integrate import quad

    zeros = phi_zeros(model)
    if eta == 0.0 and zeros.real.size > 0:
        raise DivergentNearRealZero(
            f"phi has real zeros at {zeros.real}; integrand not integrable")
    drop = -model.exponent_at_infinity
    decay = tau * drop - n_weight          # integrand ~ |t|^decay
    if decay >= -1.0:
        return IntegralReport(float("inf"), float("inf"), False, float(decay))

    def integrand(x):
        return 1.0 / (abs(model.phi(x + 1j * eta)) ** tau
                      * (1.0 + abs(x)) ** n_weight)

    breaks = sorted(set(np.concatenate([model.t, zeros.zeros.real])))
    r = max(10.0, 2.0 * (1.0 + max(abs(b) for b in breaks)))
    pts = [b for b in breaks if -r < b < r]
    core, _ = quad(integrand, -r, r, points=pts or None, limit=400)
    up, up_err = quad(lambda u: integrand(r / u) * r / u ** 2, 0.0, 1.0,
                      limit=200)
    lo, lo_err = quad(lambda u: integrand(-r / u) * r / u ** 2, 0.0, 1.0,
                      limit=200)
    return IntegralReport(float(core + up + lo),
                          float(abs(up_err) + abs(lo_err)), True, float(decay))


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
        if isinstance(data, RankOneData):
            kappa = np.array([[data.kappa]])
        else:
            kappa = data.kappa
        mat = kappa - omega
    elif picture == "bounded":
        mat = np.eye(omega.shape[0]) + omega
    else:
        raise ValueError(f"unknown picture {picture!r}")
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


def mass_detect(model: ModelPair, zeta, y_grid=None):
    """Detect the point mass of sigma_zeta at infinity.

    For rational Theta the limit y (zeta - Theta(iy)) is exact from the
    expansion at infinity: the unique massy parameter is Theta(inf), where
    y|zeta - Theta(iy)|/2 stabilizes to S0/|i + rho(inf)|^2 with
    S0 = sum nu_n; the Herglotz mass itself is the reciprocal
    |i + rho(inf)|^2 / S0.  For all other unimodular zeta the sampled
    quantity grows linearly and has_mass is False.
    """
    zeta = complex(zeta)
    if y_grid is None:
        y_grid = np.logspace(1, 6, 26)
    vals = np.array([v * abs(zeta - model.theta(1j * v)) / 2.0
                     for v in y_grid])
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


def _defect_matrix(eigsys: Eigensystem, j1, j2):
    mu = eigsys.weights
    wsqrt = np.sqrt(mu)
    cols = []
    for j in j1:
        cols.append(eigsys.model_vectors[:, j])
    for j in j2:
        cols.append(eigsys.left_vectors[:, j])
    x = np.stack(cols, axis=1) * wsqrt[:, None]
    norms = np.linalg.norm(x, axis=0)
    if np.any(norms == 0):
        raise NotBiorthogonal("zero column in the mixed system")
    return x / norms


def synthesis_defect(eigsys: Eigensystem, partition):
    """Smallest singular value of the normalized mixed system {f}_J1 u {g}_J2."""
    j1, j2 = (tuple(int(j) for j in partition[0]),
              tuple(int(j) for j in partition[1]))
    n = eigsys.eigenvalues.size
    if sorted(j1 + j2) != list(range(n)):
        raise ValueError("partition must split 0..n-1")
    x = _defect_matrix(eigsys, j1, j2)
    s = np.linalg.svd(x, compute_uv=False)
    cond = float(s[0] / s[-1]) if s[-1] > 0 else float("inf")
    return SynthesisDefect((j1, j2), float(s[-1]), cond)


def enumerate_partitions(eigsys: Eigensystem, budget=10000, seed=0):
    """Worst synthesis defect over partitions.

    Exhaustive for n <= 12 (2^n partitions); beyond that, `budget` partitions
    drawn from a counter-based generator seeded with `seed`.
    """
    n = eigsys.eigenvalues.size
    worst = None
    checked = 0
    if n <= 12:
        masks = range(2 ** n)
    else:
        rng = np.random.Generator(np.random.Philox(seed))
        masks = (int(m) for m in
                 rng.integers(0, 2 ** n, size=budget, dtype=np.uint64))
    for mask in masks:
        j1 = tuple(j for j in range(n) if (mask >> j) & 1 == 0)
        j2 = tuple(j for j in range(n) if (mask >> j) & 1)
        d = synthesis_defect(eigsys, (j1, j2))
        checked += 1
        if worst is None or d.sigma_min < worst.sigma_min:
            worst = d
    return worst, checked


# ---------------------------------------------------------------------------
# Argument-principle window check
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _adaptive_panel(fn, a, b, tol, depth=0):
    """64-point panels, bisected until two levels agree within tol.

    Resolves phi'/phi spikes from zeros sitting just off an edge, which a
    fixed panel count can step over while still landing near an integer.
    fn maps an array of points to an array of values; the 192 nodes of the
    panel and of its two halves go through one call.
    """
    mid = (a + b) / 2.0
    pieces = ((a, b), (a, mid), (mid, b))
    half_widths = [(q - p) / 2.0 for p, q in pieces]
    vals = fn(np.concatenate([(p + q) / 2.0 + h * _GL_NODES
                              for (p, q), h in zip(pieces, half_widths)]))
    whole, left, right = (h * np.sum(_GL_WEIGHTS * v)
                          for h, v in zip(half_widths, np.split(vals, 3)))
    split = left + right
    if abs(whole - split) <= tol or depth >= 24:
        return split, abs(whole - split)
    left, le = _adaptive_panel(fn, a, mid, tol / 2.0, depth + 1)
    right, re_ = _adaptive_panel(fn, mid, b, tol / 2.0, depth + 1)
    return left + right, le + re_


def _phi_poles(model: ModelPair):
    """Poles of phi: the solutions of rho(z) = -i, Newton-polished.

    One pole sits below each atom; to first order at z = t_n + nu_n (R - i)
    / (R^2 + 1) with R the regular part of rho there.  Newton on the stable
    split form i u + nu_j + u R (u = t_j - z) sharpens each seed, so no
    polynomial coefficients are needed and the routine scales to any
    truncation.  All seeds take their Newton steps together, through
    batched regular parts; a seed stops where its own iteration would:
    when g' is 0 or not finite, when the step is not finite (it is then not
    taken), or after a step with |step| <= 1e-15 (1 + |z|).
    """
    t, nu, rho = model.t, model.nu, model.rho

    def g_and_gprime(zs):
        js = rho.nearest_poles(zs)
        u = t[js] - zs
        r, rp = rho.regular_parts(js, zs)
        return 1j * u + nu[js] + cmul(u, r), -1j - r + cmul(u, rp)

    r = rho.regular_parts(np.arange(t.size), t)[0].real
    poles = t + nu * (r - 1j) / (r * r + 1.0)
    active = np.arange(t.size)
    scale = float(np.max(nu) + 1.0)
    with np.errstate(all="ignore"):
        for _ in range(60):
            if not active.size:
                break
            z = poles[active]
            gv, gp = g_and_gprime(z)
            step = gv / gp
            moves = (gp != 0) & np.isfinite(gp) & np.isfinite(step)
            z = z - step
            poles[active[moves]] = z[moves]
            done = ~moves | (cabs(step) <= 1e-15 * (1.0 + cabs(z)))
            active = active[~done]
        poles = poles[np.isfinite(poles)]
        # discard seeds that never converged
        poles = poles[cabs(g_and_gprime(poles)[0]) <= 1e-8 * scale]
    # deduplicate seeds that collapsed onto the same (simple) pole
    uniq = []
    for z in sorted(poles, key=lambda w: (w.real, w.imag)):
        if not uniq or abs(z - uniq[-1]) > 1e-9 * (1.0 + abs(z)):
            uniq.append(z)
    return np.asarray(uniq, dtype=complex)


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
    until it is within 0.05 of an integer; a certified distance above 0.1
    raises ContourTooClose.  A degenerate or non-finite rectangle raises
    BadParameters.
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
                panels.append((p + (q - p) * k / splits_per_seg,
                               p + (q - p) * (k + 1) / splits_per_seg))
        return panels

    fn = model.log_derivative_phi_array
    tol = 0.05 * 2.0 * np.pi
    winding = None
    for _ in range(max_refine):
        total = 0.0 + 0.0j
        err = 0.0
        panels = []
        for a, b in zip(corners, corners[1:] + corners[:1]):
            panels.extend(edge_panels(a, b, 2))
        for a, b in panels:
            val, e = _adaptive_panel(fn, a, b, tol / max(len(panels), 1))
            total += val
            err += e
        winding = (total / (2j * np.pi)).real
        err /= 2.0 * np.pi
        if abs(winding - round(winding)) <= 0.05 and err <= 0.02:
            break
        tol /= 4.0
    if abs(winding - round(winding)) > 0.1:
        raise ContourTooClose(
            f"winding integral {winding} not certified near an integer")

    # poles of phi inside the contour (only possible below the real axis)
    poles_in = 0
    if y_bot < 0:
        poles_in = int(np.sum((poles.real > x1) & (poles.real < x2)
                              & (poles.imag > y_bot) & (poles.imag < y2)))
    count = int(round(winding)) + poles_in

    s = np.linspace(0.0, 1.0, 65)[:-1]
    bdry = cabs(model.phi_array(np.concatenate(
        [a + (b - a) * s for a, b in zip(corners, corners[1:] + corners[:1])])))
    return WindowReport(count, float(winding), float(np.min(bdry)),
                        float(nudge), poles_in)
