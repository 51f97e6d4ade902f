"""Model functions for a rank-one perturbation of a discrete measure.

Given data (a, b, kappa) over atoms (t_n, mu_n), the two Cauchy transforms

    beta(z) = kappa + sum_n (1/(t_n - z) - 1/t_n) a_n conj(b_n) mu_n
    rho(z)  = delta + sum_n (1/(t_n - z) - 1/t_n) |b_n|^2 mu_n

determine the inner function Theta = (i - rho)/(i + rho) and the generating
function phi = beta (1 + Theta)/2.  With nu_n = |b_n|^2 mu_n the measure
sum nu_n delta_{t_n} is the Clark measure of Theta at -1, and phi(t_n) =
i a_n / b_n at every atom.

All functions here are rational for finite data.  Evaluation uses a
nearest-pole regrouping: with u = t_j - z for the closest atom t_j,

    phi(z)   = i (w_j + u B) / (i u + nu_j + u R),
    Theta(z) = (i u - nu_j - u R) / (i u + nu_j + u R),

where B, R are the regular parts of beta, rho at t_j.  These forms are exact
algebra and remain stable arbitrarily close to (and at) the atoms, where the
pole of beta cancels against the zero of 1 + Theta.

The free real constant delta in rho defaults to sum_n nu_n / t_n, which makes
rho(z) = sum_n nu_n/(t_n - z) = B/A exactly, so Theta coincides with E*/E for
the associated structure pair E = A - iB with no Moebius discrepancy.  Any
other real delta may be passed explicitly.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (AdmissibilityError, BadParameters, DegenerateZeta,
                     EvaluationAtPole, MassPresent)
from .data import EQUALITY_RTOL, RankOneData, validate, classify_real_type
from ._numutil import cmul, kahan_sum, sum_by_abs_pole

#: relative pole guard distance: 1e-8 * (1 + |t_n|)
POLE_GUARD = 1e-8
#: elements per block (rows x points) of a batched evaluation: each
#: temporary of a block stays within 64 KB, whatever the batch size (larger
#: blocks were no faster and raised the peak resident set by megabytes)
BATCH_ELEMENTS = 4096


@dataclass(frozen=True)
class CauchyRepresentation:
    """Pole/residue/constant form F(z) = c0 + sum_n (1/(t_n - z) - 1/t_n) w_n.

    Near each pole, (z - t_n) F(z) -> -w_n (residue normalization).
    Summation runs in |t_n| ascending order with Kahan compensation.
    """

    poles: np.ndarray
    residues: np.ndarray
    constant: complex
    _order: np.ndarray = field(init=False, repr=False)
    _rank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        poles = np.asarray(self.poles, dtype=float)
        residues = np.asarray(self.residues, dtype=complex)
        if poles.ndim != 1 or poles.shape != residues.shape:
            raise ValueError("poles and residues must be matching 1-d arrays")
        if np.any(poles == 0) or np.any(np.diff(poles) <= 0):
            raise ValueError("poles must be nonzero and strictly increasing")
        poles.flags.writeable = False
        residues.flags.writeable = False
        object.__setattr__(self, "poles", poles)
        object.__setattr__(self, "residues", residues)
        object.__setattr__(self, "constant", complex(self.constant))
        order = np.argsort(np.abs(poles), kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_rank", rank)

    def nearest_pole(self, z):
        """Index of the pole closest to z."""
        return int(np.argmin(np.abs(self.poles - z)))

    def in_guard(self, z):
        j = self.nearest_pole(z)
        return abs(self.poles[j] - z) < POLE_GUARD * (1.0 + abs(self.poles[j]))

    def __call__(self, z):
        if self.in_guard(z):
            raise EvaluationAtPole(f"z={z} within guard of pole")
        t, w = self.poles[self._order], self.residues[self._order]
        return self.constant + kahan_sum(w * (1.0 / (t - z) - 1.0 / t))

    def regular_part(self, j, z):
        """F(z) - w_j/(t_j - z): the part analytic at pole j."""
        t, w = self.poles, self.residues
        mask = np.arange(t.size) != j
        tm, wm = t[mask], w[mask]
        head = self.constant - w[j] / t[j]
        return head + sum_by_abs_pole(tm, wm * (1.0 / (tm - z) - 1.0 / tm))

    def derivative(self, z):
        """F'(z) = sum_n w_n/(t_n - z)^2 (not pole-safe)."""
        t, w = self.poles[self._order], self.residues[self._order]
        return kahan_sum(w / (t - z) ** 2)

    def derivative_regular_part(self, j, z):
        t, w = self.poles, self.residues
        mask = np.arange(t.size) != j
        tm, wm = t[mask], w[mask]
        return sum_by_abs_pole(tm, wm / (tm - z) ** 2)

    def nearest_poles(self, zs):
        """nearest_pole at every point of zs, in blocks of BATCH_ELEMENTS."""
        zs = np.asarray(zs, dtype=complex)
        js = np.empty(zs.shape, dtype=int)
        step = max(1, BATCH_ELEMENTS // self.poles.size)
        for k in range(0, zs.size, step):
            js[k:k + step] = np.argmin(
                np.abs(self.poles - zs[k:k + step, None]), axis=1)
        return js

    def regular_parts(self, js, zs):
        """Regular parts of F and F' at many points, each at its own pole.

        Entry k equals regular_part(js[k], zs[k]) and
        derivative_regular_part(js[k], zs[k]) bit for bit: pole js[k] is
        left out and the other terms are summed in ascending-|t| order with
        Kahan compensation, vectorized along the points.  Row i of that sum
        takes the pole of ascending-|t| rank i + (i >= rank of js[k]), and
        the rows are formed in blocks of at most BATCH_ELEMENTS // points,
        so the memory in use stays bounded whatever the atom and point
        counts.
        """
        t, w = self.poles, self.residues
        js = np.asarray(js, dtype=int)
        zs = np.asarray(zs, dtype=complex)
        own = self._rank[js]
        n_rows = t.size - 1
        step = max(1, BATCH_ELEMENTS // max(js.size, 1))

        def rows():
            for i in range(0, n_rows, step):
                ranks = np.arange(i, min(i + step, n_rows))[:, None]
                idx = self._order[ranks + (ranks >= own)]
                tm, wm = t[idx], w[idx]
                d = tm - zs
                # bound to a name, so numpy cannot multiply into this
                # temporary in place: its in-place complex multiply rounds
                # differently from the out-of-place one of regular_part
                diff = 1.0 / d - 1.0 / tm
                yield from np.stack((wm * diff, wm / d ** 2), axis=1)

        sums = np.broadcast_to(kahan_sum(rows()), (2,) + js.shape)
        head = self.constant - w[js] / t[js]
        return head + sums[0], sums[1]


class ModelPair:
    """Evaluators for beta, rho, Theta, phi, phi_tilde of one data set."""

    def __init__(self, data: RankOneData, delta: float, report):
        self.data = data
        self.delta = float(delta)
        self.report = report
        t, mu = data.t, data.mu
        self.nu = data.nu
        self.beta = CauchyRepresentation(t, data.a * np.conj(data.b) * mu,
                                         data.kappa)
        self.rho = CauchyRepresentation(t, self.nu.astype(complex), self.delta)
        self._beta_star = CauchyRepresentation(
            t, np.conj(self.beta.residues), np.conj(data.kappa))

    # -- basic quantities -------------------------------------------------

    @property
    def t(self):
        return self.data.t

    @property
    def delta_infinity(self):
        """rho(infinity) = delta - sum nu_n/t_n."""
        return self.delta - float(np.real(sum_by_abs_pole(
            self.t, self.nu / self.t)))

    @property
    def theta_infinity(self):
        d = self.delta_infinity
        return (1j - d) / (1j + d)

    @property
    def exponent_at_infinity(self):
        """The k with |phi(z)| ~ |z|^k at infinity, off the partial fractions.

        Expanding 1/(t_n - z) = -sum_{k>=1} t_n^(k-1) z^(-k) gives
        beta(z) = c - sum_k (sum_n w_n t_n^(k-1)) z^(-k) with
        c = kappa - sum_n w_n/t_n.  Since rho(infinity) is real, i + rho
        never vanishes there and phi decays like beta: the exponent is 0
        when c != 0 (the admissibility condition) and otherwise -k for the
        first moment sum_n w_n t_n^(k-1) that is nonzero at the relative
        tolerance of the admissibility test.
        """
        if self.report.condition_A:
            return 0
        t, w = self.t, self.beta.residues
        x = t / np.max(np.abs(t))      # rescaled so the moments cannot overflow
        powers = np.ones_like(x)
        for k in range(1, t.size + 1):
            terms = w * powers
            if abs(kahan_sum(terms)) > EQUALITY_RTOL * np.sum(np.abs(terms)):
                return -k
            powers = powers * x
        raise AdmissibilityError("beta vanishes identically")

    @property
    def real_type(self):
        return classify_real_type(self.data)

    # -- pointwise evaluation ---------------------------------------------

    def _split(self, z):
        """Nearest atom j, u = t_j - z, and regular parts of beta, rho."""
        j = self.beta.nearest_pole(z)
        u = self.t[j] - z
        return j, u

    def theta(self, z):
        j, u = self._split(z)
        r = self.rho.regular_part(j, z)
        nj = self.nu[j]
        den = 1j * u + nj + u * r
        return (1j * u - nj - u * r) / den

    def phi(self, z):
        j, u = self._split(z)
        b = self.beta.regular_part(j, z)
        r = self.rho.regular_part(j, z)
        wj = self.beta.residues[j]
        return 1j * (wj + u * b) / (1j * u + self.nu[j] + u * r)

    def _split_array(self, zs):
        """_split at every point of zs: (zs, nearest atoms js, u)."""
        zs = np.asarray(zs, dtype=complex)
        js = self.beta.nearest_poles(zs)
        return zs, js, self.t[js] - zs

    def phi_array(self, zs):
        """phi at every point of zs, bit for bit the values of phi."""
        zs, js, u = self._split_array(zs)
        b, _ = self.beta.regular_parts(js, zs)
        r, _ = self.rho.regular_parts(js, zs)
        wj = self.beta.residues[js]
        return 1j * (wj + cmul(u, b)) / (1j * u + self.nu[js] + cmul(u, r))

    def phi_tilde(self, z):
        """phi_tilde(z) = Theta(z) * conj(phi(conj(z))), via conjugated data."""
        j, u = self._split(z)
        b = self._beta_star.regular_part(j, z)
        r = self.rho.regular_part(j, z)
        wj = self._beta_star.residues[j]
        return 1j * (wj + u * b) / (1j * u + self.nu[j] + u * r)

    def one_plus_theta(self, z):
        j, u = self._split(z)
        r = self.rho.regular_part(j, z)
        return 2j * u / (1j * u + self.nu[j] + u * r)

    def theta_prime(self, z):
        """Theta'(z) = -2i rho'(z) / (i + rho(z))^2, atom-stable.

        At an atom this reduces to -2i/nu_n.
        """
        j, u = self._split(z)
        r = self.rho.regular_part(j, z)
        rp = self.rho.derivative_regular_part(j, z)
        nj = self.nu[j]
        den = 1j * u + nj + u * r
        return -2j * (nj + u * u * rp) / (den * den)

    def log_derivative_phi(self, z):
        """phi'(z)/phi(z) = beta'/beta - rho'/(i + rho), atom-stable."""
        j, u = self._split(z)
        b = self.beta.regular_part(j, z)
        bp = self.beta.derivative_regular_part(j, z)
        r = self.rho.regular_part(j, z)
        rp = self.rho.derivative_regular_part(j, z)
        wj = self.beta.residues[j]
        nj = self.nu[j]
        # d/dz of (w_j + u b) and (i u + nu_j + u r) with du/dz = -1
        num = wj + u * b
        den = 1j * u + nj + u * r
        return (u * bp - b) / num - (u * rp - r - 1j) / den

    def log_derivative_phi_array(self, zs):
        """log_derivative_phi at every point of zs, bit for bit.

        Products of two complex arrays are formed componentwise (cmul), as
        the scalar multiply rounds.
        """
        zs, js, u = self._split_array(zs)
        b, bp = self.beta.regular_parts(js, zs)
        r, rp = self.rho.regular_parts(js, zs)
        num = self.beta.residues[js] + cmul(u, b)
        den = 1j * u + self.nu[js] + cmul(u, r)
        return (cmul(u, bp) - b) / num - (cmul(u, rp) - r - 1j) / den

    def phi_prime(self, z):
        return self.phi(z) * self.log_derivative_phi(z)

    def eval(self, which, z):
        """Evaluate one of beta|rho|theta|phi|phi_tilde at z.

        beta and rho raise EvaluationAtPole inside the pole guard; the other
        three are analytic at atoms and use the regrouped limit formulas.
        """
        fn = {
            "beta": self.beta,
            "rho": self.rho,
            "theta": self.theta,
            "phi": self.phi,
            "phi_tilde": self.phi_tilde,
        }.get(which)
        if fn is None:
            raise ValueError(f"unknown function {which!r}")
        return fn(z)


def canonical_delta(data: RankOneData):
    """delta making rho(z) = sum nu_n/(t_n - z) exactly."""
    return float(np.real(sum_by_abs_pole(data.t, data.nu / data.t)))


def build_model(data: RankOneData, delta="auto", strict=True):
    """Build the model pair for rank-one data.

    Parameters
    ----------
    data : RankOneData
    delta : float or "auto"
        Free real constant of rho; "auto" selects the canonical value
        sum nu_n/t_n aligning Theta with the structure pair E*/E.
    strict : bool
        When True (default) raise AdmissibilityError if the admissibility
        condition fails.  Degenerate families used for envelope diagnostics
        pass strict=False.
    """
    report = validate(data)
    if strict and not report.condition_A:
        raise AdmissibilityError(
            "kappa equals the pairing sum; perturbation is not admissible")
    if delta == "auto":
        delta = canonical_delta(data)
    return ModelPair(data, float(delta), report)


# ---------------------------------------------------------------------------
# Structure pair E = A - iB and its reproducing kernel
# ---------------------------------------------------------------------------

class DeBrangesPair:
    """Pair of real entire (here polynomial) functions with E = A - iB.

    A(z) = prod (1 - z/t_n) (so A(0) = 1) vanishes exactly at the atoms and
    B is fixed by B/A = sum nu_n/(t_n - z).  E = A - iB satisfies
    |E(z)| > |E(conj z)| in the open upper half-plane and E*/E equals the
    model Theta built with the canonical delta.
    """

    def __init__(self, zeros, nu):
        self.zeros = np.asarray(zeros, dtype=float)
        self.nu = np.asarray(nu, dtype=float)

    def A(self, z):
        return np.prod(1.0 - z / self.zeros)

    def _leave_one_out(self, z):
        """prod_{m != n} (1 - z/t_m) for every n, by prefix/suffix products."""
        factors = 1.0 - z / self.zeros
        pre = np.concatenate(([1.0], np.cumprod(factors)[:-1]))
        suf = np.concatenate((np.cumprod(factors[::-1])[-2::-1], [1.0]))
        return pre * suf

    def B(self, z):
        return kahan_sum((self.nu / self.zeros) * self._leave_one_out(z))

    def E(self, z):
        return self.A(z) - 1j * self.B(z)

    def E_star(self, z):
        """E*(z) = conj(E(conj z)) = A(z) + iB(z) for real A, B."""
        return self.A(z) + 1j * self.B(z)

    def hermite_biehler_margin(self, z):
        """|E(z)| - |E(conj z)|; positive in the open upper half-plane."""
        return abs(self.E(z)) - abs(self.E(np.conj(z)))


def build_debranges(data: RankOneData):
    """Structure pair of the data: zeros at atoms, weights nu_n."""
    return DeBrangesPair(data.t, data.nu)


def debranges_kernel(pair: DeBrangesPair, w, z):
    """Reproducing kernel K_w(z) = (conj(A(w))B(z) - conj(B(w))A(z)) / (pi (z - conj w)).

    On the diagonal z = conj w the kernel is A(z)^2 rho'(z)/pi with
    rho = B/A = sum nu_n/(t_n - z).  Since A(z)/(t_n - z) = loo_n(z)/t_n,
    loo_n the product without factor n, that is
    sum_n nu_n (loo_n(z)/t_n)^2/pi, exact at the atoms and free of
    derivatives of A or B.
    """
    wbar = np.conj(w)
    if abs(z - wbar) < 1e-9 * (1.0 + abs(z)):
        loo = pair._leave_one_out(z)
        return kahan_sum(pair.nu * (loo / pair.zeros) ** 2) / np.pi
    aw, bw = np.conj(pair.A(w)), np.conj(pair.B(w))
    return (aw * pair.B(z) - bw * pair.A(z)) / (np.pi * (z - wbar))


# ---------------------------------------------------------------------------
# Clark measures and the unitary transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClarkMeasure:
    """Atomic spectral measure of Theta at a unimodular zeta.

    Atoms solve Theta(t) = zeta; each weight is 2/|Theta'(atom)| (this is
    forced by combining the Herglotz representation with the Cauchy form of
    rho; see the package docs for the known normalization discrepancy in the
    literature).  For zeta = -1 the atoms are the base atoms t_n and the
    weights equal nu_n = |b_n|^2 mu_n.
    """

    zeta: complex
    atoms: np.ndarray
    weights: np.ndarray
    p: float
    q: float


def clark_measure(model: ModelPair, zeta):
    """Clark measure of the model's Theta at unimodular zeta."""
    zeta = complex(zeta)
    if abs(abs(zeta) - 1.0) > 1e-10:
        raise BadParameters("zeta must be unimodular")
    if abs(zeta - model.theta_infinity) <= 1e-12:
        raise DegenerateZeta(
            "zeta equals Theta at infinity; one atom escapes to infinity "
            "(point mass present)")
    t, nu = model.t, model.nu
    if abs(zeta + 1.0) <= 1e-12:
        atoms = t.copy()
        weights = nu.copy()
    else:
        # Theta(x) = zeta  <=>  rho(x) = r with r real, and rho(x) - r =
        # g + sum nu_n/(t_n - x): its zeros are the eigenvalues of the
        # symmetric diagonal-plus-rank-one matrix below, one per gap
        r = (1j * (1.0 - zeta) / (1.0 + zeta)).real
        g = model.delta_infinity - r
        s = np.sqrt(nu / abs(g))
        mat = np.copysign(1.0, g) * np.outer(s, s)
        mat[np.diag_indices(t.size)] += t
        atoms = np.linalg.eigvalsh(mat)
        # Newton polish on Theta - zeta using the stable evaluator
        for _ in range(3):
            f = np.array([model.theta(x) - zeta for x in atoms])
            fp = np.array([model.theta_prime(x) for x in atoms])
            atoms = atoms - (f / fp).real
        weights = np.array([2.0 / abs(model.theta_prime(x)) for x in atoms])
    # q from the Herglotz representation evaluated at z = i
    zi = 1j
    g = (zeta + model.theta(zi)) / (zeta - model.theta(zi))
    cauchy = kahan_sum(weights * (1.0 / (atoms - zi)
                                  - atoms / (atoms ** 2 + 1.0)))
    q = -1j * (g - cauchy / 1j)
    return ClarkMeasure(zeta=zeta, atoms=atoms, weights=weights,
                        p=0.0, q=float(q.real))


def kernel_k(model: ModelPair, lam, z):
    """Reproducing kernel k_lam(z) = (1 - conj(Theta(lam)) Theta(z)) / (z - conj(lam))."""
    tl = np.conj(model.theta(lam))
    lb = np.conj(lam)
    if abs(z - lb) < 1e-9 * (1.0 + abs(z)):
        return -tl * model.theta_prime(z)
    return (1.0 - tl * model.theta(z)) / (z - lb)


def kernel_k_tilde(model: ModelPair, lam, z):
    """k~_lam(z) = (Theta(z) - Theta(lam)) / (z - lam) = Theta(z) conj(k_lam(conj z))."""
    tl = model.theta(lam)
    if abs(z - lam) < 1e-9 * (1.0 + abs(z)):
        return model.theta_prime(z)
    return (model.theta(z) - tl) / (z - lam)


def discrete_inner(f_vals, g_vals, weights):
    """pi-weighted discrete inner product pi sum f conj(g) w over Clark atoms."""
    f_vals = np.asarray(f_vals, dtype=complex)
    g_vals = np.asarray(g_vals, dtype=complex)
    return np.pi * kahan_sum(f_vals * np.conj(g_vals)
                             * np.asarray(weights, dtype=float))


def lebesgue_integral(fn, breakpoints=(), r0=None):
    """integral over R of fn (rational decay O(x^-2)) by adaptive quadrature.

    Gauss-Kronrod on (-R, R) with atom breakpoints, plus the two tails mapped
    to (0, 1] by x = +-R/u, so the rational decay is integrated exactly
    instead of truncated, all at quad's default tolerances.  Returns (value,
    tail_error_estimate), the latter the sum of the two tails' estimates.
    """
    from scipy.integrate import quad

    breaks = sorted(float(b) for b in breakpoints)
    r = r0 if r0 is not None else max(10.0, 2.0 * (1.0 + max(
        [abs(b) for b in breaks] or [1.0])))
    pts = [b for b in breaks if -r < b < r]
    core, core_err = quad(fn, -r, r, points=pts or None, limit=400,
                          complex_func=True)
    up, up_err = quad(lambda u: fn(r / u) * r / u ** 2, 0.0, 1.0,
                      limit=200, complex_func=True)
    lo, lo_err = quad(lambda u: fn(-r / u) * r / u ** 2, 0.0, 1.0,
                      limit=200, complex_func=True)
    total = core + up + lo
    tail_err = abs(up_err) + abs(lo_err)
    return total, tail_err


class ClarkField:
    """Image of a coefficient vector under the Clark transform.

    F(z) = sqrt(pi) (zeta - Theta(z)) sum_m u_m w_m / (t'_m - z).

    F is a multiple of a unitary map from l^2(weights) onto the model space:
    the Lebesgue norm of F equals 2*pi times the discrete norm
    (sum |u_m|^2 w_m)^(1/2), while the atom samples of F satisfy the exact
    embedding identity ||F||^2_{L2(dx)} = pi * sum |F(t'_m)|^2 w_m.
    """

    def __init__(self, clark: ClarkMeasure, model: ModelPair, u):
        self.clark = clark
        self.model = model
        self.u = np.asarray(u, dtype=complex)
        if self.u.shape != clark.atoms.shape:
            raise ValueError("u must have one coefficient per atom")

    def __call__(self, z):
        c, m = self.clark, self.model
        j = int(np.argmin(np.abs(c.atoms - z)))
        if abs(c.atoms[j] - z) < 1e-9 * (1.0 + abs(c.atoms[j])):
            # (zeta - Theta(z))/(t'_j - z) -> Theta'(t'_j); split off atom j
            mask = np.arange(c.atoms.size) != j
            rest = kahan_sum(self.u[mask] * c.weights[mask]
                             / (c.atoms[mask] - z))
            head = self.u[j] * c.weights[j] * m.theta_prime(z)
            return np.sqrt(np.pi) * ((c.zeta - m.theta(z)) * rest + head)
        s = kahan_sum(self.u * c.weights / (c.atoms - z))
        return np.sqrt(np.pi) * (c.zeta - m.theta(z)) * s

    def atom_samples(self):
        """Values at the atoms: F(t'_m) = 2i zeta sqrt(pi) u_m."""
        return 2j * self.clark.zeta * np.sqrt(np.pi) * self.u

    def discrete_norm(self):
        """sqrt(pi * sum |F(t'_m)|^2 w_m), the embedding norm of the output."""
        s = self.atom_samples()
        return float(np.sqrt(np.real(discrete_inner(s, s, self.clark.weights))))

    def input_norm(self):
        """sqrt(sum |u_m|^2 w_m), the l^2(sigma) norm of the input."""
        return float(np.sqrt(np.sum(np.abs(self.u) ** 2 * self.clark.weights)))

    def lebesgue_norm(self):
        val, tail = lebesgue_integral(lambda x: abs(self(x)) ** 2,
                                      self.clark.atoms)
        return float(np.sqrt(val.real)), tail


def clark_transform(clark: ClarkMeasure, model: ModelPair, u):
    """Clark transform of coefficients u on the atoms of sigma_zeta."""
    if clark.p > 0:
        raise MassPresent("sigma_zeta has a point mass at infinity")
    return ClarkField(clark, model, u)
