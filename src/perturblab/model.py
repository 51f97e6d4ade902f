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

Each evaluator takes one point or an array; either goes through one batched
kernel, _partial_fraction_sums, which Kahan-sums the terms in ascending-|t|
order along all points at once, so a point gives the same value bit for bit
alone or in an array (complex products go through _numutil.cmul).  The
kernel sums every transform an evaluator needs (beta and rho, or beta* and
rho) in one pass, forming one reciprocal r = 1/(t - z) per term and point
for all of them, the value terms w (r - 1/t) and, only for theta_prime,
the derivative terms w r^2.  A regular part leaves out the point's own
pole: its term is an exact 0 in its place in the order.
Where |z| is so large (about 1e308) that a product with u overflows, the
quotients are taken with numerator and denominator over u.

The free real constant delta in rho defaults to sum_n nu_n / t_n, which makes
rho(z) = sum_n nu_n/(t_n - z) exactly: with A(z) = prod_n (1 - z/t_n) and
B = A rho, Theta is then E*/E for E = A - iB, with no Moebius discrepancy.
Any other real delta may be passed explicitly.
"""

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .errors import (AdmissibilityError, BadParameters, DegenerateZeta,
                     EvaluationAtPole, InvalidData, MassPresent)
from .data import EQUALITY_RTOL, RankOneData, validate
from ._numutil import (BATCH_ELEMENTS, GL_WEIGHTS, adaptive_panel, cabs,
                       cmul, difference_quotient, gauss_legendre, kahan_sum,
                       sum_by_abs_pole)

#: relative pole guard distance: 1e-8 * (1 + |t_n|)
POLE_GUARD = 1e-8
#: beyond this |t - z|, (t - z)^2 overflows
SQRT_MAX = np.sqrt(np.finfo(float).max)
#: lebesgue_integral's tolerance, relative to the integral of |fn|
INTEGRAL_RTOL = 1e-10
#: where lebesgue_integral's tails end: the evaluators stay finite there
TAIL_END = 1e150


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
            raise InvalidData("poles and residues must be matching 1-d arrays")
        if np.any(poles == 0) or np.any(np.diff(poles) <= 0):
            raise InvalidData("poles must be nonzero and strictly increasing")
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

    def __call__(self, z):
        """F at one point or at every point of an array.

        All N terms are summed in ascending-|t| order, and any point inside
        the guard of a pole raises EvaluationAtPole.
        """
        zs = np.asarray(z, dtype=complex)
        tj = self.poles[self.nearest_poles(zs)]
        inside = cabs(tj - zs) < POLE_GUARD * (1.0 + np.abs(tj))
        if np.any(inside):
            raise EvaluationAtPole(f"z={zs[inside][0]} within guard of a pole")
        return self.constant + _partial_fraction_sums((self,), zs, None,
                                                      False)[0]

    def nearest_poles(self, zs):
        """Index of the pole nearest each point of zs, ties to the lower.

        The poles are sorted reals, so |t_m - z| falls up to the poles
        next to Re z and rises after them: those two decide.  Where the
        pole left of the winner lies at the same rounded distance (|Im z|
        so large that the distances round alike) or z is not finite, an
        argmin over all poles, in blocks of BATCH_ELEMENTS, decides.
        """
        zs = np.asarray(zs, dtype=complex)
        flat = zs.ravel()
        t = self.poles
        right = np.minimum(np.searchsorted(t, flat.real), t.size - 1)
        left = np.maximum(right - 1, 0)
        d_left, d_right = np.abs(t[left] - flat), np.abs(t[right] - flat)
        js = np.where(d_right < d_left, right, left)
        tied = np.abs(t[np.maximum(js - 1, 0)] - flat) == np.minimum(d_left,
                                                                     d_right)
        slow = np.flatnonzero(((js > 0) & tied) | ~np.isfinite(flat))
        step = max(1, BATCH_ELEMENTS // t.size)
        for k in range(0, slow.size, step):
            part = slow[k:k + step]
            js[part] = np.argmin(np.abs(t - flat[part, None]), axis=1)
        return js.reshape(zs.shape)

    def regular_parts(self, js, zs, derivatives=True):
        """Regular parts of F and F' at many points, each at its own pole.

        Entry k is F(z) - w_j/(t_j - z) and its derivative at z = zs[k],
        j = js[k], the other terms summed in ascending-|t| order; a point
        (0-d js and zs) is a batch of one and gives numpy scalars.  Without
        derivatives the tuple holds the regular parts of F only.
        """
        js = np.asarray(js, dtype=int)
        zs = np.asarray(zs, dtype=complex)
        return tuple(_regular_sums((self,), js, zs, derivatives))


def _regular_sums(reps, js, zs, derivatives):
    """Regular parts at the poles js of the transforms reps (sharing their
    poles): every value, then, with derivatives, every derivative, each of
    zs's shape, all out of one pass of _partial_fraction_sums."""
    t = reps[0].poles
    sums = _partial_fraction_sums(reps, zs, reps[0]._rank[js], derivatives)
    heads = [rep.constant - rep.residues[js] / t[js] for rep in reps]
    return [head + s for head, s in zip(heads, sums)] + list(sums[len(reps):])


def _partial_fraction_sums(reps, zs, own, derivatives):
    """Kahan sums of w (1/(t - z) - 1/t) and, with derivatives, of
    w/(t - z)^2 at the points zs, for the residues w of each of the k
    transforms reps, which share their poles t.

    Every pole's term enters in ascending-|t| order, but at point p that of
    the pole of rank own[p] is an exact 0 (own=None keeps every term).  Per
    block of at most BATCH_ELEMENTS // points terms, one reciprocal
    r = 1/(t - z) serves all k transforms, the terms w (r - 1/t) and w r^2
    go into one preallocated block, and each is Kahan-added along all points
    and sums at once, so the memory in use stays bounded at any atom and
    point count.  Returns the k sums (then the k derivative sums) as a
    (k or 2k,) + zs.shape array.
    """
    flat, order = zs.ravel(), reps[0]._order
    t = reps[0].poles[order]
    inv_t = 1.0 / t
    residues = np.stack([rep.residues[order] for rep in reps])
    k, n = len(reps), t.size
    rows = 2 * k if derivatives else k
    step = max(1, BATCH_ELEMENTS // max(flat.size, 1))
    # near 1e308 an intermediate of 1/(t - z) overflows, giving 0 for a
    # subnormal value (and r^2 underflows to 0, as w/(t - z)^2 does)
    far = (np.max(np.abs(t), initial=0.0)
           + np.max(np.abs(flat), initial=0.0) > SQRT_MAX)
    # the points by own rank (-1 for none), and where each block's start
    own = np.full(flat.size, -1) if own is None else np.ravel(own)
    points = np.argsort(own, kind="stable")
    starts = np.searchsorted(own[points], np.arange(0, n + step, step))
    block = np.empty((min(step, n), rows, flat.size), dtype=complex)
    total = np.zeros((rows, flat.size), dtype=complex)
    carry, spare = np.zeros_like(total), np.empty_like(total)
    for b, i in enumerate(range(0, n, step)):
        mine = points[starts[b]:starts[b + 1]]
        slots = (own[mine] - i, mine)
        d = t[i:i + step, None] - flat
        d[slots] = 1.0      # no 1/0 where a point lies on its own pole
        with np.errstate(over="ignore") if far else nullcontext():
            r = 1.0 / d
        diff = r - inv_t[i:i + step, None]
        diff[slots] = 0.0
        if derivatives:
            square = r ** 2
            square[slots] = 0.0
        terms = block[:d.shape[0]]
        for j in range(k):
            # into the block, never onto an operand (numpy's in-place complex
            # multiply rounds unlike its out-of-place one), and transform by
            # transform (a (1, 1, 1) product rounds unlike a (1, 1) one)
            w = residues[j, i:i + step, None]
            np.multiply(w, diff, out=terms[:, j])
            if derivatives:
                np.multiply(w, square, out=terms[:, k + j])
        for v in terms:
            np.add(v, carry, out=v)
            np.add(total, v, out=spare)
            np.subtract(spare, total, out=total)
            np.subtract(v, total, out=carry)
            total, spare = spare, total
    return total.reshape((rows,) + zs.shape)


def _regrouped(plain, scaled):
    """The quotient of the (numerator, denominator) pair plain() returns;
    where it is not finite (a product with u = t_j - z overflowed), that of
    scaled(), the same pair divided by a power of u.

    scaled() runs only when some point needs it, and only those points take
    its value, so the others keep plain()'s bits.
    """
    with np.errstate(all="ignore"):
        num, den = plain()
        q = num / den
        bad = ~np.isfinite(q)
        if np.any(bad):
            num, den = scaled()
            q = np.where(bad, num / den, q)
    return q[()]


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

    # -- evaluation at a point or an array of points ------------------------

    def _split(self, z, *reps, derivatives=False):
        """Nearest atom j, u = t_j - z, the regular parts at t_j of reps and,
        with derivatives, those of their derivatives: one pass of
        _partial_fraction_sums, whether z is a point or an array."""
        z = np.asarray(z, dtype=complex)
        j = self.beta.nearest_poles(z)
        return (j, self.t[j] - z, *_regular_sums(reps, j, z, derivatives))

    def _den(self, j, u, r):
        """u (i + rho(z)) = i u + nu_j + u R, R the regular part of rho."""
        return 1j * u + self.nu[j] + cmul(u, r)

    def _den_over_u(self, j, u, r):
        """i + rho(z) = i + nu_j/u + R: _den/u, for |u| where _den overflows."""
        return 1j + self.nu[j] / u + r

    def theta(self, z):
        j, u, r = self._split(z, self.rho)
        return _regrouped(
            lambda: (1j * u - self.nu[j] - cmul(u, r), self._den(j, u, r)),
            lambda: (1j - self.nu[j] / u - r, self._den_over_u(j, u, r)))

    def _phi(self, beta, z):
        j, u, b, r = self._split(z, beta, self.rho)
        w = beta.residues[j]
        return _regrouped(
            lambda: (1j * (w + cmul(u, b)), self._den(j, u, r)),
            lambda: (1j * (w / u + b), self._den_over_u(j, u, r)))

    def phi(self, z):
        return self._phi(self.beta, z)

    def phi_tilde(self, z):
        """phi_tilde(z) = Theta(z) * conj(phi(conj(z))), via conjugated data."""
        return self._phi(self._beta_star, z)

    def theta_prime(self, z):
        """Theta'(z) = -2i rho'(z) / (i + rho(z))^2, atom-stable.

        At an atom this reduces to -2i/nu_n.
        """
        j, u, r, rp = self._split(z, self.rho, derivatives=True)

        def square(den):
            return cmul(den, den)

        return _regrouped(
            lambda: (-2j * (self.nu[j] + cmul(cmul(u, u), rp)),
                     square(self._den(j, u, r))),
            lambda: (-2j * (self.nu[j] / u / u + rp),
                     square(self._den_over_u(j, u, r))))

    def eval(self, which, z):
        """Evaluate one of beta|rho|theta|phi|phi_tilde at a point or an array.

        beta and rho raise EvaluationAtPole inside the pole guard; the other
        three are analytic at atoms and use the regrouped limit formulas.
        """
        if which not in ("beta", "rho", "theta", "phi", "phi_tilde"):
            raise BadParameters(f"unknown function {which!r}")
        return getattr(self, which)(z)


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
        sum nu_n/t_n, which makes rho(z) = sum nu_n/(t_n - z).
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


def unimodular(zeta):
    """zeta as a complex number; BadParameters unless |zeta| = 1 to 1e-10."""
    zeta = complex(zeta)
    if not abs(abs(zeta) - 1.0) <= 1e-10:      # nan fails too
        raise BadParameters("zeta must be unimodular")
    return zeta


def clark_measure(model: ModelPair, zeta):
    """Clark measure of the model's Theta at unimodular zeta."""
    zeta = unimodular(zeta)
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
            atoms = atoms - ((model.theta(atoms) - zeta)
                             / model.theta_prime(atoms)).real
        weights = 2.0 / cabs(model.theta_prime(atoms))
    # q = Im (zeta + Theta(i))/(zeta - Theta(i)), from the Herglotz
    # representation at z = i: the real part of its Cauchy integral there,
    # sum w (1/(x - i) - x/(x^2 + 1)), vanishes term by term
    theta_i = model.theta(1j)
    q = ((zeta + theta_i) / (zeta - theta_i)).imag
    return ClarkMeasure(zeta=zeta, atoms=atoms, weights=weights,
                        p=0.0, q=float(q))


def kernel_k(model: ModelPair, lam, z):
    """Reproducing kernel k_lam(z) = (1 - conj(Theta(lam)) Theta(z)) / (z - conj(lam)).

    lam and z are points or arrays that broadcast together; Theta is
    evaluated once on each, and at z = conj(lam) the kernel takes its limit
    -conj(Theta(lam)) Theta'(z).
    """
    tl = np.conj(model.theta(lam))
    return difference_quotient(1.0 - cmul(tl, model.theta(z)),
                               z - np.conj(lam), z,
                               lambda: cmul(-tl, model.theta_prime(z)))


def discrete_inner(f_vals, g_vals, weights):
    """pi-weighted discrete inner product pi sum f conj(g) w over Clark atoms."""
    f_vals = np.asarray(f_vals, dtype=complex)
    g_vals = np.asarray(g_vals, dtype=complex)
    return np.pi * kahan_sum(f_vals * np.conj(g_vals)
                             * np.asarray(weights, dtype=float))


def lebesgue_integral(fn, breakpoints=()):
    """Integral over R of fn (decaying faster than 1/|x|), adaptively.

    fn maps an array of points to an array of values.  (-R, R) is split at
    the breakpoints inside it; the tails are mapped by x = +-R e^v onto
    [0, log(TAIL_END/R)], where |x|^-s decays like e^((1-s) v) with no
    endpoint singularity (the share (TAIL_END/R)^(1-s) beyond is left out).
    One level of Gauss-Legendre nodes per piece estimates the integral of
    |fn|, and _numutil.adaptive_panel bisects each piece until two levels
    agree within INTEGRAL_RTOL times that, so a cancelling integral is not
    driven to the depth limit.  That limit is the only bound on the work:
    fn must not oscillate in the tails (e^(ix)/(1 + x^2) takes some 2e8
    points).  Returns (value, the two tails' error estimates).
    """
    breaks = sorted({float(b) for b in breakpoints})
    r = max(10.0, 2.0 * (1.0 + max([abs(b) for b in breaks] or [1.0])))
    edges = [-r] + [b for b in breaks if -r < b < r] + [r]
    groups = [(fn, list(zip(edges[:-1], edges[1:])))]
    for sign in (1.0, -1.0):
        def tail(v, sign=sign):
            x = r * np.exp(v)
            return fn(sign * x) * x
        groups.append((tail, [(0.0, np.log(TAIL_END / r))]))
    wholes, scale, n_pieces = [], 0.0, 0
    for f, panels in groups:
        sums, vals = gauss_legendre(f, panels)
        wholes.append(sums)
        for (a, b), v in zip(panels, vals):
            scale += (b - a) / 2.0 * np.sum(GL_WEIGHTS * np.abs(v))
        n_pieces += len(panels)
    tol = INTEGRAL_RTOL * scale / n_pieces
    parts = [part for (f, panels), w in zip(groups, wholes)
             for part in adaptive_panel(f, panels, tol, w)]
    return sum(v for v, _ in parts), parts[-2][1] + parts[-1][1]


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
            raise InvalidData("u must have one coefficient per atom")

    def __call__(self, z):
        """F at a point or an array, Kahan-summed over the atoms along a last
        axis; at an atom t'_j, where Theta(t'_j) = zeta, the factor
        (zeta - Theta(z))/(t'_j - z) takes its limit Theta'(t'_j)."""
        c, m = self.clark, self.model
        z = np.asarray(z, dtype=complex)[..., None]
        q = difference_quotient(c.zeta - m.theta(z), c.atoms - z, c.atoms,
                                lambda: m.theta_prime(z))
        terms = self.u * c.weights * q
        return np.sqrt(np.pi) * kahan_sum(np.moveaxis(terms, -1, 0))

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
        val, tail = lebesgue_integral(lambda x: cabs(self(x)) ** 2,
                                      self.clark.atoms)
        return float(np.sqrt(val.real)), tail


def clark_transform(clark: ClarkMeasure, model: ModelPair, u):
    """Clark transform of coefficients u on the atoms of sigma_zeta."""
    if clark.p > 0:
        raise MassPresent("sigma_zeta has a point mass at infinity")
    return ClarkField(clark, model, u)
