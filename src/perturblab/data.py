"""Discrete spectral data, perturbation data and admissibility checks.

The unperturbed operator is multiplication by the variable on a finite
discrete measure sum_n mu_n * delta_{t_n} with 0 outside the support,
held once as two read-only arrays: the positions t and the masses mu.  A
perturbation is described by per-atom values a_n, b_n and a coupling kappa
(scalar for rank one, an n x n matrix for rank n).  Admissibility asks that
the coupling kappa - b* A^{-1} a be invertible: for rank one, that kappa
differ from the weighted pairing sum_n a_n conj(b_n) mu_n / t_n.  For finite
data the starred condition collapses to the same one, which the report
records explicitly.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidData
from ._numutil import sum_by_abs_pole, numerical_rank

#: scale-aware equality tolerance for the admissibility comparison
EQUALITY_RTOL = 1e-12
#: singular values below RANK_RTOL * sigma_max count as zero
RANK_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class DiscreteSpectralData:
    """Atoms of the discrete measure: positions t, strictly increasing,
    finite and nonzero, and masses mu > 0, held as read-only float arrays."""

    t: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        t = np.array(self.t, dtype=float)
        mu = np.array(self.mu, dtype=float)
        if t.ndim != 1 or t.shape != mu.shape:
            raise InvalidData("atom positions t and masses mu must be "
                              "matching 1-d arrays")
        if t.size == 0:
            raise InvalidData("need at least one atom")
        bad = ~np.isfinite(t) | (t == 0.0)
        if np.any(bad):
            raise InvalidData("atom position must be finite and nonzero, "
                              f"got {t[bad][0]}")
        bad = ~(np.isfinite(mu) & (mu > 0.0))
        if np.any(bad):
            raise InvalidData(f"atom mass must be positive, got {mu[bad][0]}")
        if np.any(np.diff(t) <= 0):
            raise InvalidData("atom positions must be strictly increasing")
        for name, arr in (("t", t), ("mu", mu)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self):
        return self.t.size


def _as_complex_vector(values, n, name):
    arr = np.asarray(values, dtype=complex).ravel()
    if arr.size != n:
        raise InvalidData(f"{name} must have one entry per atom ({n}), got {arr.size}")
    if not np.all(np.isfinite(arr.view(float))):
        raise InvalidData(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class RankOneData:
    """Rank-one perturbation data (a, b, kappa) over a discrete base."""

    base: DiscreteSpectralData
    a: np.ndarray
    b: np.ndarray
    kappa: complex

    def __post_init__(self):
        n = len(self.base)
        a = _as_complex_vector(self.a, n, "a")
        b = _as_complex_vector(self.b, n, "b")
        if not np.any(a != 0):
            raise InvalidData("a must be nonzero at some atom")
        if np.any(b == 0):
            raise InvalidData("b must be nonzero at every atom (cyclicity)")
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "kappa", complex(self.kappa))

    @property
    def t(self):
        return self.base.t

    @property
    def mu(self):
        return self.base.mu

    @property
    def nu(self):
        """Atom weights of the associated Clark measure: |b_n|^2 mu_n."""
        return np.abs(self.b) ** 2 * self.mu

    @property
    def rank(self):
        return 1

    def adjoint(self):
        """Adjoint data (b, a, conj(kappa))."""
        return RankOneData(self.base, self.b.copy(), self.a.copy(),
                           np.conj(self.kappa))


@dataclass(frozen=True)
class RankNData:
    """Rank-n perturbation data: a, b are N x n, kappa is n x n."""

    base: DiscreteSpectralData
    a: np.ndarray
    b: np.ndarray
    kappa: np.ndarray

    def __post_init__(self):
        n_atoms = len(self.base)
        a = np.atleast_2d(np.asarray(self.a, dtype=complex))
        b = np.atleast_2d(np.asarray(self.b, dtype=complex))
        kappa = np.atleast_2d(np.asarray(self.kappa, dtype=complex))
        if a.shape[0] != n_atoms or b.shape[0] != n_atoms:
            raise InvalidData("a and b must have one row per atom")
        if a.shape[1] != b.shape[1]:
            raise InvalidData("a and b must have the same number of columns")
        n = a.shape[1]
        if kappa.shape != (n, n):
            raise InvalidData(f"kappa must be {n}x{n}")
        if numerical_rank(a, RANK_RTOL) != n or numerical_rank(b, RANK_RTOL) != n:
            raise InvalidData("a and b must have full numerical rank")
        for arr in (a, b, kappa):
            arr.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "kappa", kappa)

    @property
    def t(self):
        return self.base.t

    @property
    def mu(self):
        return self.base.mu

    @property
    def rank(self):
        return self.a.shape[1]

    def adjoint(self):
        """Adjoint data (b, a, kappa^*)."""
        return RankNData(self.base, self.b.copy(), self.a.copy(),
                         self.kappa.conj().T.copy())


@dataclass(frozen=True)
class AdmissibilityReport:
    condition_A: bool
    condition_A_star: bool
    real_type: bool
    kappa_minus_omega: object  # complex for rank one, ndarray for rank n
    witnesses: dict = field(default_factory=dict)


def _pairing(data):
    """sum_n a_n conj(b_n) mu_n / t_n for rank-one data (|t| ascending) and
    the sum of its terms' moduli, the scale of the admissibility test."""
    terms = data.a * np.conj(data.b) * data.mu / data.t
    return sum_by_abs_pole(data.t, terms), float(np.sum(np.abs(terms)))


def pairing_sum(data):
    """sum_n a_n conj(b_n) mu_n / t_n for rank-one data (|t| ascending)."""
    return _pairing(data)[0]


def omega_matrix(data):
    """Weighted pairing matrix omega = b* A^{-1} a, that is
    omega_{jk} = sum_n conj(b_{nj}) a_{nk} mu_n / t_n: kappa - omega is the
    coupling that the realization L = A + a (kappa - omega)^{-1} b* inverts.

    Accepts rank-one data as well, in which case the result is 1 x 1.
    """
    if isinstance(data, RankOneData):
        return np.array([[pairing_sum(data)]])
    t, mu = data.t, data.mu
    n = data.rank
    omega = np.empty((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            omega[j, k] = sum_by_abs_pole(
                t, np.conj(data.b[:, j]) * data.a[:, k] * mu / t)
    return omega


def classify_real_type(data):
    """True iff conj(a) * b is real at every atom and kappa is real."""
    if isinstance(data, RankNData):
        prods = np.sum(np.conj(data.a) * data.b, axis=1)
        kappa_imag = np.max(np.abs(data.kappa.imag))
        kappa_scale = 1.0 + np.max(np.abs(data.kappa))
    else:
        prods = np.conj(data.a) * data.b
        kappa_imag = abs(data.kappa.imag)
        kappa_scale = 1.0 + abs(data.kappa)
    scale = 1.0 + np.max(np.abs(prods))
    return bool(np.max(np.abs(prods.imag)) <= EQUALITY_RTOL * scale
                and kappa_imag <= EQUALITY_RTOL * kappa_scale)


def _scalar_condition(kappa, sigma, terms_abs):
    tol = EQUALITY_RTOL * (1.0 + abs(kappa) + terms_abs)
    return bool(abs(kappa - sigma) > tol), kappa - sigma


def validate(data):
    """Admissibility report for rank-one or rank-n data.

    For finite atomic data a and b are automatically square summable, so the
    admissibility condition reads kappa != sum_n a_n conj(b_n) mu_n / t_n and
    its starred version is the conjugate relation; the two are equivalent,
    which the report records under witnesses["finite_collapse"].  Rank-n data
    are decided through the smallest singular value of kappa - omega, the
    coupling kappa - b* A^{-1} a (omega_matrix).
    """
    real_type = classify_real_type(data)
    if isinstance(data, RankOneData):
        t, mu = data.t, data.mu
        sigma, terms_abs = _pairing(data)
        cond_a, diff = _scalar_condition(data.kappa, sigma, terms_abs)
        sigma_star = sum_by_abs_pole(t, data.b * np.conj(data.a) * mu / t)
        cond_a_star, _ = _scalar_condition(np.conj(data.kappa), sigma_star,
                                           terms_abs)
        witnesses = {
            "pairing_sum": sigma,
            "terms_abs_sum": terms_abs,
            "finite_collapse": True,
        }
        return AdmissibilityReport(cond_a, cond_a_star, real_type, diff,
                                   witnesses)

    omega = omega_matrix(data)
    diff = data.kappa - omega
    scale = 1.0 + np.max(np.abs(data.kappa)) + np.max(np.abs(omega))
    s = np.linalg.svd(diff, compute_uv=False)
    cond_a = bool(s[-1] > EQUALITY_RTOL * scale)
    diff_star = data.kappa.conj().T - omega_matrix(data.adjoint())
    s_star = np.linalg.svd(diff_star, compute_uv=False)
    cond_a_star = bool(s_star[-1] > EQUALITY_RTOL * scale)
    witnesses = {
        "omega": omega,
        "smallest_singular": float(s[-1]),
        "finite_collapse": True,
    }
    return AdmissibilityReport(cond_a, cond_a_star, real_type, diff, witnesses)


@dataclass(frozen=True)
class GeneralizedWeakReport:
    abs_sum: float
    signed_sum: complex
    satisfies: bool
    abs_partial_sums: np.ndarray


def generalized_weak_report(data):
    """Generalized-weakness report for rank-one data.

    abs_sum collects sum |a_n b_n| mu_n / |t_n|; the condition holds when the
    signed pairing sum differs from kappa, decided as validate decides
    condition_A.  Finite data always have a finite abs_sum, so the report
    also exposes its partial sums (in |t| ascending order) for truncation
    families where divergence is the point.
    """
    t, mu = data.t, data.mu
    order = np.argsort(np.abs(t), kind="stable")
    abs_partial = np.cumsum((np.abs(data.a * data.b) * mu / np.abs(t))[order])
    signed_sum, terms_abs = _pairing(data)
    satisfies, _ = _scalar_condition(data.kappa, signed_sum, terms_abs)
    return GeneralizedWeakReport(float(abs_partial[-1]), signed_sum,
                                 satisfies, abs_partial)
