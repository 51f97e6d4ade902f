"""Explicit constructions reproduced at controlled truncation.

Two families live here:

* the spectrum-free instance over t_n = (n - 1/2)^2 whose generating
  function is (1 + Theta)/(2 cos(pi sqrt(z))), truncated to n <= N, with the
  partial-fraction identity for 1/cos(pi sqrt(z)) checked against an explicit
  tail bound;
* the lacunary-gap machinery: greedy doubly-exponential subsequences and the
  zero-interlacing construction A0, B0, S, gamma, g with coefficients d_n and
  weights nu_n, run in extended precision because the 2^n amplification in
  the weights exhausts doubles around K ~ 40.

Everything emits finite identities and partial sums only; no infinite
completeness claim is asserted.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (BadParameters, BisectionFailure, ExhaustedInput,
                     NearPole, NotLacunary, ToleranceFailure)
from .data import DiscreteSpectralData, RankOneData
from .model import CauchyRepresentation, build_model

#: working precision (decimal digits) for the interlacing construction
SECTION4_DPS = 60


def sharp_coefficients(n_terms):
    """t_n = (n - 1/2)^2 and c_n = (2/pi)(-1)^{n+1}(n - 1/2), n = 1..n_terms."""
    n = np.arange(1, n_terms + 1)
    t = (n - 0.5) ** 2
    c = (2.0 / np.pi) * (-1.0) ** (n + 1) * (n - 0.5)
    return t, c


@dataclass(frozen=True)
class SharpInstance:
    n_terms: int
    eps: float
    alpha1: float
    alpha2: float
    data: RankOneData
    a_prime: np.ndarray
    b_prime: np.ndarray
    smooth_a_partial: np.ndarray     # partial sums of sum a'^2 t^(2a1 - 2)
    smooth_b_partial: np.ndarray


def sharp_instance(eps, alpha1, alpha2, n_terms):
    """Truncated data of the zero-free construction.

    a'_n = n^(2 - 2 alpha1 - 1/2 - eps), b'_n = c_n / a'_n with
    c_n = (2/pi)(-1)^(n+1)(n - 1/2), atoms t_n = (n - 1/2)^2, unit masses,
    coupling 1.  Requires alpha1, alpha2 >= 0, alpha1 + alpha2 < 1 and
    eps = 1 - alpha1 - alpha2.
    """
    # negated, so that nan fails each test
    if not (alpha1 >= 0 and alpha2 >= 0 and alpha1 + alpha2 < 1):
        raise BadParameters("need alpha1, alpha2 >= 0 with alpha1 + alpha2 < 1")
    if not abs(eps - (1.0 - alpha1 - alpha2)) <= 1e-12:
        raise BadParameters("eps must equal 1 - alpha1 - alpha2")
    if n_terms < 10:
        raise BadParameters("need at least 10 terms")
    t, c = sharp_coefficients(n_terms)
    n = np.arange(1, n_terms + 1, dtype=float)
    a_prime = n ** (2.0 - 2.0 * alpha1 - 0.5 - eps)
    b_prime = c / a_prime
    base = DiscreteSpectralData(t, np.ones_like(t))
    data = RankOneData(base, a_prime.astype(complex),
                       b_prime.astype(complex), 1.0)
    sa = np.cumsum(a_prime ** 2 * t ** (2 * alpha1 - 2.0))
    sb = np.cumsum(b_prime ** 2 * t ** (2 * alpha2 - 2.0))
    return SharpInstance(n_terms, eps, alpha1, alpha2, data, a_prime, b_prime,
                         sa, sb)


def cos_pi_sqrt(z):
    """cos(pi sqrt(z)), entire in z: cos is even, so either branch of the
    root gives the same value.  mpmath evaluates it with 20 digits plus one
    per decade of |z|, which keeps the error from rounding the argument
    pi sqrt(z) near 1e-20 max(1, |cos(pi sqrt(z))|)."""
    import mpmath as mp

    z = complex(z)
    with mp.workdps(20 + int(np.log10(1.0 + abs(z)))):
        return complex(mp.cos(mp.pi * mp.sqrt(mp.mpc(z))))


@dataclass(frozen=True)
class MittagLefflerReport:
    z: complex
    n_terms: int
    lhs: complex
    rhs_partial: complex
    err: float
    tail_bound: float


def mittag_leffler_check(z, n_terms):
    """Compare 1/cos(pi sqrt(z)) with its truncated pole expansion.

    The partial sum is 1 + sum_{n<=N} (1/(t_n - z) - 1/t_n) c_n, and the
    remainder is bounded in closed form by (2/pi) |z| / (N - 1/2)^2, valid
    once t_{N+1} >= 2|z|.  The error must not exceed the bound (hard check).
    """
    z = complex(z)
    if n_terms < 1:
        raise BadParameters(f"need at least one term, got {n_terms}")
    t, c = sharp_coefficients(n_terms)
    dist = np.min(np.abs(t - z))
    if dist < 0.25:
        raise NearPole(f"z={z} is within 0.25 of a pole")
    if (n_terms + 0.5) ** 2 < 2.0 * abs(z):
        raise BadParameters("tail bound needs (N + 1/2)^2 >= 2|z|")
    rhs = CauchyRepresentation(t, c, 1.0)(z)
    lhs = 1.0 / cos_pi_sqrt(z)
    err = abs(lhs - rhs)
    tail = (2.0 / np.pi) * abs(z) / (n_terms - 0.5) ** 2
    if err > tail:
        raise ToleranceFailure(
            f"expansion error {err} exceeds the tail bound {tail}")
    return MittagLefflerReport(z, n_terms, lhs, rhs, err, tail)


def sharp_zero_freeness(instance: SharpInstance, rectangle):
    """Zero count of the truncated generating function over a rectangle.

    Runs the argument-principle window check; the construction claims no
    zeros in the closed upper half-plane, so the expected count is 0.
    """
    from .diagnostics import volterra_window_check

    model = build_model(instance.data)
    return volterra_window_check(model, rectangle)


# ---------------------------------------------------------------------------
# Lacunary sequences
# ---------------------------------------------------------------------------

def lacunary_sequence(t_seq, max_terms=64):
    """Greedy doubly-exponential subsequence anchored on the spectrum.

    x_1 = 2; each next x_{k+1} = max((2 x_k)^2, t*^2) + 1 where t* is the
    smallest spectrum point above 2 x_k, so that 2 x_k < sqrt(x_{k+1}) and
    the open interval (2 x_k, sqrt(x_{k+1})) contains a spectrum point.
    Consequently x_k >= 2^(2^(k-1)).  max_terms must be at least 2.
    """
    if max_terms < 2:
        raise BadParameters(f"need at least 2 terms, got {max_terms}")
    t = np.sort(np.asarray(t_seq, dtype=float))
    xs = [2.0]
    for _ in range(max_terms - 1):
        lo = 2.0 * xs[-1]
        above = t[t > lo]
        if above.size == 0:
            break
        tstar = float(above[0])
        base = max(lo * lo, tstar * tstar)
        xs.append(base + max(1.0, 1e-9 * base))  # strict bump at any scale
    if len(xs) < 2:
        raise ExhaustedInput("spectrum has no point above 4")
    xs = np.asarray(xs)
    _check_lacunary(xs, t)
    return xs


def _check_lacunary(xs, t):
    """Raise NotLacunary unless xs (x_1 = xs[0]) keeps, for every k,
    2 x_k < sqrt(x_{k+1}) with a point of t in between and, from k = 2 on,
    x_k >= 2^(2^(k-1)) (compared through log2, which cannot overflow)."""
    for k in range(1, len(xs)):
        lo, hi = 2.0 * xs[k - 1], np.sqrt(xs[k])
        if not lo < hi:
            raise NotLacunary(f"2 x_{k} = {lo} is not below sqrt(x_{k + 1})"
                              f" = {hi}")
        if not np.any((t > lo) & (t < hi)):
            raise NotLacunary(f"no spectrum point in (2 x_{k}, "
                              f"sqrt(x_{k + 1})) = ({lo}, {hi})")
        if not np.log2(xs[k]) >= 2.0 ** k:
            raise NotLacunary(f"x_{k + 1} = {xs[k]} is below 2^(2^{k})")


# ---------------------------------------------------------------------------
# Interlacing construction (extended precision)
# ---------------------------------------------------------------------------

@dataclass
class Section4Pipeline:
    t: np.ndarray
    n1_indices: tuple                # 0-based indices of the doubling subsequence
    n2_indices: tuple
    v: np.ndarray
    b0_zeros: np.ndarray             # one per lacunary gap
    sparse_zero_indices: tuple       # 1-based positions k_j = 2^j into b0_zeros
    q: list                          # mpf, atoms outside N1
    d: list                          # mpf coefficients, all atoms
    nu: list                         # mpf weights, all atoms
    residue_rel_errors: np.ndarray
    partial_fraction_rel_error: float
    expansion_rel_error: float       # (arb0) product vs coefficient sums
    sandwich_c1: float
    sandwich_c2: float
    q_total: float
    arb1_max_n: int
    arb2_max_n: int
    weight_sum_outside_n2: float
    inv_t_n2_partial: np.ndarray
    double_precision_max_k: int
    evaluators: dict = field(repr=False)

    @property
    def nu_float(self):
        return np.array([float(x) for x in self.nu])


def _doubling_subsequence(t, start=0):
    idx = [start]
    for i in range(start + 1, len(t)):
        if t[i] > 2.0 * t[idx[-1]]:
            idx.append(i)
    return idx


def _tail_monotone_max_n(w, x):
    """Largest N in 1..8 such that, for every M <= N, w_j x_j^M (as floats)
    strictly decreases over the second half of j; 0 if none."""
    best = 0
    for n_exp in range(1, 9):
        tail = [float(wj * xj ** n_exp) for wj, xj in zip(w, x)][len(w) // 2:]
        if len(tail) >= 2 and all(a > b for a, b in zip(tail, tail[1:])):
            best = n_exp
        else:
            break
    return best


def section4_build(t_seq, truncation, dps=SECTION4_DPS):
    """Run the interlacing construction on the first `truncation` atoms.

    Builds A0 over the doubling subsequence {t_{n_k}}, the interlacing
    function B0 with one zero per lacunary gap, the sparse product S over
    zeros k_j = 2^j, the correction gamma with weights q_n, the function g
    with g/A = (B0/(S A0)) gamma, the coefficients d_n of the partial
    fraction of g/A, and the weights nu: nu_{n_k} = d_{n_k}^2, nu_{m_j} = 1
    on a second doubling subsequence, nu_n = 2^n d_n^2 elsewhere.  All
    identity families are checked in `dps`-digit arithmetic.
    """
    import mpmath as mp

    if not 6 <= truncation <= 200:
        raise BadParameters(f"truncation must lie in 6..200, got {truncation}")
    t_np = np.sort(np.asarray(t_seq, dtype=float))[:truncation]
    if t_np.size < truncation:
        raise BadParameters(f"truncation {truncation} needs as many atoms, "
                            f"got {t_np.size}")
    if np.any(t_np <= 0):
        raise BadParameters("constructed part needs positive atoms")
    if not np.all(np.diff(t_np) > 0):
        raise BadParameters("constructed part needs strictly increasing atoms")
    with mp.workdps(dps):
        t = [mp.mpf(x) for x in t_np]
        k_atoms = len(t)
        n1 = _doubling_subsequence(t_np)
        if len(n1) < 3:
            raise ExhaustedInput("need at least 3 lacunary points")
        others = [i for i in range(k_atoms) if i not in set(n1)]
        t1 = [t[i] for i in n1]

        # interlacing sum with deterministic weights; nudge away from
        # accidental zeros at the remaining atoms
        v = [mp.mpf(1.5) + mp.mpf(0.25) * mp.sin(k + 1)
             for k in range(len(n1))]
        b0_over_a0 = _partial_fraction(v, t1, mp.fsum)
        for _ in range(100):
            bad = any(abs(b0_over_a0(t[i])) < mp.mpf("1e-12")
                      for i in others)
            if not bad and abs(b0_over_a0(mp.mpf(0))) > mp.mpf("1e-12"):
                break
            v = [x + mp.mpf("1e-3") for x in v]
            b0_over_a0 = _partial_fraction(v, t1, mp.fsum)
        a0 = _product(t1, mp.fprod)

        # one zero of B0/A0 per gap (the ratio increases from -inf to +inf)
        zeros = [_gap_zero(b0_over_a0, lo, hi) for lo, hi in zip(t1, t1[1:])]
        sparse_pos = [2 ** j for j in range(len(zeros).bit_length())]
        sparse = [zeros[p - 1] for p in sparse_pos]

        q, b0_over_sa0, d, s_fn, gamma = _section4_coefficients(
            t, n1, others, v, sparse, mp.fsum, mp.fprod)
        q_total = mp.fsum(q)
        if not q_total < 1:
            raise BadParameters(f"sum q_n = {q_total} is not < 1")

        def g_over_a(z):
            return b0_over_a0(z) / s_fn(z) * gamma(z)

        a_full = _product(t, mp.fprod)

        # residue check: lim (z - t_n) g/A via Richardson at adaptive h.
        # Coefficients span hundreds of orders of magnitude, so the working
        # precision is raised per atom until the step h remains representable
        # next to t_n while keeping h * |regular| / |d_n| below 1e-12.
        res_err = []
        gaps = np.diff(t_np)
        for i in range(k_atoms):
            local = mp.mpf(min(gaps[max(i - 1, 0)],
                               gaps[min(i, len(gaps) - 1)]))
            reg = abs(g_over_a(t[i] + local / 4))
            ratio = reg / abs(d[i]) if reg > 0 else mp.mpf(1)
            dps_i = max(dps, 40 + int(mp.log10(max(ratio, 1) * t[i] + 10)))
            with mp.workdps(dps_i):
                h = min(local * mp.mpf("1e-3"),
                        mp.mpf("1e-12") / max(ratio, mp.mpf(1)))
                f1 = h * g_over_a(t[i] + h)
                f2 = (h / 2) * g_over_a(t[i] + h / 2)
                res = 2 * f2 - f1
                res_err.append(float(abs(res - d[i]) / abs(d[i])))

        # (arb0) g/A = sum d_n/(z - t_n) and (arb7) B0/(S A0) = sum
        # p_k/(t_{n_k} - z), as pointwise identities off the atoms
        probes = [t[0] / 3 + mp.mpf(2) * mp.j, (t[0] + t[1]) / 2,
                  2 * t[-1] + mp.j, -t[-1] / 3 + mp.j / 2]
        exp_err = _worst_rel_error(
            g_over_a, _partial_fraction([-x for x in d], t, mp.fsum), probes)
        pf_err = _worst_rel_error(lambda z: b0_over_a0(z) / s_fn(z),
                                  b0_over_sa0, probes)

        # sandwich constants on a grid: the exhibited C1, C2 satisfy
        # C1 * env^2 <= |g/A| |S| <= C2 / env^2 with env = |Im z|/(|z|^2+1)
        c1, c2 = mp.inf, mp.mpf(0)
        for x in np.linspace(-float(t_np[-1]), 2 * float(t_np[-1]), 9):
            for y in (0.5, 1.0, 3.0):
                z = mp.mpf(x) + mp.j * mp.mpf(y)
                m_val = abs(g_over_a(z)) * abs(s_fn(z))
                envelope = (abs(mp.im(z)) / (abs(z) ** 2 + 1))
                c1 = min(c1, m_val / envelope ** 2)
                c2 = max(c2, m_val * envelope ** 2)

        # second doubling subsequence, disjoint from N1, extra-sparse
        n2 = []
        last = -mp.inf
        for count, i in enumerate(others):
            if t[i] > 2 * last and count % 2 == 0:
                n2.append(i)
                last = t[i]

        nu = [mp.mpf(0)] * k_atoms
        n1set, n2set = set(n1), set(n2)
        for i in range(k_atoms):
            if i in n1set:
                nu[i] = d[i] ** 2
            elif i in n2set:
                nu[i] = mp.mpf(1)
            else:
                nu[i] = mp.mpf(2) ** (i + 1) * d[i] ** 2

        weight_outside_n2 = float(mp.fsum(nu[i] for i in range(k_atoms)
                                          if i not in n2set))
        inv_t_n2 = np.cumsum([1.0 / float(t[i]) for i in n2])
        nu_over_a = _partial_fraction(nu, t, mp.fsum)

        def b_full(z):
            return a_full(z) * nu_over_a(z)

        # decay checks (tail-monotone) for the two index families
        arb1_max = _tail_monotone_max_n(
            [mp.mpf(2) ** (i + 1) * abs(d[i]) for i in others],
            [t[i] for i in others])
        arb2_max = _tail_monotone_max_n(
            [mp.mpf(2) ** (k + 1) * abs(d[i]) for k, i in enumerate(n1)], t1)

        # largest index at which plain float64 still reproduces d and a
        # nonzero nu to 1e-8 (nu underflows first, to 0.0 or subnormals)
        with np.errstate(all="ignore"):
            d_float = _section4_coefficients(
                t_np, n1, others, [float(x) for x in v],
                [float(s) for s in sparse], sum, math.prod)[2]

        def held(x, exact):
            return x != 0 and abs(x - exact) <= 1e-8 * abs(exact)

        max_k = 0
        while max_k < k_atoms and held(d_float[max_k], float(d[max_k])) \
                and held(float(nu[max_k]), nu[max_k]):
            max_k += 1

        evaluators = {"A0": a0, "B0": lambda z: a0(z) * b0_over_a0(z),
                      "S": s_fn, "gamma": gamma, "g_over_A": g_over_a,
                      "A": a_full, "B": b_full,
                      "E": lambda z: a_full(z) - mp.j * b_full(z)}
        return Section4Pipeline(
            t=t_np, n1_indices=tuple(n1), n2_indices=tuple(n2),
            v=np.array([float(x) for x in v]),
            b0_zeros=np.array([float(z) for z in zeros]),
            sparse_zero_indices=tuple(sparse_pos),
            q=q, d=d, nu=nu,
            residue_rel_errors=np.array(res_err),
            partial_fraction_rel_error=pf_err,
            expansion_rel_error=exp_err,
            sandwich_c1=float(c1), sandwich_c2=float(c2),
            q_total=float(q_total),
            arb1_max_n=arb1_max, arb2_max_n=arb2_max,
            weight_sum_outside_n2=weight_outside_n2,
            inv_t_n2_partial=inv_t_n2,
            double_precision_max_k=max_k,
            evaluators=evaluators)


def _partial_fraction(coeffs, poles, fsum, c0=0):
    """z -> c0 + sum_k coeffs[k]/(poles[k] - z), summed in order by fsum."""
    return lambda z: c0 + fsum(c / (x - z) for c, x in zip(coeffs, poles))


def _product(roots, fprod):
    """z -> prod_k (1 - z/x_k) over the roots x_k, in order by fprod."""
    return lambda z: fprod(1 - z / x for x in roots)


def _worst_rel_error(lhs, rhs, points):
    """The largest |lhs(z) - rhs(z)|/|lhs(z)| over the points, as a float."""
    return max(float(abs(a - b) / abs(a))
               for a, b in ((lhs(z), rhs(z)) for z in points))


def _gap_zero(f, lo, hi):
    """The zero of f in the gap (lo, hi), across which f changes sign, by a
    bracketed Ridders solve in the working precision."""
    import mpmath as mp

    pad = (hi - lo) * mp.mpf("1e-30")
    a_, b_ = lo + pad, hi - pad
    if not f(a_) * f(b_) < 0:
        raise BisectionFailure(f"no sign change in ({lo}, {hi})")
    try:
        x = mp.findroot(f, (a_, b_), solver="ridder", verify=True)
    except (ValueError, ZeroDivisionError) as exc:
        raise BisectionFailure(f"Ridders solve in ({lo}, {hi}) failed: {exc}")
    if not lo < x < hi:     # an infinite or nan x fails this too
        raise BisectionFailure(f"zero {x} is outside the gap ({lo}, {hi})")
    return x


def _section4_coefficients(t, n1, others, v, sparse, fsum, fprod):
    """The weights q_n over others, B0/(S A0) as the partial fraction
    sum_k p_k/(t_{n_k} - z), the coefficients d_n of g/A, S and gamma, in
    the arithmetic of t's entries: section4_build's extended precision (mpf
    with mp.fsum, mp.fprod) or float64 (with sum, math.prod)."""
    s_fn = _product(sparse, fprod)
    t1 = [t[i] for i in n1]
    p = [v[k] / s_fn(x) for k, x in enumerate(t1)]
    # q_n = (2 t_n)^{-n} min_k |t_n - t_{n_k}| with 1-based n
    q = [(2 * t[i]) ** (-(i + 1)) * min(abs(t[i] - x) for x in t1)
         for i in others]
    b0_over_sa0 = _partial_fraction(p, t1, fsum)
    gamma = _partial_fraction(q, [t[i] for i in others], fsum, 1)
    d = [None] * len(t)
    for k, i in enumerate(n1):
        d[i] = -p[k] * gamma(t[i])
    for m, i in enumerate(others):
        d[i] = -q[m] * b0_over_sa0(t[i])
    return q, b0_over_sa0, d, s_fn, gamma
