"""Model functions: closed forms, identities, kernels and Clark machinery.

The expected values are hand-derived rational arithmetic: for the one-atom
instance (t=1, mu=1, a=b=1, kappa=2) beta(z) = (2-z)/(1-z), and with the
zero free constant phi(z) = i(2-z)/(i + z(1-i)); for the two-atom instance
beta(z) = (z^2-2z-1)/(z^2-1) with zeros 1 +- sqrt(2).
"""

import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from perturblab.errors import DegenerateZeta, EvaluationAtPole
from perturblab.model import (INTEGRAL_RTOL, CauchyRepresentation,
                              build_model, canonical_delta, clark_measure,
                              clark_transform, discrete_inner, kernel_k,
                              lebesgue_integral)
from perturblab.engine import kappa_shift
from perturblab._numutil import cabs, cmul, kahan_sum

from conftest import beta_numerators, random_instance, separated_instance


class TestClosedForms:
    def test_beta_one_atom(self, one_atom):
        m = build_model(one_atom)
        for z in (0.5, 3.0, 1j, -2.0 + 0.7j):
            assert m.beta(z) == pytest.approx((2 - z) / (1 - z), rel=1e-14)

    def test_phi_one_atom_zero_delta(self, one_atom):
        m = build_model(one_atom, delta=0.0)
        for z in (0.0, 0.5, 2.7, 1j):
            expected = 1j * (2 - z) / (1j + z * (1 - 1j))
            assert m.phi(z) == pytest.approx(expected, rel=1e-13)
        assert m.phi(1.0) == pytest.approx(1j)
        assert m.rho(1j) == pytest.approx(1j / (1 - 1j))

    def test_phi_at_origin_tracks_kappa(self, one_atom):
        # kappa = 2 != 0 so phi(0) != 0 for any delta
        assert abs(build_model(one_atom).phi(0.0)) > 0.5
        assert abs(build_model(one_atom, delta=0.0).phi(0.0)) > 0.5

    def test_beta_two_atom_partial_fractions(self, two_atom):
        m = build_model(two_atom)
        for z in (0.5, 2.0 + 1.0j, -3.3):
            assert m.beta(z) == pytest.approx(
                (z * z - 2 * z - 1) / (z * z - 1), rel=1e-13)
        num, _ = beta_numerators(two_atom)
        roots = np.sort(P.polyroots(num).real)
        assert roots == pytest.approx([1 - np.sqrt(2), 1 + np.sqrt(2)],
                                      abs=1e-12)

    def test_canonical_delta_gives_pure_cauchy_rho(self, two_atom):
        m = build_model(two_atom)
        assert m.delta == pytest.approx(canonical_delta(two_atom))
        for z in (0.3, 1j, -5.0 + 2.0j):
            direct = np.sum(two_atom.nu / (two_atom.t - z))
            assert m.rho(z) == pytest.approx(direct, rel=1e-13)


class TestEvaluation:
    def test_pole_guard(self, one_atom):
        m = build_model(one_atom)
        with pytest.raises(EvaluationAtPole):
            m.eval("beta", 1.0 + 1e-12)
        with pytest.raises(EvaluationAtPole):
            m.eval("rho", 1.0)

    def test_theta_unimodular_on_line(self, two_atom, rng):
        m = build_model(two_atom)
        xs = rng.uniform(-50.0, 50.0, 1000)
        xs = xs[np.min(np.abs(xs[:, None] - m.t[None, :]), axis=1) > 1e-6]
        vals = np.array([abs(m.theta(x)) for x in xs])
        assert np.max(np.abs(vals - 1.0)) < 1e-10

    def test_theta_pointwise_definition(self, two_atom):
        m = build_model(two_atom)
        for z in (1j, 0.2 + 0.9j, -4.0 + 0.3j):
            rho = m.rho(z)
            assert m.theta(z) == pytest.approx((1j - rho) / (1j + rho),
                                               rel=1e-13)

    def test_residue_normalization(self, two_atom):
        m = build_model(two_atom)
        for n, t in enumerate(m.t):
            z = t + 1e-7
            w = two_atom.a[n] * np.conj(two_atom.b[n]) * two_atom.mu[n]
            assert (z - t) * m.beta(z) == pytest.approx(-w, rel=1e-5)

    def test_herglotz_positivity(self, rng):
        data = random_instance(rng, 6)
        m = build_model(data)
        for _ in range(200):
            z = complex(rng.uniform(-30, 30), rng.uniform(0.01, 30))
            assert m.rho(z).imag > 0

    def test_phi_at_atoms_equals_i_a_over_b(self, rng):
        for _ in range(25):
            data = random_instance(rng)
            m = build_model(data)
            for n, t in enumerate(m.t):
                expected = 1j * data.a[n] / data.b[n]
                assert m.phi(t) == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_theta_prime_law_and_finite_differences(self, rng):
        for _ in range(10):
            data = random_instance(rng, 5)
            m = build_model(data)
            for n, t in enumerate(m.t):
                analytic = m.theta_prime(t)
                assert analytic == pytest.approx(-2j / data.nu[n], rel=1e-10)
                # Theta varies on the scale of the local weight
                h = 1e-4 * min(data.nu[n], 0.01 * (1.0 + abs(t)))
                fd = (m.theta(t + h) - m.theta(t - h)) / (2 * h)
                assert fd == pytest.approx(analytic, rel=1e-6)

    def test_real_type_phi_tilde_equals_phi_coefficients(self, rng):
        for _ in range(10):
            data = random_instance(rng, 6, real_type=True)
            num_beta, num_beta_star = beta_numerators(data)
            scale = np.max(np.abs(num_beta))
            diff = np.max(np.abs(P.polysub(num_beta, num_beta_star)))
            assert diff <= 1e-12 * scale

    def test_lower_bound_one_minus_abs_theta(self, two_atom, rng):
        # 1 - |Theta(z)| >= c Im z/(|z|^2+1) on a sampled grid, c exhibited
        m = build_model(two_atom)
        ratios = []
        for _ in range(200):
            z = complex(rng.uniform(-20, 20), rng.uniform(1.0, 20.0))
            ratios.append((1 - abs(m.theta(z))) * (abs(z) ** 2 + 1) / z.imag)
        assert min(ratios) > 0

    def test_shift_law_beta_equals_shifted_kappa(self, rng):
        data = random_instance(rng, 7)
        m = build_model(data)
        for lam in (0.123, -4.56, 2.0 + 1.0j):
            assert m.beta(lam) == pytest.approx(kappa_shift(data, lam),
                                                rel=1e-12)

    def test_phi_tilde_symmetry_identity(self, rng):
        data = random_instance(rng, 5)
        m = build_model(data)
        for z in (0.4 + 0.8j, -2.0 + 0.1j, 3.0 + 2.0j):
            expected = m.theta(z) * np.conj(m.phi(np.conj(z)))
            assert m.phi_tilde(z) == pytest.approx(expected, rel=1e-11)


def sample_points(rng, t, k):
    """k random points, then points inside the pole guard and exactly at
    up to k atoms (all atoms when there are fewer)."""
    near = t if t.size <= k else rng.choice(t, k, replace=False)
    guard = 1e-8 * (1.0 + np.abs(near))
    return np.concatenate([
        rng.uniform(-25.0, 25.0, k) + 1j * rng.uniform(-3.0, 3.0, k),
        near + rng.uniform(-0.5, 0.5, near.size) * guard,
        near.astype(complex),
    ])


def nearest_pole(rep, z):
    """Index of the pole of rep closest to the point z, by argmin."""
    return int(np.argmin(np.abs(rep.poles - z)))


def own_pole_terms(rep, j, z):
    """1/(t - z) at every pole in ascending-|t| order and the slot of pole
    j, whose term is an exact 0 (z may lie on t_j)."""
    tm = rep.poles[rep._order]
    slot = rep._rank[j]
    d = tm - z
    d[slot] = 1.0
    return tm, rep.residues[rep._order], 1.0 / d, slot


def regular_part(rep, j, z):
    """F(z) - w_j/(t_j - z) at one point: the compensated scalar loop over
    every pole in ascending-|t| order, pole j's term an exact 0."""
    tm, wm, r, slot = own_pole_terms(rep, j, z)
    terms = wm * (r - 1.0 / tm)
    terms[slot] = 0.0
    head = rep.constant - rep.residues[j] / rep.poles[j]
    return head + kahan_sum(terms)


def derivative_regular_part(rep, j, z):
    """The derivative of regular_part at one point, by the same loop:
    terms w (1/(t - z))^2."""
    _, wm, r, slot = own_pole_terms(rep, j, z)
    terms = wm * r ** 2
    terms[slot] = 0.0
    return kahan_sum(terms)


def nearest_by_argmin(poles, zs):
    """Index of the pole nearest each point, by an argmin over all poles
    (the lower index on a tie)."""
    zs = np.asarray(zs, dtype=complex)
    return np.argmin(np.abs(poles - zs.ravel()[:, None]),
                     axis=1).reshape(zs.shape)


class TestNearestPoles:
    """The two-neighbour search against the argmin over all poles."""

    @pytest.mark.parametrize("n", [1, 2, 7, 60, 500])
    @pytest.mark.parametrize("integer_poles", [False, True])
    def test_equal_to_argmin(self, rng, n, integer_poles):
        # integer poles make the midpoints exact ties; large |Im z| makes
        # every distance round alike, and points past the ends have one
        # neighbour only
        if integer_poles:
            t = np.sort(rng.choice(np.r_[-3 * n:0, 1:3 * n + 1], n,
                                   replace=False)).astype(float)
        else:
            t = np.sort(rng.uniform(-20.0, 20.0, n))
        rep = CauchyRepresentation(t, np.ones(n), 1.0)
        xs = np.concatenate([t, t[:-1] / 2.0 + t[1:] / 2.0,
                             [t[0] - 1.0, t[-1] + 1.0, -1e300, 1e300],
                             rng.uniform(t[0] - 5.0, t[-1] + 5.0, 20)])
        ys = [0.0, 1e-300, 0.5, -3.0, 1e16, 1e200, -1e200]
        zs = (xs[:, None] + 1j * np.array(ys)).ravel()
        zs = np.concatenate([zs, [np.nan, np.inf, complex(0.0, -np.inf),
                                  complex(np.nan, 1.0)]])
        assert rep.nearest_poles(zs).tolist() == \
            nearest_by_argmin(t, zs).tolist()
        grid = zs[:24].reshape(4, 6)
        assert rep.nearest_poles(grid).tolist() == \
            nearest_by_argmin(t, grid).tolist()
        assert rep.nearest_poles(zs[5]) == nearest_by_argmin(t, zs[5])


class TestRegularParts:
    """The batched regular parts against the scalar loops, point by point.

    Both sum the same terms in the same order, so they agree bit for bit
    (a fortiori within a few ulps of the sum of |terms|), in a batch of
    many points and in a batch of one.
    """

    @staticmethod
    def check(rep, zs):
        js = rep.nearest_poles(zs)
        assert js.tolist() == [nearest_pole(rep, z) for z in zs]
        b, bp = rep.regular_parts(js, zs)
        assert np.all(np.isfinite(b)) and np.all(np.isfinite(bp))
        scalar = np.array([regular_part(rep, j, z) for j, z in zip(js, zs)])
        dscalar = np.array([derivative_regular_part(rep, j, z)
                            for j, z in zip(js, zs)])
        assert b.tobytes() == scalar.tobytes()
        assert bp.tobytes() == dscalar.tobytes()
        ones = [rep.regular_parts(rep.nearest_poles(z), z) for z in zs]
        assert all(type(v) is np.complex128 for pair in ones for v in pair)
        assert np.array(ones).T.tobytes() == np.array([scalar,
                                                       dscalar]).tobytes()
        (values,) = rep.regular_parts(js, zs, derivatives=False)
        assert values.tobytes() == scalar.tobytes()

    @pytest.mark.parametrize("n", [1, 7, 60])
    def test_random_guard_and_atom_points(self, rng, n):
        data = random_instance(rng, n) if n < 60 else \
            separated_instance(rng, n)
        m = build_model(data)
        t = m.t
        guard = 1e-8 * (1.0 + np.abs(t))
        zs = np.concatenate([
            rng.uniform(-25.0, 25.0, 3 * n) + 1j * rng.uniform(-3.0, 3.0, 3 * n),
            t + rng.uniform(-0.5, 0.5, n) * guard,     # inside the pole guard
            t.astype(complex),                         # exactly at the atoms
        ])
        for rep in (m.beta, m.rho):
            self.check(rep, zs)

    def test_500_atoms_in_several_blocks(self, rng):
        # 93 points: the 499 rows take several blocks (44 rows per block at
        # 4096 elements), and so does the nearest-pole search
        m = build_model(separated_instance(rng, 500))
        zs = sample_points(rng, m.t, 31)
        for rep in (m.beta, m.rho):
            self.check(rep, zs)

    @pytest.mark.parametrize("instance", ["separated-300", "sharp-120"])
    def test_kernel_within_two_eps_of_mpmath(self, rng, instance):
        # the sums of the kernel itself, own pole left out and all poles,
        # against 40-digit sums of the exact terms at the same float inputs
        import mpmath as mp

        from perturblab.gallery import sharp_instance
        from perturblab.model import _partial_fraction_sums

        if instance == "sharp-120":
            m = build_model(sharp_instance(1.0, 0.0, 0.0, 120).data)
        else:
            m = build_model(separated_instance(rng, 300))
        t = m.t
        span = t[-1] - t[0]
        k = 24
        near = rng.choice(t, k, replace=False)
        zs = np.concatenate([
            rng.uniform(t[0] - 5.0, t[-1] + 5.0, k)
            + 1j * rng.uniform(-0.1, 0.1, k) * span,
            near + rng.uniform(-0.5, 0.5, k) * 1e-8 * (1.0 + np.abs(near)),
            near.astype(complex),
            1e300 * np.exp(2j * np.pi * rng.uniform(size=8)),
        ])
        off = np.r_[:k, zs.size - 8:zs.size]    # off the pole guards
        for rep in (m.beta, m.rho):
            js = rep.nearest_poles(zs)
            own = _partial_fraction_sums((rep,), zs, rep._rank[js], True)
            every = _partial_fraction_sums((rep,), zs[off], None, True)
            with mp.workdps(40):
                tm = [mp.mpf(float(x)) for x in rep.poles]
                wm = [mp.mpc(complex(x)) for x in rep.residues]

                def exact(z, skip):
                    z = mp.mpc(complex(z))
                    terms = [[w * (1 / (x - z) - 1 / x), w / (x - z) ** 2]
                             for i, (x, w) in enumerate(zip(tm, wm))
                             if i != skip]
                    return [(mp.fsum(col), mp.fsum(abs(v) for v in col))
                            for col in zip(*terms)]

                for sums, points, skips in ((own, zs, js),
                                            (every, zs[off], [-1] * off.size)):
                    for p, (z, skip) in enumerate(zip(points, skips)):
                        for row, (ref, size) in enumerate(exact(z, skip)):
                            err = float(abs(mp.mpc(complex(sums[row, p]))
                                            - ref))
                            assert err <= 2 * np.finfo(float).eps * \
                                float(size), (rep is m.rho, row, z)

    def test_memory_is_bounded(self, rng):
        # gathered into (atoms - 1) x points arrays, 500 atoms x 4096
        # points took well over 100 MB; a window check holds every node of
        # a refinement level at once, here 128 panels (the bottom edge on
        # the axis is split at each of the 60 atoms)
        import tracemalloc

        from perturblab.diagnostics import volterra_window_check

        m = build_model(separated_instance(rng, 500))
        zs = rng.uniform(-25.0, 25.0, 4096) + 1j * rng.uniform(-3.0, 3.0, 4096)
        m60 = build_model(separated_instance(rng, 60))
        for run in (lambda: m.theta_prime(zs),
                    lambda: volterra_window_check(m60, (-21.0, 21.0, 0.0,
                                                        2.0))):
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 8e6


class TestArrayForms:
    """Every evaluator called on an array against its one-point calls."""

    FUNCTIONS = ("phi", "theta", "phi_tilde", "theta_prime")

    @pytest.mark.parametrize("n, k", [(1, 5), (7, 21), (60, 333), (500, 41)])
    def test_bitwise_equal_to_scalar(self, rng, n, k):
        data = random_instance(rng, n) if n < 60 else \
            separated_instance(rng, n)
        m = build_model(data)
        zs = sample_points(rng, m.t, k)     # with guard points and atoms
        for name in self.FUNCTIONS:
            fn = getattr(m, name)
            one = np.array([fn(z) for z in zs])
            assert fn(zs).tobytes() == one.tobytes(), name
        off = zs[:k]                        # beta and rho: off the guards
        for rep in (m.beta, m.rho):
            # the former one-point formula, all N terms in ascending |t|
            t, w = rep.poles[rep._order], rep.residues[rep._order]
            ref = np.array([rep.constant + kahan_sum(w * (1.0 / (t - z)
                                                          - 1.0 / t))
                            for z in off])
            assert rep(off).tobytes() == ref.tobytes()
            assert np.array([rep(z) for z in off]).tobytes() == ref.tobytes()

    def test_clark_field_and_kernels(self, rng):
        m = build_model(random_instance(rng, 7))
        zs = sample_points(rng, m.t, 9)
        cm = clark_measure(m, np.exp(0.4j))
        zs = np.concatenate([zs, cm.atoms])         # the limit at the atoms
        F = clark_transform(cm, m, rng.normal(size=7) + 1j)
        lam = 0.3 + 0.8j
        for fn in (F, lambda z: kernel_k(m, lam, z)):
            one = np.array([fn(z) for z in zs])
            assert fn(zs).tobytes() == one.tobytes()

    def test_shape_is_kept(self, rng):
        m = build_model(random_instance(rng, 7))
        zs = sample_points(rng, m.t, 12)[:12].reshape(3, 4)
        for fn in (m.phi, m.theta_prime, m.beta):
            assert fn(zs).shape == (3, 4)
            assert fn(zs)[2, 1] == fn(zs[2, 1])

    def test_guard_point_in_array_raises(self, rng):
        m = build_model(random_instance(rng, 7))
        zs = np.array([0.3 + 1j, 5.0 - 2j, m.t[3] + 1e-12, 2.0 + 0.5j])
        for rep in (m.beta, m.rho):
            with pytest.raises(EvaluationAtPole):
                rep(zs)
            rep(np.delete(zs, 2))


def unfused(m, name, zs):
    """The evaluator name of m at zs from per-transform regular parts: one
    CauchyRepresentation.regular_parts call for each of beta, rho and
    beta*, then the regrouped formula."""
    j = m.beta.nearest_poles(zs)
    u = m.t[j] - zs
    nu = m.nu[j]
    r, rp = m.rho.regular_parts(j, zs)
    den = 1j * u + nu + cmul(u, r)
    if name == "theta":
        return (1j * u - nu - cmul(u, r)) / den
    if name == "theta_prime":
        return -2j * (nu + cmul(cmul(u, u), rp)) / cmul(den, den)
    beta = m._beta_star if name == "phi_tilde" else m.beta
    b, _ = beta.regular_parts(j, zs)
    return 1j * (beta.residues[j] + cmul(u, b)) / den


class TestFusedKernel:
    """One pass of _partial_fraction_sums over beta, rho (and beta*) against
    one regular_parts call per transform: the same terms in the same order,
    so every evaluator agrees bit for bit."""

    @pytest.mark.parametrize("n", [1, 7, 60, 500])
    def test_bitwise_equal_to_unfused(self, rng, n):
        data = random_instance(rng, n) if n < 60 else \
            separated_instance(rng, n)
        m = build_model(data)
        zs = sample_points(rng, m.t, 40)    # with guard points and atoms
        for name in TestArrayForms.FUNCTIONS:
            fused = getattr(m, name)(zs)
            assert np.all(np.isfinite(fused)), name
            assert fused.tobytes() == unfused(m, name, zs).tobytes(), name


class TestOverflow:
    """At |z| = 1e308 the regrouped products with u = t_j - z overflow;
    there the quotients are taken with numerator and denominator over u."""

    POINTS = (1e308, -1e308, 1e308j)

    def test_limits_at_infinity(self):
        m = build_model(separated_instance(
            np.random.Generator(np.random.Philox(7)), 6))
        beta_inf = m.beta.constant - np.sum(m.beta.residues / m.t)
        one_plus = 1.0 + m.theta_infinity
        for z in self.POINTS:
            assert abs(m.phi(z) - beta_inf * one_plus / 2.0) <= \
                1e-12 * abs(beta_inf * one_plus / 2.0)
            assert abs(1.0 + m.theta(z) - one_plus) <= 1e-12 * abs(one_plus)
            assert np.isfinite(m.theta_prime(z))
        zs = np.array(self.POINTS + (0.5 + 1j,))
        # an array takes the limit only where it must
        assert m.phi(zs)[-1] == m.phi(0.5 + 1j)
        assert m.phi(zs)[:3].tobytes() == np.array(
            [m.phi(z) for z in self.POINTS]).tobytes()


class TestClark:
    def test_one_atom_minus_one(self, one_atom):
        cm = clark_measure(build_model(one_atom), -1.0)
        assert cm.atoms == pytest.approx([1.0])
        assert cm.weights == pytest.approx([1.0])
        assert cm.p == 0.0

    def test_two_atom_minus_one_recovers_nu(self, two_atom):
        cm = clark_measure(build_model(two_atom), -1.0)
        assert cm.atoms == pytest.approx(two_atom.t)
        assert cm.weights == pytest.approx(two_atom.nu)

    def test_zeta_from_sample_point_is_atom(self, two_atom):
        m = build_model(two_atom)
        x0 = 0.35
        cm = clark_measure(m, m.theta(x0))
        assert np.min(np.abs(cm.atoms - x0)) < 1e-9

    def test_atoms_solve_theta_equals_zeta(self, rng):
        data = random_instance(rng, 6)
        m = build_model(data)
        zeta = np.exp(0.7j)
        cm = clark_measure(m, zeta)
        assert cm.atoms.size == data.t.size
        for x, w in zip(cm.atoms, cm.weights):
            assert m.theta(x) == pytest.approx(zeta, abs=1e-9)
            assert w == pytest.approx(2.0 / abs(m.theta_prime(x)), rel=1e-9)

    def test_sixty_separated_atoms(self):
        # Theta = zeta has one real solution in each gap of the base atoms
        # or beyond them; a monomial companion loses these from about 40
        # atoms and reports complex solutions
        data = separated_instance(np.random.Generator(np.random.Philox(60)),
                                  60)
        m = build_model(data)
        zeta = 1j
        cm = clark_measure(m, zeta)
        assert cm.atoms.dtype == float
        assert np.unique(np.searchsorted(data.t, cm.atoms)).size == 60
        assert max(abs(m.theta(x) - zeta) for x in cm.atoms) < 1e-10
        g = (zeta + m.theta(1j)) / (zeta - m.theta(1j))
        assert np.sum(cm.weights / (cm.atoms ** 2 + 1.0)) == pytest.approx(
            g.real, rel=1e-10)

    def test_degenerate_zeta_raises(self, one_atom):
        m = build_model(one_atom, delta=0.0)
        with pytest.raises(DegenerateZeta):
            clark_measure(m, m.theta_infinity)


class TestKernels:
    def test_reproducing_formula_both_inner_products(self, two_atom):
        m = build_model(two_atom)
        cm = clark_measure(m, -1.0)
        lam, mu_pt = 0.3 + 0.4j, -0.2 + 0.9j
        f = lambda z: kernel_k(m, mu_pt, z)
        kl = lambda z: kernel_k(m, lam, z)
        expected = 2j * np.pi * f(lam)
        fv = np.array([f(t) for t in cm.atoms])
        kv = np.array([kl(t) for t in cm.atoms])
        disc = discrete_inner(fv, kv, cm.weights)
        assert disc == pytest.approx(expected, rel=1e-10)
        quadv, _ = lebesgue_integral(lambda x: f(x) * np.conj(kl(x)), cm.atoms)
        assert quadv == pytest.approx(expected, rel=1e-6)

class TestLebesgueIntegral:
    @pytest.mark.parametrize("a", [1.0, 0.75, 0.55])
    def test_closed_form(self, a):
        # integral of (1 + x^2)^-a is B(1/2, a - 1/2); the tails decay like
        # |x|^-2a, here |x|^-2, |x|^-1.5 and |x|^-1.1
        exact = math.sqrt(math.pi) * math.gamma(a - 0.5) / math.gamma(a)
        val, _ = lebesgue_integral(lambda x: (1.0 + x * x) ** -a, (0.0,))
        assert abs(val - exact) <= 1e-12 * exact

    def test_lorentzian_within_rtol(self):
        # within the relative tolerance the routine is given, whatever the
        # node count of its panels; no breakpoint, so the core is one piece
        val, _ = lebesgue_integral(lambda x: 1.0 / (1.0 + x * x))
        assert abs(val - math.pi) <= INTEGRAL_RTOL * math.pi

    def test_odd_integrand_vanishes(self):
        # the tolerance follows the integral of |fn|, not the zero integral
        # of fn, so no panel is bisected down to the depth limit
        points = []

        def fn(x):
            points.append(x.size)
            assert sum(points) <= 1280
            return x / (1.0 + x * x) / (1.0 + x * x)

        assert lebesgue_integral(fn)[0] == 0.0

    def test_rounding_floor_stops_a_spike(self, monkeypatch):
        # criterion 06's seventh Clark field, |F|^2 about 4.8e5 between the
        # atoms 6.138 and 6.188; at a relative tolerance of 1e-12 the halved
        # tolerances fell below the rounding of the panels' integrals and
        # 16,050 panels went through gauss_legendre, down to depth 24, for
        # the value pinned below
        import perturblab.model as model
        import perturblab._numutil as numutil
        from test_acceptance import SEED, instance_set

        rng = np.random.Generator(np.random.Philox(SEED + 2))
        for data in instance_set(7):
            n = data.t.size
            u = rng.normal(size=n) + 1j * rng.normal(size=n)
            rng.uniform(size=4)         # the draws of lam and mu_pt
        m = build_model(data)
        F = clark_transform(clark_measure(m, -1.0), m, u)
        panels, errors = [], []
        gauss_legendre, adaptive_panel = (numutil.gauss_legendre,
                                          model.adaptive_panel)

        def counted(fn, pieces):
            panels.append(len(pieces))
            return gauss_legendre(fn, pieces)

        def recorded(*args):
            parts = adaptive_panel(*args)
            errors.extend(e for _, e in parts)
            return parts

        monkeypatch.setattr(numutil, "gauss_legendre", counted)
        monkeypatch.setattr(model, "adaptive_panel", recorded)
        monkeypatch.setattr(model, "INTEGRAL_RTOL", 1e-12)
        val, _ = lebesgue_integral(lambda x: cabs(F(x)) ** 2,
                                   F.clark.atoms)
        assert sum(panels) <= 16050 // 4
        assert abs(val - 1034.1626877352687) <= sum(errors)


class TestClarkTransform:
    def test_single_atom_coefficient_gives_kernel(self, one_atom):
        m = build_model(one_atom)
        cm = clark_measure(m, -1.0)
        F = clark_transform(cm, m, [1.0])
        # output proportional to the kernel at the atom
        k = lambda z: kernel_k(m, 1.0, z)
        z1, z2 = 0.3 + 0.2j, -2.0 + 1.0j
        assert F(z1) * k(z2) == pytest.approx(F(z2) * k(z1), rel=1e-11)
        norm, _ = F.lebesgue_norm()
        assert norm == pytest.approx(F.discrete_norm(), rel=1e-6)

    def test_zero_input_gives_zero(self, two_atom):
        m = build_model(two_atom)
        cm = clark_measure(m, -1.0)
        F = clark_transform(cm, m, [0.0, 0.0])
        assert F(0.7 + 0.3j) == 0.0

    def test_unitarity_constant_two_pi(self, rng):
        data = random_instance(rng, 4)
        m = build_model(data)
        cm = clark_measure(m, -1.0)
        u = rng.normal(size=4) + 1j * rng.normal(size=4)
        F = clark_transform(cm, m, u)
        norm, _ = F.lebesgue_norm()
        assert norm == pytest.approx(2 * np.pi * F.input_norm(), rel=1e-6)
        assert norm == pytest.approx(F.discrete_norm(), rel=1e-6)

    def test_cross_zeta_orthogonality(self, two_atom):
        m = build_model(two_atom)
        cm = clark_measure(m, -1.0)
        f1 = clark_transform(cm, m, [1.0, 0.0])
        f2 = clark_transform(cm, m, [0.0, 1.0])
        other = clark_measure(m, 1j)
        v1 = np.array([f1(x) for x in other.atoms])
        v2 = np.array([f2(x) for x in other.atoms])
        ip = discrete_inner(v1, v2, other.weights)
        scale = np.sqrt(abs(discrete_inner(v1, v1, other.weights))
                        * abs(discrete_inner(v2, v2, other.weights)))
        assert abs(ip) < 1e-10 * scale


class TestPropertyBased:
    from hypothesis import example, given, settings, strategies as st

    @staticmethod
    def _data_from(draw_ts, draw_kappa):
        from conftest import make_data
        t = np.cumsum(np.asarray(draw_ts)) + 0.5
        n = t.size
        return make_data(t, np.ones(n), np.linspace(1.0, 2.0, n),
                         np.linspace(0.5, 1.5, n), draw_kappa)

    @given(st.lists(st.floats(0.1, 3.0), min_size=2, max_size=7),
           st.floats(-4.0, 4.0))
    @settings(max_examples=30, deadline=None)
    def test_unimodularity_and_positivity(self, gaps, kappa):
        from perturblab.data import pairing_sum
        data = self._data_from(gaps, kappa)
        if abs(kappa - pairing_sum(data)) < 1e-6:
            return
        m = build_model(data)
        x = float(np.max(data.t)) * 1.7 + 0.37
        assert abs(abs(m.theta(x)) - 1.0) < 1e-10
        z = 0.3 + 1.1j
        assert m.rho(z).imag > 0
        assert abs(m.phi(z) - m.beta(z) * (1.0 + m.theta(z)) / 2.0) \
            <= 1e-12 * max(1.0, abs(m.phi(z)))

    @given(st.lists(st.floats(0.1, 3.0), min_size=2, max_size=6))
    @example([0.5, 0.5])    # kappa = 2.5 is the pairing sum here
    @settings(max_examples=25, deadline=None)
    def test_clark_weights_sum_rule(self, gaps):
        # sum of sigma_zeta weights with the 1/(1+t^2) damping matches the
        # Herglotz trace Re G(i) for any unimodular zeta off Theta(inf)
        from perturblab.data import pairing_sum
        data = self._data_from(gaps, 2.5)
        if abs(2.5 - pairing_sum(data)) < 1e-6:
            return
        m = build_model(data)
        zeta = np.exp(1.1j)
        if abs(zeta - m.theta_infinity) < 1e-3:
            return
        cm = clark_measure(m, zeta)
        g = (zeta + m.theta(1j)) / (zeta - m.theta(1j))
        lhs = float(np.sum(cm.weights / (cm.atoms ** 2 + 1.0)))
        assert lhs == pytest.approx(g.real, rel=1e-8)


class TestNearDegenerateZeta:
    def test_one_atom_escapes_with_growing_weight(self, two_atom):
        m = build_model(two_atom)
        zeta = m.theta_infinity * np.exp(1e-4j)
        cm = clark_measure(m, zeta)
        assert cm.atoms.size == 2
        for x in cm.atoms:
            assert abs(m.theta(x) - zeta) < 1e-9
        # the escaping atom carries the nascent point mass
        assert np.max(np.abs(cm.atoms)) > 1e3
        assert np.max(cm.weights) > 1e6
