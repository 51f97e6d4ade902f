"""Model functions: closed forms, identities, kernels and Clark machinery.

The expected values are hand-derived rational arithmetic: for the one-atom
instance (t=1, mu=1, a=b=1, kappa=2) beta(z) = (2-z)/(1-z), and with the
zero free constant phi(z) = i(2-z)/(i + z(1-i)); for the two-atom instance
beta(z) = (z^2-2z-1)/(z^2-1) with zeros 1 +- sqrt(2).
"""

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from perturblab.errors import DegenerateZeta, EvaluationAtPole
from perturblab.model import (build_debranges, build_model, canonical_delta,
                              clark_measure, clark_transform, debranges_kernel,
                              discrete_inner, kernel_k, kernel_k_tilde,
                              lebesgue_integral)
from perturblab.engine import kappa_shift

from conftest import random_instance, separated_instance


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
        num = m.rational().num_beta
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
            forms = build_model(data).rational()
            scale = np.max(np.abs(forms.num_beta))
            diff = np.max(np.abs(P.polysub(forms.num_beta,
                                           forms.num_beta_star)))
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


class TestRegularParts:
    """The batched regular parts against the scalar ones, point by point.

    Both sum the same terms in the same order, so they agree bit for bit
    (a fortiori within a few ulps of the sum of |terms|).
    """

    @staticmethod
    def check(rep, zs):
        js = rep.nearest_poles(zs)
        assert js.tolist() == [rep.nearest_pole(z) for z in zs]
        b, bp = rep.regular_parts(js, zs)
        assert np.all(np.isfinite(b)) and np.all(np.isfinite(bp))
        scalar = np.array([rep.regular_part(j, z) for j, z in zip(js, zs)])
        dscalar = np.array([rep.derivative_regular_part(j, z)
                            for j, z in zip(js, zs)])
        assert b.tobytes() == scalar.tobytes()
        assert bp.tobytes() == dscalar.tobytes()

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

    def test_memory_is_bounded(self, rng):
        # gathered into (atoms - 1) x points arrays, 500 atoms x 4096
        # points took well over 100 MB
        import tracemalloc

        m = build_model(separated_instance(rng, 500))
        zs = rng.uniform(-25.0, 25.0, 4096) + 1j * rng.uniform(-3.0, 3.0, 4096)
        tracemalloc.start()
        try:
            m.log_derivative_phi_array(zs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestArrayForms:
    """phi_array and log_derivative_phi_array against the scalar methods."""

    @pytest.mark.parametrize("n, k", [(1, 5), (7, 21), (60, 333), (500, 41)])
    def test_bitwise_equal_to_scalar(self, rng, n, k):
        data = random_instance(rng, n) if n < 60 else \
            separated_instance(rng, n)
        m = build_model(data)
        zs = sample_points(rng, m.t, k)
        phi = np.array([m.phi(z) for z in zs])
        logd = np.array([m.log_derivative_phi(z) for z in zs])
        assert m.phi_array(zs).tobytes() == phi.tobytes()
        assert m.log_derivative_phi_array(zs).tobytes() == logd.tobytes()


class TestDeBranges:
    def test_one_atom_pair(self, one_atom):
        pair = build_debranges(one_atom)
        assert pair.A_poly == pytest.approx([1.0, -1.0])
        assert pair.B_poly == pytest.approx([1.0])
        assert pair.E(2j) == pytest.approx(1 - 2j - 1j)

    def test_zeros_at_atoms(self, two_atom):
        pair = build_debranges(two_atom)
        for t in two_atom.t:
            assert abs(pair.A(t)) < 1e-14

    def test_hermite_biehler_margin(self, two_atom, rng):
        pair = build_debranges(two_atom)
        assert pair.hermite_biehler_margin(2j) > 0
        for _ in range(100):
            z = complex(rng.uniform(-10, 10), rng.uniform(0.01, 10))
            assert pair.hermite_biehler_margin(z) > 0

    def test_estar_over_e_matches_canonical_theta(self, rng):
        data = random_instance(rng, 6)
        pair = build_debranges(data)
        m = build_model(data)  # canonical delta
        for z in (1j, 0.77 + 0.2j, -3.0 + 1.5j):
            assert pair.E_star(z) / pair.E(z) == pytest.approx(m.theta(z),
                                                               rel=1e-11)

    def test_partial_fraction_identity(self, rng):
        data = random_instance(rng, 5)
        pair = build_debranges(data)
        for z in (0.9j, 2.3 + 0.4j):
            lhs = pair.B(z) / pair.A(z)
            rhs = np.sum(data.nu / (data.t - z))
            assert lhs == pytest.approx(rhs, rel=1e-11)


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

    def test_k_tilde_relations(self, two_atom):
        m = build_model(two_atom)
        lam = 0.45  # real, off the atoms
        for z in (0.8j, 2.2 + 1.1j):
            assert kernel_k_tilde(m, lam, z) == pytest.approx(
                -m.theta(lam) * kernel_k(m, lam, z), rel=1e-11)
        lam_c = 0.3 + 0.8j
        for z in (1.4j, -0.7 + 0.5j):
            assert kernel_k_tilde(m, lam_c, z) == pytest.approx(
                m.theta(z) * np.conj(kernel_k(m, lam_c, np.conj(z))),
                rel=1e-11)

    def test_debranges_kernel_positive_diagonal(self, two_atom):
        pair = build_debranges(two_atom)
        val = debranges_kernel(pair, 1j, 1j)
        assert abs(val.imag) < 1e-12
        assert val.real > 0

    def test_debranges_kernel_transport(self, two_atom):
        m = build_model(two_atom)
        pair = build_debranges(two_atom)
        w, z = 0.5 + 0.6j, -1.4 + 0.9j
        transported = (1j / (2 * np.pi)) * np.conj(pair.E(w)) * pair.E(z) \
            * kernel_k(m, w, z)
        assert debranges_kernel(pair, w, z) == pytest.approx(transported,
                                                             rel=1e-11)


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
    from hypothesis import given, settings, strategies as st

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
        assert abs(m.phi(z) - m.beta(z) * m.one_plus_theta(z) / 2.0) \
            <= 1e-12 * max(1.0, abs(m.phi(z)))

    @given(st.lists(st.floats(0.1, 3.0), min_size=2, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_clark_weights_sum_rule(self, gaps):
        # sum of sigma_zeta weights with the 1/(1+t^2) damping matches the
        # Herglotz trace Re G(i) for any unimodular zeta off Theta(inf)
        data = self._data_from(gaps, 2.5)
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
