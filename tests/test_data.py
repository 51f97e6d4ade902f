"""Spectral-data validation, omega matrices and weak-perturbation reports."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perturblab.data import (DiscreteSpectralData,
                             RankNData, classify_real_type,
                             generalized_weak_report, omega_matrix, validate)
from perturblab.errors import InvalidData

from conftest import make_data


class TestStructure:
    def test_atom_rejects_zero_position(self):
        for t, shown in ((0.0, "0.0"), (np.nan, "nan"), (-np.inf, "-inf")):
            with pytest.raises(InvalidData, match="atom position must be "
                               f"finite and nonzero, got {shown}$"):
                DiscreteSpectralData([-1.0, t, 2.0], [1.0, 1.0, 1.0])

    def test_atom_rejects_nonpositive_mass(self):
        for mu, shown in ((0.0, "0.0"), (-1.0, "-1.0"), (np.nan, "nan"),
                          (np.inf, "inf")):
            with pytest.raises(InvalidData, match="atom mass must be "
                               f"positive, got {shown}$"):
                DiscreteSpectralData([-1.0, 1.0, 2.0], [1.0, mu, 1.0])

    def test_atoms_must_increase(self):
        for t in ([1.0, 1.0], [2.0, 1.0]):
            with pytest.raises(InvalidData, match="strictly increasing"):
                DiscreteSpectralData(t, [1.0, 2.0])

    @pytest.mark.parametrize("t, mu, message", [
        ([], [], "need at least one atom"),
        ([1.0, 2.0], [1.0], "matching 1-d arrays"),
        ([[1.0, 2.0]], [[1.0, 1.0]], "matching 1-d arrays"),
        (1.0, 1.0, "matching 1-d arrays"),
    ])
    def test_rejects_malformed_arrays(self, t, mu, message):
        with pytest.raises(InvalidData, match=message):
            DiscreteSpectralData(t, mu)

    def test_arrays_are_read_only_copies(self):
        t, mu = np.array([-1.0, 2.0]), np.array([1.0, 3.0])
        base = DiscreteSpectralData(t, mu)
        t[0] = -5.0
        assert len(base) == 2 and base.t.tolist() == [-1.0, 2.0]
        for arr in (base.t, base.mu):
            assert arr.dtype == float and not arr.flags.writeable

    def test_all_zero_a_rejected(self):
        with pytest.raises(InvalidData):
            make_data([1.0], [1.0], [0.0], [1.0], 1.0)

    def test_zero_b_rejected(self):
        with pytest.raises(InvalidData):
            make_data([1.0, 2.0], [1.0, 1.0], [1.0, 1.0], [1.0, 0.0], 1.0)


class TestValidate:
    def test_one_atom_admissible(self, one_atom):
        rep = validate(one_atom)
        assert rep.condition_A and rep.condition_A_star and rep.real_type
        assert rep.kappa_minus_omega == pytest.approx(1.0)

    def test_one_atom_equality_case(self):
        data = make_data([1.0], [1.0], [1.0], [1.0], 1.0)
        rep = validate(data)
        assert not rep.condition_A
        assert rep.witnesses["finite_collapse"]

    def test_two_atom_omega_zero(self, two_atom):
        rep = validate(two_atom)
        assert rep.condition_A and rep.real_type
        assert omega_matrix(two_atom)[0, 0] == pytest.approx(0.0)

    def test_deterministic(self, two_atom):
        r1, r2 = validate(two_atom), validate(two_atom)
        assert r1.condition_A == r2.condition_A
        assert r1.kappa_minus_omega == r2.kappa_minus_omega

    def test_finite_collapse_a_iff_a_star(self, rng):
        from conftest import random_instance
        for _ in range(40):
            data = random_instance(rng)
            rep = validate(data)
            assert rep.condition_A == rep.condition_A_star


class TestRealType:
    def test_mixed_signs_real(self):
        data = make_data([1.0, 2.0], [1.0, 1.0], [1, 1], [1, -1], 1.0)
        assert classify_real_type(data)

    def test_imaginary_product_not_real(self):
        data = make_data([1.0, 2.0], [1.0, 1.0], [1, 1], [1, 1j], 1.0)
        assert not classify_real_type(data)

    @given(st.integers(1, 6), st.floats(-5, 5))
    @settings(max_examples=25, deadline=None)
    def test_b_equals_a_is_real_type(self, n, kappa):
        t = np.arange(1.0, n + 1.0)
        a = np.exp(1j * np.linspace(0.0, 2.0, n))
        data = make_data(t, np.ones(n), a, a, kappa)
        assert classify_real_type(data)


class TestOmega:
    def test_single_term(self, one_atom):
        assert omega_matrix(one_atom)[0, 0] == pytest.approx(1.0)

    def test_rank_two_identity_pattern(self):
        base = DiscreteSpectralData([-1.0, 1.0], [1.0, 1.0])
        eye = np.eye(2, dtype=complex)
        data = RankNData(base, eye, eye, np.diag([3.0, 3.0]).astype(complex))
        om = omega_matrix(data)
        assert np.allclose(om, np.diag([-1.0, 1.0]))

    def test_adjoint_omega_is_conjugate_transpose(self, rng):
        base = DiscreteSpectralData([-2.0, 0.5, 3.0], [1.0, 0.3, 2.0])
        a = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        b = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        kappa = np.eye(2) * 2.0
        data = RankNData(base, a, b, kappa.astype(complex))
        assert np.allclose(omega_matrix(data.adjoint()),
                           omega_matrix(data).conj().T, atol=1e-13)

    def test_omega_is_b_star_a_inv_a(self, rng):
        # kappa - omega is then the coupling S = kappa - b* A^{-1} a that
        # the realization inverts; kappa = omega^T leaves S invertible
        base = DiscreteSpectralData([-2.0, 0.5, 3.0], [1.0, 0.3, 2.0])
        a = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        b = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        want = (b.conj().T * (base.mu / base.t)) @ a
        data = RankNData(base, a, b, np.eye(2, dtype=complex))
        assert np.allclose(omega_matrix(data), want, atol=1e-13)
        for kappa, admissible in ((want, False), (want.T, True)):
            rep = validate(RankNData(base, a, b, kappa))
            assert rep.condition_A is admissible
            assert rep.condition_A_star is admissible

    def test_rank_n_condition_matches_star(self, rng):
        base = DiscreteSpectralData([-2.0, 0.5, 3.0], [1.0, 0.3, 2.0])
        a = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        b = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        kappa = np.array([[2.0, 0.1], [0.3, 1.0]], dtype=complex)
        rep = validate(RankNData(base, a, b, kappa))
        assert rep.condition_A == rep.condition_A_star


class TestGeneralizedWeak:
    def test_two_atom_sums(self, two_atom):
        rep = generalized_weak_report(two_atom)
        assert rep.abs_sum == pytest.approx(2.0)
        assert rep.signed_sum == pytest.approx(0.0)
        assert rep.satisfies

    def test_equality_fails(self):
        data = make_data([1.0, 2.0], [1.0, 1.0], [1, 1], [1, 1], 1.5)
        rep = generalized_weak_report(data)
        assert rep.signed_sum == pytest.approx(1.5)
        assert not rep.satisfies

    def test_sharp_family_abs_divergence(self):
        # |a_n b_n| mu_n / t_n = (2/pi)/(n - 1/2): harmonic-type growth
        from perturblab.gallery import sharp_instance
        inst = sharp_instance(1.0, 0.0, 0.0, 100)
        rep = generalized_weak_report(inst.data)
        p = rep.abs_partial_sums
        assert np.all(np.diff(p) > 0)
        expected = (2.0 / np.pi) / (np.arange(1, 101) - 0.5)
        assert np.allclose(np.diff(p), expected[1:], rtol=1e-12)
