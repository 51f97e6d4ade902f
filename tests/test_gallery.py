"""Explicit constructions: zero-free instance, expansions, interlacing build."""

import re

import mpmath as mp
import numpy as np
import pytest

from perturblab import gallery
from perturblab.errors import (BadParameters, BisectionFailure,
                               ExhaustedInput, NearPole, NotLacunary)
from perturblab.gallery import (_check_lacunary, _gap_zero, cos_pi_sqrt,
                                lacunary_sequence, mittag_leffler_check,
                                section4_build, sharp_instance,
                                sharp_zero_freeness)
from perturblab.model import build_model


class TestSharpInstance:
    def test_atoms_and_coefficients(self):
        inst = sharp_instance(1.0, 0.0, 0.0, 12)
        assert inst.data.t[2] == pytest.approx(6.25)
        # a'_n = n^(2 - 2a1 - 1/2 - eps) = sqrt(n) here; b'_1 = c_1 = 1/pi
        assert inst.a_prime[:4] == pytest.approx(np.sqrt([1, 2, 3, 4]))
        assert inst.b_prime[0] == pytest.approx(1.0 / np.pi)
        assert inst.data.kappa == 1.0

    def test_signs_alternate(self):
        inst = sharp_instance(1.0, 0.0, 0.0, 12)
        c = inst.a_prime * inst.b_prime
        assert np.all(np.sign(c) == (-1.0) ** (np.arange(1, 13) + 1))

    def test_smoothness_partial_sums_converge(self):
        inst = sharp_instance(0.4, 0.3, 0.3, 400)
        inc_a = np.diff(inst.smooth_a_partial)
        inc_b = np.diff(inst.smooth_b_partial)
        # monotone-tail check: increments eventually decrease
        assert np.all(np.diff(inc_a[50:]) < 0)
        assert np.all(np.diff(inc_b[50:]) < 0)

    def test_parameter_validation(self):
        with pytest.raises(BadParameters):
            sharp_instance(0.5, 0.3, 0.3, 50)   # eps != 1 - a1 - a2
        with pytest.raises(BadParameters):
            sharp_instance(-0.2, 0.6, 0.6, 50)
        # nan once passed every range check, and the data carried nan
        for eps, alpha1, alpha2 in ((1.0, np.nan, 0.0), (1.0, 0.0, np.nan),
                                    (np.nan, 0.0, 0.0), (np.inf, 0.0, 0.0)):
            with pytest.raises(BadParameters):
                sharp_instance(eps, alpha1, alpha2, 50)

    def test_truncation_identity_improves_with_n(self):
        # beta_N approaches 1/cos(pi sqrt z); discrepancy decreases in N
        grid = [-1.0, -5.3, 3.1 + 1.7j, 20.2 + 5.0j]
        errs = []
        for n in (50, 100, 200, 400):
            m = build_model(sharp_instance(1.0, 0.0, 0.0, n).data)
            err = max(abs(m.beta(z) - 1.0 / cos_pi_sqrt(z)) for z in grid)
            errs.append(err)
        assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))


class TestMittagLeffler:
    def test_at_minus_one(self):
        rep = mittag_leffler_check(-1.0, 1000)
        assert rep.lhs == pytest.approx(1.0 / np.cosh(np.pi), rel=1e-14)
        assert rep.err <= rep.tail_bound

    def test_at_zero_exact(self):
        rep = mittag_leffler_check(0.0, 50)
        assert rep.err == 0.0
        assert rep.lhs == pytest.approx(1.0)

    def test_error_below_bound_at_many_points(self):
        for z in (-1.0, -10.0, 3.0 + 4.0j, 17.3, -0.6 + 0.9j):
            rep = mittag_leffler_check(z, 400)
            assert rep.err <= rep.tail_bound

    def test_near_pole_rejected(self):
        with pytest.raises(NearPole):
            mittag_leffler_check(0.3, 100)  # t_1 = 0.25

    def test_bound_needs_enough_terms(self):
        with pytest.raises(BadParameters):
            mittag_leffler_check(-1e6, 100)


class TestZeroFreeness:
    def test_small_window_no_zeros(self):
        inst = sharp_instance(1.0, 0.0, 0.0, 120)
        rep = sharp_zero_freeness(inst, (0.1, 20.0, 0.0, 5.0))
        assert rep.count == 0
        assert rep.boundary_min_abs_phi > 0

    def test_flipped_coefficient_creates_zero(self):
        # breaking one sign of c_n pulls a zero into the closed upper
        # half-plane (verified once by exploration, frozen here)
        from conftest import make_data
        from perturblab.diagnostics import volterra_window_check

        inst = sharp_instance(1.0, 0.0, 0.0, 120)
        b = inst.data.b.copy()
        b[0] = -b[0]
        broken = make_data(inst.data.t, inst.data.mu, inst.data.a, b, 1.0)
        m = build_model(broken)
        rep = volterra_window_check(m, (0.05, 20.0, 0.0, 5.0))
        assert rep.count >= 1

    def test_sharp_model_route_matches_oracle(self):
        # the monomial basis of the numerator underflows for these widely
        # spread atoms; the secular linearization of phi_zeros does not
        from perturblab.engine import build_matrix, oracle_spectrum, phi_zeros
        from perturblab._numutil import distances, matched_max_distance

        inst = sharp_instance(1.0, 0.0, 0.0, 120)
        m = build_model(inst.data)
        eigs = oracle_spectrum(build_matrix(inst.data)).eigenvalues
        scale = max(1.0, float(np.max(np.abs(eigs))))
        zeros = phi_zeros(m)
        assert matched_max_distance(distances(eigs, zeros.zeros)) \
            <= 1e-10 * scale
        assert zeros.upper.size > 0
        assert max(abs(m.phi(z)) for z in zeros.upper) <= 1e-12


class TestLacunary:
    def test_integers_replay(self):
        xs = lacunary_sequence(np.arange(1.0, 1e7), max_terms=4)
        assert xs[0] == 2.0
        assert xs[1] == 26.0  # max((2*2)^2, 5^2) + 1
        t = np.arange(1.0, 1e7)
        for k in range(len(xs) - 1):
            assert 2 * xs[k] < np.sqrt(xs[k + 1])
            assert np.any((t > 2 * xs[k]) & (t < np.sqrt(xs[k + 1])))

    def test_growth_bound(self):
        xs = lacunary_sequence(2.0 ** np.arange(0, 64), max_terms=5)
        assert xs.size >= 4
        for k, x in enumerate(xs):
            assert x >= 2.0 ** (2.0 ** k) or k == 0

    def test_exhausted(self):
        with pytest.raises(ExhaustedInput):
            lacunary_sequence([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("xs, broken", [
        ([2.0, 16.0], "2 x_1 = 4.0 is not below sqrt(x_2) = 4.0"),
        ([2.0, 26.0], "no spectrum point in (2 x_1, sqrt(x_2))"),
        # from x_1 >= 2 on, the first inequality implies the growth bound
        ([0.1, 1.0], "x_2 = 1.0 is below 2^(2^1)"),
    ])
    def test_invariants_raise_typed_errors(self, xs, broken):
        t = np.array([0.5, 4.0, 5.2])         # none in (4, sqrt(26) = 5.1)
        with pytest.raises(NotLacunary, match=re.escape(broken)):
            _check_lacunary(np.array(xs), t)


@pytest.fixture(scope="module")
def pipe():
    return section4_build(np.arange(1.0, 31.0), 30)


class TestSection4:
    def test_lacunary_selection(self, pipe):
        t_sel = pipe.t[list(pipe.n1_indices)]
        assert np.all(t_sel[1:] > 2 * t_sel[:-1])

    def test_one_zero_per_gap(self, pipe):
        t_sel = pipe.t[list(pipe.n1_indices)]
        assert pipe.b0_zeros.size == t_sel.size - 1
        for lo, hi, s in zip(t_sel, t_sel[1:], pipe.b0_zeros):
            assert lo < s < hi

    def test_residue_identity(self, pipe):
        assert pipe.residue_rel_errors.max() <= 1e-8

    def test_partial_fraction_identities(self, pipe):
        assert pipe.partial_fraction_rel_error <= 1e-12
        assert pipe.expansion_rel_error <= 1e-12

    def test_report_is_pinned(self, pipe):
        # bit for bit, but for the two identity errors: they sit at the
        # rounding level of the 60-digit arithmetic and follow the last
        # bits of the B0 zeros, so they are bounded instead
        assert pipe.n1_indices == (0, 2, 6, 14)
        assert pipe.n2_indices == (1, 4, 11, 24)
        assert pipe.b0_zeros.tolist() == [
            1.8804321652259288, 5.412284718476613, 12.771151991027285]
        assert pipe.sparse_zero_indices == (1, 2)
        assert pipe.residue_rel_errors.max() == 9.542890315935134e-27
        assert pipe.partial_fraction_rel_error <= 1e-50
        assert pipe.expansion_rel_error <= 1e-50
        assert (pipe.sandwich_c1, pipe.sandwich_c2) == (
            71.253391863082, 0.017215814491622697)
        assert pipe.q_total == 0.06276447576618993
        assert (pipe.arb1_max_n, pipe.arb2_max_n) == (8, 2)
        assert pipe.weight_sum_outside_n2 == 63.544778401024175
        assert pipe.inv_t_n2_partial.tolist() == [
            0.5, 0.7, 0.7833333333333333, 0.8233333333333334]
        assert pipe.double_precision_max_k == 30

    def test_q_budget(self, pipe):
        assert 0 < pipe.q_total < 1

    def test_decay_assertions(self, pipe):
        assert pipe.arb1_max_n >= 3
        assert pipe.arb2_max_n >= 1

    def test_sandwich_constants(self, pipe):
        assert 0 < pipe.sandwich_c2
        assert np.isfinite(pipe.sandwich_c1)
        assert pipe.sandwich_c1 > 0

    def test_weights_bookkeeping(self, pipe):
        assert pipe.weight_sum_outside_n2 > 0
        n2 = set(pipe.n2_indices)
        n1 = set(pipe.n1_indices)
        nu = pipe.nu_float
        for i in range(len(pipe.t)):
            if i in n1:
                assert nu[i] == pytest.approx(float(pipe.d[i]) ** 2, rel=1e-12)
            elif i in n2:
                assert nu[i] == 1.0
        assert pipe.inv_t_n2_partial.size == len(pipe.n2_indices)

    def test_double_precision_boundary_documented(self, pipe):
        assert pipe.double_precision_max_k >= 10

    def test_hermite_biehler_of_built_pair(self, pipe):
        e = pipe.evaluators["E"]
        import mpmath as mp
        for z in (mp.mpc(2, 1), mp.mpc(-3, 2), mp.mpc(10, 0.5)):
            assert abs(e(z)) > abs(e(mp.conj(z)))

    def test_denser_spectrum_loses_doubles_earlier(self):
        # quadratic spectrum reaches the 2^n amplification wall sooner
        pipe = section4_build(np.arange(1.0, 61.0) ** 2, 60, dps=90)
        assert pipe.residue_rel_errors.max() <= 1e-8
        assert pipe.double_precision_max_k < 60

    @pytest.mark.parametrize("k, max_k", [(30, 30), (60, 60), (120, 76)])
    def test_double_range_covers_the_weights(self, k, max_k):
        # at K = 120 the d_n still hold in doubles, but nu_n = 2^n d_n^2
        # leaves the normal range at index 74 and is 0.0 from index 77 on
        import mpmath as mp
        pipe = section4_build(np.arange(1.0, k + 11.0), k)
        assert pipe.double_precision_max_k == max_k
        nu = pipe.nu_float
        assert np.all(nu[:max_k] > 0)
        for x, exact in zip(nu[:max_k], pipe.nu):
            assert abs(mp.mpf(x) - exact) <= 1e-8 * exact
        if max_k < k:
            assert abs(mp.mpf(nu[max_k]) - pipe.nu[max_k]) > \
                1e-8 * pipe.nu[max_k]
            assert np.count_nonzero(nu == 0.0) == 42


def bisection_zero(f, lo, hi):
    """The B0 zero of one gap as first found: 4 dps bisection steps from
    the padded gap, in the working precision."""
    pad = (hi - lo) * mp.mpf("1e-30")
    a_, b_ = lo + pad, hi - pad
    fa = f(a_)
    for _ in range(mp.mp.dps * 4):
        mid = (a_ + b_) / 2
        fm = f(mid)
        if fm == 0:
            return mid
        if (fm < 0) == (fa < 0):
            a_, fa = mid, fm
        else:
            b_ = mid
    return (a_ + b_) / 2


class TestGapZeros:
    @pytest.mark.parametrize("power, k, dps", [
        (1, 30, 60), (1, 60, 60), (1, 120, 60), (2, 60, 90)])
    def test_ridders_matches_bisection(self, monkeypatch, power, k, dps):
        solves = []

        def recorded(f, lo, hi):
            x = _gap_zero(f, lo, hi)
            solves.append((x, bisection_zero(f, lo, hi)))
            return x

        monkeypatch.setattr(gallery, "_gap_zero", recorded)
        pipe = section4_build(np.arange(1.0, k + 1.0) ** power, k, dps=dps)
        assert len(solves) == pipe.b0_zeros.size >= 3
        for (x, ref), zero in zip(solves, pipe.b0_zeros):
            assert float(x) == float(ref) == zero
            assert abs(x - ref) <= mp.mpf(10) ** (2 - dps) * abs(ref)

    def test_no_sign_change(self):
        with pytest.raises(BisectionFailure, match="no sign change"):
            _gap_zero(lambda z: (z - 3) ** 2 + 1, mp.mpf(1), mp.mpf(5))

    @pytest.mark.parametrize("error", [ValueError, ZeroDivisionError])
    def test_solver_error(self, monkeypatch, tmp_path, capsys, error):
        from perturblab.cli import main

        def failing(*args, **kwargs):
            raise error("no convergence")

        monkeypatch.setattr(mp, "findroot", failing)
        with pytest.raises(BisectionFailure, match="no convergence"):
            section4_build(np.arange(1.0, 9.0), 8)
        assert main(["--quiet", "--out", str(tmp_path / "out"), "gallery",
                     "section4", "--k", "8"]) == 4
        assert "BisectionFailure" in capsys.readouterr().err

    @pytest.mark.parametrize("zero", [
        lambda a_, b_: b_ + 1, lambda a_, b_: a_ - 1, lambda a_, b_: mp.inf,
        lambda a_, b_: mp.nan])
    def test_zero_outside_the_gap(self, monkeypatch, zero):
        def solve(f, bracket, **kwargs):
            return zero(*bracket)

        monkeypatch.setattr(mp, "findroot", solve)
        with pytest.raises(BisectionFailure, match="outside the gap"):
            section4_build(np.arange(1.0, 9.0), 8)

