"""Growth envelopes, integrability, synthesis defects, window counts."""

import hashlib
import json

import numpy as np
import pytest

from perturblab.errors import (BadParameters, DivergentNearRealZero,
                               NotBiorthogonal)
from perturblab.model import (BATCH_ELEMENTS, CauchyRepresentation,
                              build_model)
from perturblab.engine import (build_matrix, compute_spectrum, eigensystem,
                               numerator_log_derivative, phi_zeros,
                               secular_zeros)
from perturblab.diagnostics import (SynthesisDefect, WindowReport,
                                    enumerate_partitions, growth_profile,
                                    integral_test, macaev_check, mass_detect,
                                    synthesis_defect, volterra_window_check)
from perturblab.gallery import sharp_instance
from perturblab.problemio import parse_problem
from perturblab._numutil import (GL_NODES, GL_WEIGHTS, PANEL_POINTS,
                                 adaptive_panel, distances, gauss_legendre,
                                 matched_max_distance)

from conftest import (make_data, no_eigensolve, random_instance,
                      separated_instance, signed_atoms, signed_atoms_loop)
from test_cli import SIX_ATOM


def eigen_count_below(g, lam):
    """Eigenvalues of Hermitian g below lam, by pivot signs of g - lam I.

    Plain Gaussian elimination: the pivots are ratios of leading principal
    minors (determinants), so their negative count is the inertia below lam.
    Independent of any SVD/eig library routine.
    """
    a = (g - lam * np.eye(g.shape[0])).astype(complex).copy()
    n = a.shape[0]
    negatives = 0
    with np.errstate(all="ignore"):  # a grazed eigenvalue inflates one pivot
        for k in range(n):
            piv = a[k, k].real
            if piv == 0.0:
                piv = 1e-300  # sign resolves at the next bisection step
            if piv < 0:
                negatives += 1
            rows = np.arange(k + 1, n)
            if rows.size:
                factors = np.nan_to_num(a[rows, k] / piv)
                a[np.ix_(rows, rows)] -= np.outer(factors, a[k, rows])
    return negatives


def sigma_min_bruteforce(eigsys, partition):
    """Smallest singular value via determinant-based inertia bisection."""
    # rebuild the normalized column matrix the same way the public op does
    mu = eigsys.weights
    wsqrt = np.sqrt(mu)
    cols = [eigsys.model_vectors[:, j] for j in partition[0]] + \
           [eigsys.left_vectors[:, j] for j in partition[1]]
    x = np.stack(cols, axis=1) * wsqrt[:, None]
    x = x / np.linalg.norm(x, axis=0)
    g = x.conj().T @ x
    lo, hi = 0.0, float(np.trace(g).real) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if eigen_count_below(g, mid) >= 1:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-17 * (1.0 + hi):
            break
    return float(np.sqrt(max(0.5 * (lo + hi), 0.0)))


class TestGrowth:
    def test_generalized_weak_envelope_positive(self, rng):
        for _ in range(10):
            data = random_instance(rng, 6)
            gp = growth_profile(build_model(data))
            assert gp.lower_envelope_c > 0
            assert gp.exact_exponent == 0
            assert abs(gp.fitted_exponent) < 0.05
            assert gp.top_decade_ratio < 1.2

    def test_positive_type_beta_limit(self, rng):
        # a = b: y Im beta(iy) -> sum a_n conj(b_n) mu_n > 0
        data = random_instance(rng, 5, real_type=True)
        data = make_data(data.t, data.mu, data.b, data.b, 2.0)
        m = build_model(data)
        y = 1e6
        expected = float(np.sum(np.abs(data.b) ** 2 * data.mu))
        assert (y * m.beta(1j * y)).imag == pytest.approx(expected, rel=1e-4)
        gp = growth_profile(m)
        assert gp.lower_envelope_c > 0

    def test_degenerate_family_envelope_collapses(self, rng):
        # kappa = pairing sum and sum of residues zero: numerator degree
        # drops by two, so y |phi(iy)| -> 0 like 1/y
        t = np.array([1.0, 2.0, 5.0, 7.0])
        w = np.array([1.0, -2.0, 3.0, -2.0])
        data = make_data(t, np.ones(4), w, np.ones(4),
                         float(np.sum(w / t)))
        m = build_model(data, strict=False)
        gp = growth_profile(m)
        assert gp.exact_exponent <= -2
        assert gp.fitted_exponent < -1.9
        left = 10.0 * abs(m.phi(10j))
        assert gp.lower_envelope_c <= 1e-2 * left

    def test_fitted_matches_exact(self, rng):
        data = random_instance(rng, 5)
        gp = growth_profile(build_model(data))
        assert gp.fitted_exponent == pytest.approx(gp.exact_exponent,
                                                   abs=0.05)

    def test_y_max_past_the_square_root_of_the_largest_float(self, two_atom):
        # y^2 of the margins overflowed there, and the exponent and the
        # margin came out nan; the grid's top lies a few ulps above y_max,
        # so sqrt(largest float) itself is refused too
        m = build_model(two_atom)
        edge = np.sqrt(np.finfo(float).max)
        for y_max in (1e300, 1e155, edge):
            with pytest.raises(BadParameters):
                growth_profile(m, y_max=y_max)
        gp = growth_profile(m, y_max=1e154)
        assert np.isfinite([gp.fitted_exponent, gp.inner_margin_c]).all()


class TestIntegral:
    def test_finite_value(self, two_atom):
        rep = integral_test(build_model(two_atom), 2.0, 1.0, 1.0)
        assert rep.convergent
        assert rep.tail_estimate <= 1e-6 * rep.value
        assert rep.value > 0

    def test_real_zero_divergence(self, two_atom):
        with pytest.raises(DivergentNearRealZero):
            integral_test(build_model(two_atom), 2.0, 1.0, 0.0)

    @pytest.mark.parametrize("n_weight, tau, eta", [
        (2.0, 1.0, float("nan")), (2.0, float("inf"), 1.0),
        (float("nan"), 1.0, 1.0), (-float("inf"), 1.0, 1.0),
        (2.0, 1.0, float("inf"))])
    def test_non_finite_parameters_raise(self, two_atom, n_weight, tau, eta):
        # before, eta = nan or tau = inf came back convergent with a nan value
        with pytest.raises(BadParameters, match="finite"):
            integral_test(build_model(two_atom), n_weight, tau, eta)

    def test_monotone_in_weight(self, two_atom):
        m = build_model(two_atom)
        v2 = integral_test(m, 2.0, 1.0, 1.0).value
        v4 = integral_test(m, 4.0, 1.0, 1.0).value
        assert v4 <= v2

    def test_separated_30_atoms_converges(self, rng):
        # 30 atoms spread over [-20, 20]: the decay exponent must not depend
        # on monomial coefficients, whose tail falls below any cutoff here
        m = build_model(separated_instance(rng, 30))
        rep = integral_test(m, 2.0, 1.0, 1.0)
        assert rep.convergent
        assert rep.decay_exponent == -2
        assert np.isfinite(rep.value) and rep.value > 0
        assert growth_profile(m).exact_exponent == 0

    def test_twelve_atoms_pinned(self):
        # the values of the Gauss-Legendre panels, bit for bit, each within
        # 1e-10 of perfbench/references.py's integral (scipy quad in
        # x = tan(s), epsrel 1e-11); the former quad-based value of the
        # first case missed it by 2.5e-10
        m = build_model(separated_instance(
            np.random.Generator(np.random.Philox(12)), 12))
        for case, pinned, reference in (
                ((2.0, 1.0, 1.0), (0.9868464233768881, 1.1269457589340819e-13),
                 0.9868464233764916),
                ((1.5, 2.0, 0.5), (0.9651083926175037, 2.928525525322068e-13),
                 0.9651083926046483)):
            rep = integral_test(m, *case)
            assert (rep.value, rep.tail_estimate) == pinned
            assert abs(rep.value - reference) <= 1e-10


class TestMacaev:
    def test_two_atom(self, two_atom):
        rep = macaev_check(two_atom)
        assert rep.matrix[0, 0] == pytest.approx(1.0)
        assert rep.invertible

    def test_equality_not_invertible(self):
        data = make_data([1.0, 2.0], [1, 1], [1, 1], [1, 1], 1.5)
        rep = macaev_check(data)
        assert not rep.invertible
        assert rep.smallest_singular < 1e-12

    def test_adjoint_same_singular_value(self, rng):
        data = random_instance(rng, 6)
        r1 = macaev_check(data)
        r2 = macaev_check(data.adjoint())
        assert r1.smallest_singular == pytest.approx(r2.smallest_singular,
                                                     rel=1e-12)

    def test_bounded_picture(self, two_atom):
        rep = macaev_check(two_atom, picture="bounded")
        assert rep.matrix[0, 0] == pytest.approx(1.0)  # I + omega, omega = 0


class TestMass:
    def test_canonical_massy_zeta_is_one(self, two_atom):
        m = build_model(two_atom)  # delta canonical: Theta(inf) = 1
        rep = mass_detect(m, 1.0)
        assert rep.has_mass
        s0 = float(np.sum(two_atom.nu))
        assert rep.p_est == pytest.approx(s0)
        assert rep.herglotz_p == pytest.approx(1.0 / s0)

    def test_zero_delta_one_atom(self, one_atom):
        m = build_model(one_atom, delta=0.0)
        rep = mass_detect(m, -1j)
        assert rep.has_mass
        assert rep.p_est == pytest.approx(0.5)
        assert rep.herglotz_p == pytest.approx(2.0)

    def test_minus_one_never_massy(self, rng):
        data = random_instance(rng, 5)
        rep = mass_detect(build_model(data), -1.0)
        assert not rep.has_mass
        assert np.all(np.diff(rep.grid_values[-5:]) > 0)  # linear growth

    def test_random_zeta_no_mass(self, rng):
        data = random_instance(rng, 4)
        rep = mass_detect(build_model(data), np.exp(2.1j))
        assert not rep.has_mass


def separated(n):
    """separated_instance's atoms; an odd n keeps the first n of n + 1."""
    d = separated_instance(np.random.Generator(np.random.Philox(0)),
                           n + n % 2)
    return make_data(d.t[:n], d.mu[:n], d.a[:n], d.b[:n], d.kappa)


def reference_defect(es, j1, j2):
    """(sigma_min, condition) of one partition, the plain way: gather its
    columns in order, normalize each on its own, one np.linalg.svd."""
    cols = []
    for v in ([es.model_vectors[:, j] for j in j1]
              + [es.left_vectors[:, j] for j in j2]):
        c = v * np.sqrt(es.weights)
        cols.append(c / np.sqrt(np.sum(c.real * c.real + c.imag * c.imag)))
    s = np.linalg.svd(np.stack(cols, axis=1), compute_uv=False)
    return s[-1], s[0] / s[-1]


class TestSynthesisDefect:
    def test_two_atom_partitions(self, two_atom):
        es = eigensystem(two_atom)
        for part in [((0, 1), ()), ((0,), (1,)), ((1,), (0,)), ((), (0, 1))]:
            sd = synthesis_defect(es, part)
            assert 0.0 < sd.sigma_min <= 1.0 + 1e-12

    def test_selfadjoint_partition_independent(self, rng):
        data = random_instance(rng, 5, real_type=True)
        data = make_data(data.t, data.mu, data.b, data.b, 1.3)
        es = eigensystem(data)
        vals = []
        for mask in range(2 ** 5):
            j1 = tuple(j for j in range(5) if not (mask >> j) & 1)
            j2 = tuple(j for j in range(5) if (mask >> j) & 1)
            vals.append(synthesis_defect(es, (j1, j2)).sigma_min)
        assert np.max(vals) - np.min(vals) < 1e-10
        assert vals[0] == pytest.approx(1.0, abs=1e-10)

    def test_brute_force_oracle_agrees(self, rng):
        for _ in range(6):
            data = random_instance(rng, int(rng.integers(2, 7)))
            es = eigensystem(data)
            n = es.eigenvalues.size
            for mask in range(2 ** n):
                j1 = tuple(j for j in range(n) if not (mask >> j) & 1)
                j2 = tuple(j for j in range(n) if (mask >> j) & 1)
                svd_val = synthesis_defect(es, (j1, j2)).sigma_min
                brute = sigma_min_bruteforce(es, (j1, j2))
                assert abs(svd_val - brute) <= 1e-10

    def test_enumerate_worst(self, rng):
        data = random_instance(rng, 4)
        es = eigensystem(data)
        worst, checked = enumerate_partitions(es)
        assert checked == 16
        best_seen = min(
            synthesis_defect(es, (tuple(j for j in range(4)
                                        if not (m >> j) & 1),
                                  tuple(j for j in range(4)
                                        if (m >> j) & 1))).sigma_min
            for m in range(16))
        assert worst.sigma_min == pytest.approx(best_seen, rel=1e-12)

    def test_sampled_budget_must_be_positive(self, rng):
        es = eigensystem(random_instance(rng, 13))
        with pytest.raises(BadParameters):
            enumerate_partitions(es, budget=0)

    def test_invariance_under_relabeling_and_phases(self, rng):
        data = random_instance(rng, 4)
        es = eigensystem(data)
        sd = synthesis_defect(es, ((0, 2), (1, 3)))
        # permuting labels inside each side leaves sigma_min unchanged
        sd_perm = synthesis_defect(es, ((2, 0), (3, 1)))
        assert sd.sigma_min == pytest.approx(sd_perm.sigma_min, rel=1e-12)
        # multiplying an eigenvector by a unimodular constant does nothing
        es.model_vectors[:, 0] *= np.exp(0.73j)
        sd_phase = synthesis_defect(es, ((0, 2), (1, 3)))
        assert sd.sigma_min == pytest.approx(sd_phase.sigma_min, rel=1e-12)

    @pytest.mark.parametrize("n", [5, 12, 13, 30])
    def test_sweep_equals_per_partition_reference(self, n):
        # the exhaustive masks, or the per-draw loop of n bits from the same
        # stream with a budget that is no multiple of the kernel's block
        es = eigensystem(separated(n))
        index = np.arange(n)
        if n <= 12:
            draws = [(m >> index) & 1 for m in range(2 ** n)]
        else:
            rng = np.random.Generator(np.random.Philox(7))
            draws = [rng.integers(0, 2, size=n) for _ in range(101)]
            assert len(draws) % (BATCH_ELEMENTS // (n * n)) != 0
        worst, checked = enumerate_partitions(es, budget=len(draws), seed=7)
        assert checked == len(draws)
        ref = None
        for bits in draws:
            part = (tuple(np.flatnonzero(bits == 0)),
                    tuple(np.flatnonzero(bits == 1)))
            sigma, cond = reference_defect(es, *part)
            if ref is None or sigma < ref.sigma_min:
                ref = SynthesisDefect(part, sigma, cond)
        assert worst == ref                                 # bit for bit
        assert synthesis_defect(es, worst.partition) == worst

    @pytest.mark.parametrize("part", [((4, 0, 2), (5, 1, 3)),
                                      ((3, 1, 0, 5, 2, 4), ()),
                                      ((), (5, 4, 3, 2, 1, 0))])
    def test_explicit_partition_keeps_its_order(self, part):
        es = eigensystem(separated(6))
        sd = synthesis_defect(es, part)
        assert sd.partition == part
        assert (sd.sigma_min, sd.gram_condition) == reference_defect(es, *part)

    def test_zero_column_raises_only_when_used(self):
        es = eigensystem(separated(6))
        es.model_vectors[:, 2] = 0.0
        assert synthesis_defect(es, ((0, 1, 3, 4, 5), (2,))).sigma_min > 0
        with pytest.raises(NotBiorthogonal):
            synthesis_defect(es, ((2,), (0, 1, 3, 4, 5)))
        with pytest.raises(NotBiorthogonal):
            enumerate_partitions(es)


def unscreened_worst(es, bits):
    """(partition, sigma_min, condition) of the first smallest sigma_min
    over the partitions given as rows of bits (1 puts the index into J2),
    by a batched SVD of every one of them."""
    n = es.eigenvalues.size
    x = (np.concatenate([es.model_vectors.T, es.left_vectors.T])
         * np.sqrt(es.weights))
    unit = x / np.sqrt(np.sum(x.real * x.real + x.imag * x.imag,
                              axis=1))[:, None]
    rows = np.sort(np.arange(n) + n * bits, axis=1)
    s = np.concatenate([
        np.linalg.svd(unit[rows[i:i + 64]].transpose(0, 2, 1),
                      compute_uv=False)
        for i in range(0, len(rows), 64)])
    i = int(np.argmin(s[:, -1]))
    part = (tuple(np.flatnonzero(bits[i] == 0)),
            tuple(np.flatnonzero(bits[i] == 1)))
    return part, s[i, -1], s[i, 0] / s[i, -1]


def assert_same_worst(worst, reference):
    part, sigma, cond = reference
    assert worst.partition == part
    assert worst.sigma_min.hex() == float(sigma).hex()
    assert worst.gram_condition.hex() == float(cond).hex()


def sweep_counting_svds(monkeypatch, es):
    """enumerate_partitions(es) and the number of SVD calls it made."""
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **k: calls.append(1) or svd(*a, **k))
    worst, checked = enumerate_partitions(es)
    monkeypatch.undo()
    return worst, checked, len(calls)


class TestSynthesisScreen:
    """The Cholesky screen skips only blocks that cannot beat the running
    worst, so the sweep matches an SVD of every partition bit for bit."""

    #: blocks of the exhaustive sweep at n = 12: 4096 partitions, 28 a block
    BLOCKS_12 = -(-4096 // (BATCH_ELEMENTS // 144))

    @staticmethod
    def exhaustive_bits(n):
        return (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1

    @pytest.mark.parametrize("n", [16, 30, 60])
    def test_sharp_sampled(self, n):
        # the 300 draws are the first 300 of the 2000: one stream
        es = eigensystem(sharp_instance(1.0, 0.0, 0.0, n).data)
        bits = np.random.Generator(np.random.Philox(3)).integers(
            0, 2, size=(2000, n))
        for budget in (300, 2000):
            worst, checked = enumerate_partitions(es, budget=budget, seed=3)
            assert checked == budget
            assert_same_worst(worst, unscreened_worst(es, bits[:budget]))

    def test_worst_below_the_margin_falls_back_to_svds(self, monkeypatch):
        # f_11 = f_10 + 1e-8 f_9: a partition with 10 and 11 in J1 has
        # sigma_min of 1e-8 or less (singular to rounding with 9 in J1 too),
        # below sqrt(delta) = 2.8e-6 at n = 12, so the blocks of the first
        # 1024 masks (37) fail the screen and the others can pass it
        es = eigensystem(separated(12))
        es.model_vectors[:, 11] = (es.model_vectors[:, 10]
                                   + 1e-8 * es.model_vectors[:, 9])
        worst, checked, calls = sweep_counting_svds(monkeypatch, es)
        reference = unscreened_worst(es, self.exhaustive_bits(12))
        assert reference[1] < np.sqrt(16 * 13 ** 3 * np.finfo(float).eps)
        assert_same_worst(worst, reference)
        assert 37 <= calls < self.BLOCKS_12

    def test_nan_column_still_reaches_an_svd(self):
        # LAPACK's Cholesky completes on a NaN pivot, which would skip the
        # blocks holding g_5 here; with the screen off they fail as before
        es = eigensystem(separated(12))
        es.left_vectors[:, 5] = np.nan
        with np.errstate(invalid="ignore"), \
                pytest.raises(np.linalg.LinAlgError, match="SVD"):
            enumerate_partitions(es)

    def test_separated_exhaustive_skips_most_blocks(self, monkeypatch):
        es = eigensystem(separated(12))
        worst, checked, calls = sweep_counting_svds(monkeypatch, es)
        assert checked == 4096
        assert_same_worst(worst, unscreened_worst(es, self.exhaustive_bits(12)))
        assert calls <= self.BLOCKS_12 // 10


def state_text(rng):
    return json.dumps(rng.bit_generator.state, sort_keys=True,
                      default=lambda a: a.tolist())


class TestRandomInstance:
    """random_instance draws its atoms from the raw stream in chunks; the
    atoms and the generator state after them are the rejection loop's."""

    @pytest.mark.parametrize("n", [1, 2, 7, 20, 30])
    @pytest.mark.parametrize("seed", [0, 5, 20240817])
    def test_equal_to_the_loop(self, n, seed):
        fast = np.random.Generator(np.random.Philox(seed))
        loop = np.random.Generator(np.random.Philox(seed))
        for _ in range(3):      # the later draws start mid-buffer
            assert (signed_atoms(fast, n, chunk=16).tobytes()
                    == signed_atoms_loop(loop, n).tobytes())
            assert state_text(fast) == state_text(loop)
        fast.integers(0, 2)     # leaves a spare 32-bit half: the loop runs
        loop.integers(0, 2)
        assert (signed_atoms(fast, n).tobytes()
                == signed_atoms_loop(loop, n).tobytes())
        assert state_text(fast) == state_text(loop)

    def test_hundred_atoms_pinned(self, rng):
        # SHA-256 of the instance arrays and of the generator state after
        # them, as the rejection loop alone drew them (about 500,000 tries)
        data = random_instance(rng, 100)
        arrays = (data.t, data.mu, data.a, data.b, np.complex128(data.kappa))
        assert hashlib.sha256(b"".join(np.asarray(x).tobytes()
                                       for x in arrays)).hexdigest() == \
            "d6c5d3b9583a35fa563c3f560e19199336a09206bacd33a82df8eb1299bd71d8"
        assert hashlib.sha256(state_text(rng).encode()).hexdigest() == \
            "41686b7a412d5a5a5a7e3a39b9e669a2628bd6a84ebced34e834d2928047b644"


class TestWindow:
    def test_two_atom_examples(self, two_atom):
        m = build_model(two_atom)
        assert volterra_window_check(m, (0.5, 3.0, 0.0, 1.0)).count == 1
        assert volterra_window_check(m, (3.5, 5.0, 0.0, 1.0)).count == 0
        assert volterra_window_check(m, (-1.0, 3.0, 0.0, 2.0)).count == 2

    @pytest.mark.parametrize("n", [8, 30, 100])
    def test_count_matches_companion_roots(self, rng, n):
        data = random_instance(rng, n)
        m = build_model(data)
        zeros = phi_zeros(m).zeros
        x1 = float(np.min(zeros.real)) - 1.0
        x2 = float(np.max(zeros.real)) + 1.0
        y2 = float(max(np.max(zeros.imag), 0.0)) + 1.0
        rep = volterra_window_check(m, (x1, x2, 0.0, y2))
        inside = int(np.sum((zeros.real > x1) & (zeros.real < x2)
                            & (zeros.imag > -rep.nudge)
                            & (zeros.imag < y2)))
        assert rep.count == inside

    @pytest.mark.parametrize("data, rect, count", [
        (lambda: separated_instance(np.random.Generator(np.random.Philox(7)),
                                    30), (-21.0, 21.0, 0.0, 3.0), 23),
        (lambda: parse_problem(SIX_ATOM), (-30.0, 30.0, 0.0, 1.0), 2),
        (lambda: parse_problem(SIX_ATOM), (-30.0, 1e5, 0.0, 1.0), 2)],
        ids=["separated_30", "six_atom", "six_atom_long"])
    def test_counts_the_zeros_of_phi(self, data, rect, count):
        # against the zeros of phi in the closed upper half-plane alone: a
        # nudge that reached the lower zeros (two lie 0.0036 and 0.0086
        # below the axis on the 30 atoms) would count them as well
        m = build_model(data())
        z = phi_zeros(m)
        zeros = np.concatenate([z.upper, z.real])
        x1, x2, _, y2 = rect
        inside = int(np.sum((zeros.real > x1) & (zeros.real < x2)
                            & (zeros.imag < y2)))
        assert volterra_window_check(m, rect).count == inside == count

    @pytest.mark.parametrize("zero_a", [False, True])
    @pytest.mark.parametrize("n", [5, 12, 30])
    def test_integrand_matches_the_oracle(self, rng, n, zero_a):
        # N'/N = sum_k 1/(z - lambda_k) over the eigenvalues of L: within
        # 1e-12 of an atom, on a nudged bottom edge (through the atoms too,
        # which are eigenvalues where a_n = 0) and off the axis
        data = random_instance(rng, n)
        if zero_a:
            a = data.a.copy()
            a[::3] = 0.0
            data = make_data(data.t, data.mu, a, data.b, data.kappa)
        t = data.t
        near = t[data.a != 0]
        nudge = 1e-6 * max(1.0, float(np.max(np.abs(t))))
        z = np.concatenate([
            near + 1e-12, near - 1e-12j, near + (7e-13 + 3e-13j),
            np.linspace(t[0] - 1.0, t[-1] + 1.0, 200) - 1j * nudge,
            t - 1j * nudge,
            rng.uniform(-25.0, 25.0, 50) + 1j * rng.uniform(-3.0, 3.0, 50)])
        lam = np.linalg.eigvals(build_matrix(data).L)
        ref = np.sum(1.0 / (z[:, None] - lam), axis=1)
        got = numerator_log_derivative(build_model(data).beta, z)
        assert np.all(np.abs(got - ref) <= 1e-8 * np.abs(ref))

    def test_reports_are_pinned(self):
        # bit for bit; the winding values moved when each edge segment
        # became one quadrature panel, when the panels went from 64 to 32
        # nodes and when N'/N replaced phi'/phi, and with it the nudge rule
        m = build_model(separated_instance(
            np.random.Generator(np.random.Philox(7)), 30))
        assert volterra_window_check(m, (-10.0, 4.0, 0.3, 2.5)) == \
            WindowReport(0, -6.487296934124233e-07, 0.3238323180539666,
                         0.0, 0)
        assert volterra_window_check(m, (-21.0, 21.0, 0.0, 3.0)) == \
            WindowReport(23, 22.999954516468918, 0.05450717919855745,
                         1.950918493130061e-05, 0)
        m = build_model(sharp_instance(1.0, 0.0, 0.0, 60).data)
        assert volterra_window_check(m, (0.1, 20.0, 0.0, 4.0)) == \
            WindowReport(0, -2.5179391228252843e-16, 0.013859014422947664,
                         0.00354025, 0)

    @pytest.mark.parametrize("y1, count", [(0.3, 0), (0.0141, 7),
                                           (0.005, 8), (0.0, 8), (-1.0, 11)])
    def test_no_window_check_solves_poles(self, monkeypatch, y1, count):
        # cap = min(1e-3 max(1, x2 - x1), 0.2 y2) = 0.014 here: bottom
        # edges above it, within it, on the axis and below it
        import perturblab.engine as engine

        def refuse(*args, **kwargs):
            raise AssertionError("a secular solve ran")

        m = build_model(separated_instance(
            np.random.Generator(np.random.Philox(7)), 30))
        for name in ("secular_zeros", "_aberth_refine"):
            monkeypatch.setattr(engine, name, refuse)
        assert volterra_window_check(m, (-10.0, 4.0, y1, 2.5)).count == count

    def test_low_bottom_edge_keeps_its_report(self):
        # 0 < y1 <= cap: the atoms are the bottom edge's breakpoints; the
        # reported nudge is 0.0, since this bottom edge is not moved
        m = build_model(separated_instance(
            np.random.Generator(np.random.Philox(7)), 30))
        assert volterra_window_check(m, (-10.0, 4.0, 0.005, 2.5)) == \
            WindowReport(8, 7.999999999802681, 0.1412795939429589, 0.0, 0)
        assert volterra_window_check(m, (-10.0, 4.0, 0.013, 2.5)) == \
            WindowReport(7, 6.999999979902631, 0.11700061713138721, 0.0, 0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_zero_next_to_the_top_edge(self, seed):
        # the top edge 1e-3 and 1e-4 above and below the lowest and the
        # highest zero over 1e-3: N'/N spikes there, and one panel per
        # edge must not step over the spike
        m = build_model(separated_instance(
            np.random.Generator(np.random.Philox(seed)), 60))
        zeros = phi_zeros(m).zeros
        upper = zeros[zeros.imag > 1e-3]
        for z0 in (upper[np.argmin(upper.imag)], upper[np.argmax(upper.imag)]):
            for offset in (1e-3, -1e-3, 1e-4, -1e-4):
                y2 = z0.imag + offset
                rep = volterra_window_check(m, (-21.0, 21.0, 0.0, y2))
                inside = int(np.sum((zeros.real > -21.0) & (zeros.real < 21.0)
                                    & (zeros.imag > -rep.nudge)
                                    & (zeros.imag < y2)))
                assert rep.count == inside

    @pytest.mark.parametrize("sharp, rect, split", [
        (False, (-21.0, 21.0, 0.0, 3.0), True),
        (False, (-10.0, 4.0, 0.013, 2.5), True),
        (False, (-10.0, 4.0, 0.3, 2.5), False),
        (False, (-21.0, 21.0, -1.0, 2.0), False),
        (True, (0.1, 20.0, 0.0, 4.0), True)])
    def test_one_panel_per_edge_segment(self, monkeypatch, sharp, rect, split):
        # the first quadrature level takes each segment and its two halves:
        # 3 (m + 4) pieces, m the atoms inside (x1, x2) when the bottom edge
        # lies within cap of the real axis, else 0
        import perturblab._numutil as numutil
        sizes, plain = [], numutil.gauss_legendre

        def counted(fn, panels):
            sizes.append(len(panels))
            return plain(fn, panels)

        m = build_model(sharp_instance(1.0, 0.0, 0.0, 60).data if sharp
                        else separated_instance(
                            np.random.Generator(np.random.Philox(7)), 30))
        monkeypatch.setattr(numutil, "gauss_legendre", counted)
        volterra_window_check(m, rect)
        inside = int(np.sum((m.t > rect[0]) & (m.t < rect[1])))
        assert inside > 0
        assert sizes[0] == 3 * ((inside if split else 0) + 4)

    def test_bisection_evaluates_only_the_halves(self):
        # one call per refinement level: the 3n nodes of the panel and its
        # two halves, then the 2n nodes of the halves of each bisected
        # panel, whose integral the level above computed (n = GL_NODES.size)
        z0 = 0.3 + 1e-3j
        n = GL_NODES.size
        calls = []

        def fn(z):
            calls.append(z)
            return 1.0 / (z - z0)

        ((val, _),) = adaptive_panel(fn, [(-1.0 + 0j, 1.0 + 0j)], 1e-8)
        sizes = [z.size for z in calls]
        assert sizes[0] == 3 * n and len(sizes) > 5
        assert all(k % (2 * n) == 0 and k <= PANEL_POINTS for k in sizes[1:])
        # the n-node groups of a call all span panels of one width, which
        # halves from each call to the next: the calls are the levels
        widths = [np.ptp(z.reshape(-1, n).real, axis=1) for z in calls]
        assert np.allclose(widths[0], [widths[0][0], widths[0][0] / 2,
                                       widths[0][0] / 2])
        for level, w in enumerate(widths[1:], 1):
            assert np.allclose(w, widths[0][0] / 2 ** (level + 1))
        assert abs(val - (np.log(1.0 - z0) - np.log(-1.0 - z0))) <= 1e-8

    @pytest.mark.parametrize("tol", [1e-6, 1e-10])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_error_within_tolerance(self, k, tol):
        # a pole 10^-k above the panel, whatever the node count: the true
        # error, not only the estimate, stays within tol
        z0 = 0.3 + 10.0 ** -k * 1j
        ((val, _),) = adaptive_panel(lambda z: 1.0 / (z - z0),
                                     [(-1.0 + 0j, 1.0 + 0j)], tol)
        assert abs(val - (np.log(1.0 - z0) - np.log(-1.0 - z0))) <= tol

    def test_levels_match_the_recursion(self):
        # several panels, some bisecting deep around the spikes, against the
        # depth-first recursion the level-by-level refinement replaced
        def fn(z):
            return 1.0 / (z - 0.3 - 0.051j) + 2.0 / (z + 0.71 - 0.0501j)

        def recursion(a, b, tol, whole=None, depth=0):
            mid = (a + b) / 2.0
            pieces = ((a, mid), (mid, b)) if whole is not None else \
                ((a, b), (a, mid), (mid, b))
            half_widths = [(q - p) / 2.0 for p, q in pieces]
            vals = fn(np.concatenate([(p + q) / 2.0 + h * GL_NODES
                                      for (p, q), h in zip(pieces,
                                                           half_widths)]))
            sums = [h * np.sum(GL_WEIGHTS * v)
                    for h, v in zip(half_widths,
                                    np.split(vals, len(pieces)))]
            whole = sums[0] if whole is None else whole
            left, right = sums[-2:]
            split = left + right
            if abs(whole - split) <= tol or depth >= 24 \
                    or not np.isfinite(split):
                return split, abs(whole - split)
            left, le = recursion(a, mid, tol / 2.0, left, depth + 1)
            right, re_ = recursion(mid, b, tol / 2.0, right, depth + 1)
            return left + right, le + re_

        edges = np.linspace(-1.0, 1.0, 6) + 0.05j
        panels = list(zip(edges[:-1], edges[1:])) + [(1.0 + 0.05j, 1.0 + 1j)]
        tol = 1e-9
        assert adaptive_panel(fn, panels, tol) == \
            [recursion(a, b, tol) for a, b in panels]
        wholes = gauss_legendre(fn, panels)[0]
        assert adaptive_panel(fn, panels, tol, wholes) == \
            [recursion(a, b, tol, w) for (a, b), w in zip(panels, wholes)]

    def test_below_axis_counts_every_zero(self):
        # all 60 eigenvalues of the oracle lie inside, and 59 poles of phi,
        # which N'/N does not see
        data = separated_instance(np.random.Generator(np.random.Philox(7)),
                                  60)
        rect = (-21.0, 21.0, -1.0, 2.0)
        eigs = np.linalg.eigvals(build_matrix(data).L)
        inside = int(np.sum((eigs.real > rect[0]) & (eigs.real < rect[1])
                            & (eigs.imag > rect[2]) & (eigs.imag < rect[3])))
        rep = volterra_window_check(build_model(data), rect)
        assert inside == 60
        assert (rep.count, rep.poles_added_back) == (60, 0)

    @pytest.mark.parametrize("rect", [(3.0, 1.0, 0.0, 1.0),
                                      (0.0, 1.0, 2.0, 1.0),
                                      (0.0, 1.0, -1.0, -0.5),
                                      (0.0, float("nan"), 0.0, 1.0)])
    def test_degenerate_rectangle(self, two_atom, rect):
        with pytest.raises(BadParameters):
            volterra_window_check(build_model(two_atom), rect)


def phi_poles(model):
    """Poles of phi: the N zeros of i + rho, the Cauchy transform with the
    poles and weights of rho and the constant i + delta, in np.sort_complex
    order; at infinity it is i + rho(infinity) != 0."""
    return secular_zeros(CauchyRepresentation(model.t, model.nu,
                                              1j + model.delta))[0]


def check_poles(model):
    """Exactly N poles, each a root of i + rho, matching the eigenvalues of
    diag(t) + (nu/(i + rho(inf))) 1^T, since det(D + u v^T) =
    det(D)(1 + v^T D^-1 u) makes their zeros those of i + rho."""
    t, nu = model.t, model.nu
    poles = phi_poles(model)
    assert poles.size == t.size
    for z in poles:
        assert abs(1j + model.rho(z)) <= 1e-10
    mat = np.outer(nu / (1j + model.delta_infinity), np.ones(t.size))
    mat[np.diag_indices(t.size)] += t
    scale = max(1.0, float(np.max(np.abs(t))))
    assert matched_max_distance(distances(np.linalg.eigvals(mat), poles)) <= \
        1e-9 * scale


class TestPhiPoles:
    @pytest.mark.parametrize("n", [1, 8, 30, 100])
    def test_all_poles_found(self, rng, n):
        data = random_instance(rng, n) if n < 100 else \
            separated_instance(rng, n)
        check_poles(build_model(data))

    def test_sharp_instance(self):
        for n_terms in (60, 500):
            check_poles(build_model(sharp_instance(1.0, 0.0, 0.0,
                                                   n_terms).data))

    @pytest.mark.parametrize("data", [
        lambda: separated_instance(np.random.Generator(np.random.Philox(3)),
                                   100),
        lambda: sharp_instance(1.0, 0.0, 0.0, 500).data],
        ids=["separated_100", "sharp_500"])
    def test_first_order_starts_suffice(self, data, monkeypatch):
        model = build_model(data())
        no_eigensolve(monkeypatch)
        poles = phi_poles(model)
        assert poles.size == model.t.size
        assert poles.tobytes() == np.sort_complex(poles).tobytes()
        assert np.max(np.abs(1j + model.rho(poles))) <= 1e-10

    def test_poles_far_below_the_atoms_stop_at_first_order(self, monkeypatch):
        # with b five times larger, the poles below the heaviest atoms lie
        # far outside the atoms' hull and step at their own rounding level:
        # each root's stop scales with its modulus, so no eigensolve runs
        d = separated_instance(np.random.Generator(np.random.Philox(7)), 30)
        model = build_model(make_data(d.t, d.mu, d.a, 5 * d.b, 5 * d.kappa))
        with monkeypatch.context() as patch:
            no_eigensolve(patch)
            phi_poles(model)
        check_poles(model)


class TestErrorPaths:
    def test_contour_through_zero_not_certified(self, two_atom):
        from perturblab.errors import ContourTooClose
        m = build_model(two_atom)
        # the left edge runs exactly through the real zero 1 + sqrt(2)
        with pytest.raises(ContourTooClose):
            volterra_window_check(m, (1 + np.sqrt(2), 3 + np.sqrt(2),
                                      -1.0, 1.0))

    def test_mass_present_blocks_transform(self, two_atom):
        from perturblab.errors import MassPresent
        from perturblab.model import ClarkMeasure, clark_transform
        m = build_model(two_atom)
        cm = ClarkMeasure(zeta=1.0, atoms=np.array([0.5]),
                          weights=np.array([1.0]), p=0.3, q=0.0)
        with pytest.raises(MassPresent):
            clark_transform(cm, m, [1.0])

    def test_herglotz_mass_matches_direct_limit(self, two_atom):
        # p = lim (zeta + Theta(iy)) / ((zeta - Theta(iy)) y), independent
        # of the expansion used inside mass_detect
        m = build_model(two_atom)
        zeta = m.theta_infinity
        rep = mass_detect(m, zeta)
        y = 1e8
        g = (zeta + m.theta(1j * y)) / (zeta - m.theta(1j * y))
        assert (g / y).real == pytest.approx(rep.herglotz_p, rel=1e-6)


def strong_real_type(data):
    """The strong_real_type entry of the spectrum command's payload."""
    from perturblab.cli import _spectrum_payload

    return _spectrum_payload(compute_spectrum(data), data)["strong_real_type"]


class TestStrongRealType:
    def test_real_spectrum_detected(self, two_atom):
        assert strong_real_type(two_atom)  # spectrum {1 +- sqrt 2} real

    def test_complex_pair_rejected(self):
        # real-type data with a complex-conjugate eigenvalue pair
        data = make_data([1.0, 2.0], [1, 1], [1, -1], [1, 1], 1.0)
        if strong_real_type(data):
            pytest.skip("instance happens to have a real spectrum")
        assert not strong_real_type(data)


class TestInnerMargin:
    def test_exhibited_constant_positive(self, two_atom):
        gp = growth_profile(build_model(two_atom))
        assert gp.inner_margin_c > 0
