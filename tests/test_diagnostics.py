"""Growth envelopes, integrability, synthesis defects, window counts."""

import numpy as np
import pytest

from perturblab.errors import (BadParameters, DivergentNearRealZero,
                               NotBiorthogonal)
from perturblab.model import BATCH_ELEMENTS, build_model
from perturblab.engine import build_matrix, eigensystem, phi_zeros
from perturblab.diagnostics import (SynthesisDefect, WindowReport,
                                    _phi_poles, enumerate_partitions,
                                    growth_profile, integral_test,
                                    macaev_check, mass_detect,
                                    synthesis_defect, volterra_window_check)
from perturblab.gallery import sharp_instance
from perturblab._numutil import (GL_NODES, GL_WEIGHTS, PANEL_POINTS,
                                 adaptive_panel, gauss_legendre,
                                 matched_max_distance)

from conftest import (make_data, no_eigensolve, random_instance,
                      separated_instance)


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


class TestIntegral:
    def test_finite_value(self, two_atom):
        rep = integral_test(build_model(two_atom), 2.0, 1.0, 1.0)
        assert rep.convergent
        assert rep.tail_estimate <= 1e-6 * rep.value
        assert rep.value > 0

    def test_real_zero_divergence(self, two_atom):
        with pytest.raises(DivergentNearRealZero):
            integral_test(build_model(two_atom), 2.0, 1.0, 0.0)

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
                ((2.0, 1.0, 1.0), (0.9868464233768878, 1.223578530162861e-13),
                 0.9868464233764916),
                ((1.5, 2.0, 0.5), (0.9651083926175029, 3.180962437898671e-13),
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

    def test_reports_are_pinned(self):
        # the values the one-point-at-a-time evaluation gave, bit for bit
        m = build_model(separated_instance(
            np.random.Generator(np.random.Philox(7)), 30))
        assert volterra_window_check(m, (-10.0, 4.0, 0.3, 2.5)) == \
            WindowReport(0, 7.250780830633269e-07, 0.3238323180539666,
                         0.013084807907287442, 0)
        assert volterra_window_check(m, (-21.0, 21.0, 0.0, 3.0)) == \
            WindowReport(25, 24.99999815211906, 0.1482904479939786,
                         0.011052106570849615, 0)
        m = build_model(sharp_instance(1.0, 0.0, 0.0, 60).data)
        assert volterra_window_check(m, (0.1, 20.0, 0.0, 4.0)) == \
            WindowReport(0, -8.942749341702598e-10, 0.013859014422947664,
                         0.00753374924573953, 0)

    def test_bisection_evaluates_only_the_halves(self):
        # one call per refinement level: the 192 nodes of the panel and its
        # two halves, then the 128 nodes of the halves of each bisected
        # panel, whose integral the level above computed
        z0 = 0.3 + 1e-3j
        calls = []

        def fn(z):
            calls.append(z)
            return 1.0 / (z - z0)

        ((val, _),) = adaptive_panel(fn, [(-1.0 + 0j, 1.0 + 0j)], 1e-8)
        sizes = [z.size for z in calls]
        assert sizes[0] == 192 and len(sizes) > 5
        assert all(n % 128 == 0 and n <= PANEL_POINTS for n in sizes[1:])
        # the 64-node groups of a call all span panels of one width, which
        # halves from each call to the next: the calls are the levels
        widths = [np.ptp(z.reshape(-1, 64).real, axis=1) for z in calls]
        assert np.allclose(widths[0], [widths[0][0], widths[0][0] / 2,
                                       widths[0][0] / 2])
        for level, w in enumerate(widths[1:], 1):
            assert np.allclose(w, widths[0][0] / 2 ** (level + 1))
        assert abs(val - (np.log(1.0 - z0) - np.log(-1.0 - z0))) <= 1e-8

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
        # 60 eigenvalues of the oracle and 59 poles of phi lie inside
        data = separated_instance(np.random.Generator(np.random.Philox(7)),
                                  60)
        rect = (-21.0, 21.0, -1.0, 2.0)
        eigs = np.linalg.eigvals(build_matrix(data).L)
        inside = int(np.sum((eigs.real > rect[0]) & (eigs.real < rect[1])
                            & (eigs.imag > rect[2]) & (eigs.imag < rect[3])))
        rep = volterra_window_check(build_model(data), rect)
        assert inside == 60
        assert (rep.count, rep.poles_added_back) == (60, 59)

    @pytest.mark.parametrize("rect", [(3.0, 1.0, 0.0, 1.0),
                                      (0.0, 1.0, 2.0, 1.0),
                                      (0.0, 1.0, -1.0, -0.5),
                                      (0.0, float("nan"), 0.0, 1.0)])
    def test_degenerate_rectangle(self, two_atom, rect):
        with pytest.raises(BadParameters):
            volterra_window_check(build_model(two_atom), rect)


def check_poles(model):
    """Exactly N poles, each a root of i + rho, matching the eigenvalues of
    diag(t) + (nu/(i + rho(inf))) 1^T, since det(D + u v^T) =
    det(D)(1 + v^T D^-1 u) makes their zeros those of i + rho."""
    t, nu = model.t, model.nu
    poles = _phi_poles(model)
    assert poles.size == t.size
    for z in poles:
        assert abs(1j + model.rho(z)) <= 1e-10
    mat = np.outer(nu / (1j + model.delta_infinity), np.ones(t.size))
    mat[np.diag_indices(t.size)] += t
    scale = max(1.0, float(np.max(np.abs(t))))
    assert matched_max_distance(np.linalg.eigvals(mat), poles) <= \
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
        poles = _phi_poles(model)
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
            _phi_poles(model)
        check_poles(model)


class TestErrorPaths:
    def test_contour_through_zero_not_certified(self, two_atom):
        from perturblab.errors import ContourTooClose
        m = build_model(two_atom)
        # force the bottom edge exactly through the real zero 1 + sqrt(2)
        with pytest.raises(ContourTooClose):
            volterra_window_check(m, (1 + np.sqrt(2) - 1.0,
                                      1 + np.sqrt(2) + 1.0, 0.0, 1.0),
                                  nudge=0.0, max_refine=3)

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


class TestStrongRealType:
    def test_real_spectrum_detected(self, two_atom):
        from perturblab.engine import strong_real_type
        assert strong_real_type(two_atom)  # spectrum {1 +- sqrt 2} real

    def test_complex_pair_rejected(self):
        from perturblab.engine import strong_real_type
        from conftest import make_data
        # real-type data with a complex-conjugate eigenvalue pair
        data = make_data([1.0, 2.0], [1, 1], [1, -1], [1, 1], 1.0)
        if strong_real_type(data):
            pytest.skip("instance happens to have a real spectrum")
        assert not strong_real_type(data)


class TestInnerMargin:
    def test_exhibited_constant_positive(self, two_atom):
        gp = growth_profile(build_model(two_atom))
        assert gp.inner_margin_c > 0
