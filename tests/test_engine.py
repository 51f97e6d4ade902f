"""Matrix realization, two-route spectra, chains, adjoints, gauges."""

import numpy as np
import pytest

from perturblab.data import Atom, DiscreteSpectralData, RankNData
from perturblab.errors import AdmissibilityError, OrderTooHigh
from perturblab.model import build_model, kernel_k
from perturblab.engine import (MatrixRealization, _aberth_refine,
                               _beta_infinity, _repeats, adjoint_data,
                               adjoint_residual, build_matrix,
                               compute_spectrum, eigensystem, gauge_check,
                               generating_function, kappa_shift,
                               oracle_spectrum, phi_zeros, root_chain,
                               shifted_data, weighted_adjoint)
from perturblab.gallery import sharp_instance
from perturblab._numutil import (cluster_points, kahan_sum,
                                 matched_max_distance)

from conftest import (beta_numerators, make_data, no_eigensolve,
                      random_instance, separated_instance)


def cubic_discriminant(c):
    """Discriminant of c0 + c1 z + c2 z^2 + c3 z^3."""
    c = np.concatenate([np.asarray(c), np.zeros(4 - len(c))])  # numpy trims
    c0, c1, c2, c3 = (float(np.real(x)) for x in c)
    return (18 * c3 * c2 * c1 * c0 - 4 * c2 ** 3 * c0 + c2 ** 2 * c1 ** 2
            - 4 * c3 * c1 ** 3 - 27 * c3 ** 2 * c0 ** 2)


def double_zero_instance():
    """Three-atom real-type data tuned (by discriminant bisection on kappa)
    so the generating function has a double zero."""
    t, mu = [1.0, 2.0, 4.0], [1.0, 1.0, 1.0]
    a, b = [1.0, -1.0, 1.0], [1.0, 1.0, 1.0]

    def disc(kappa):
        data = make_data(t, mu, a, b, kappa)
        num, _ = beta_numerators(data)
        return cubic_discriminant(num)

    kappas = np.linspace(-6.0, 6.0, 241)
    vals = [disc(k) for k in kappas]
    bracket = None
    for k1, k2, v1, v2 in zip(kappas, kappas[1:], vals, vals[1:]):
        if v1 * v2 < 0 and not (k1 <= 0.75 <= k2):  # keep clear of omega
            bracket = (k1, k2, v1)
            break
    assert bracket is not None
    lo, hi, flo = bracket
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = disc(mid)
        if fm == 0.0:
            lo = hi = mid
            break
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return make_data(t, mu, a, b, 0.5 * (lo + hi))


class TestBuildMatrix:
    def test_one_atom_closed_form(self, one_atom):
        m = build_matrix(one_atom)
        assert m.route == ("direct",)
        assert m.L == pytest.approx(np.array([[2.0]]))

    def test_two_atom_inverse_closed_form(self, two_atom):
        m = build_matrix(two_atom)
        inv = np.linalg.inv(m.L)
        assert inv == pytest.approx(np.array([[-2.0, 1.0], [1.0, 0.0]]),
                                    abs=1e-12)
        eigs = np.sort(np.linalg.eigvals(m.L).real)
        assert eigs == pytest.approx([1 - np.sqrt(2), 1 + np.sqrt(2)])

    def test_inverse_residual_small(self, rng):
        for _ in range(30):
            m = build_matrix(random_instance(rng))
            assert m.inverse_residual <= 1e-10

    def test_zero_kappa_takes_shift_route(self):
        data = make_data([1.0, 2.0], [1, 1], [1, 1], [1, 1], 0.0)
        m = build_matrix(data)
        assert m.route[0] == "shift"
        res = compute_spectrum(data)
        assert res.match_residual <= 1e-9
        # kappa = 0 <=> phi(0) = 0 <=> 0 in the spectrum
        assert np.min(np.abs(res.eigenvalues)) < 1e-10

    def test_inadmissible_rejected(self):
        data = make_data([1.0], [1.0], [1.0], [1.0], 1.0)
        with pytest.raises(AdmissibilityError):
            build_matrix(data)

    def test_shift_identity(self, rng):
        for _ in range(10):
            data = random_instance(rng, 6)
            lam = float(rng.uniform(-5, 5))
            if np.min(np.abs(data.t - lam)) < 0.1:
                continue
            base = np.sort_complex(np.linalg.eigvals(build_matrix(data).L))
            moved = np.sort_complex(
                np.linalg.eigvals(build_matrix(shifted_data(data, lam)).L)
                + lam)
            assert np.max(np.abs(base - moved)) <= 1e-9 * max(
                1.0, np.max(np.abs(base)))


class TestOracle:
    def test_plain_diagonal(self):
        M = MatrixRealization(np.diag([1.0, 2.0, 3.0]).astype(complex),
                              ("direct",), None, 0.0)
        osp = oracle_spectrum(M)
        assert np.sort(osp.clusters.real) == pytest.approx([1.0, 2.0, 3.0])
        assert all(b == (1,) for b in osp.jordan)

    def test_two_atom_simple(self, two_atom):
        osp = oracle_spectrum(build_matrix(two_atom))
        assert np.all(osp.multiplicities == 1)

    def test_double_zero_jordan_block(self):
        data = double_zero_instance()
        zeros = phi_zeros(build_model(data))
        assert np.max(zeros.multiplicities) == 2
        osp = oracle_spectrum(build_matrix(data))
        assert np.max(osp.multiplicities) == 2
        idx = int(np.argmax(osp.multiplicities))
        assert osp.jordan[idx] == (2,)


class TestPhiZeros:
    def test_one_atom(self, one_atom):
        zeros = phi_zeros(build_model(one_atom))
        assert zeros.zeros == pytest.approx([2.0])

    def test_two_atom(self, two_atom):
        zeros = phi_zeros(build_model(two_atom))
        assert np.sort(zeros.zeros.real) == pytest.approx(
            [1 - np.sqrt(2), 1 + np.sqrt(2)])

    def test_beta_vanishing_at_infinity_is_refused(self):
        # kappa = w_1/t_1 + w_2/t_2 exactly, so beta(infinity) = 0
        data = make_data([1.0, 2.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0], 1.5)
        with pytest.raises(AdmissibilityError):
            phi_zeros(build_model(data, strict=False))

    def test_complex_type_cross_validation(self, two_atom):
        data = make_data([-1.0, 1.0], [1, 1], [1, 1], [1, 1j], 1.0)
        res = compute_spectrum(data)
        assert res.match_residual <= 1e-8

    def test_order_is_canonical(self, monkeypatch):
        # partition indices refer to the zeros' order, which must not
        # follow the order the eigensolver returns its eigenvalues in
        from perturblab.diagnostics import enumerate_partitions

        data = separated_instance(np.random.Generator(np.random.Philox(2)),
                                  30)
        first, _ = enumerate_partitions(eigensystem(data), budget=100)
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: eigvals(a)[::-1])
        second, _ = enumerate_partitions(eigensystem(data), budget=100)
        assert first.partition == second.partition
        assert first.sigma_min == pytest.approx(second.sigma_min, rel=1e-9)


def cluster_loop(points, radius):
    """Greedy clustering with a Python scan over the centers: the first
    center within radius takes the point and moves to its cluster's mean."""
    pts = sorted(np.asarray(points, dtype=complex).ravel(),
                 key=lambda z: (z.real, z.imag))
    centers, members = [], []
    for z in pts:
        for i, c in enumerate(centers):
            if abs(z - c) <= radius:
                members[i].append(z)
                centers[i] = np.mean(members[i])
                break
        else:
            centers.append(z)
            members.append([z])
    return np.asarray(centers), np.asarray([len(m) for m in members])


class TestClusterPoints:
    @pytest.mark.parametrize("n", [1, 6, 305])
    def test_equal_to_the_center_loop(self, rng, n):
        # near-duplicates, so clusters form, merge centers and move them
        base = rng.uniform(-20.0, 20.0, n) + 1j * rng.uniform(-2.0, 2.0, n)
        points = np.concatenate([base, base[: n // 3 + 1] + 1e-9 * (
            rng.normal(size=n // 3 + 1) + 1j * rng.normal(size=n // 3 + 1))])
        for radius in (1e-7, 0.5):
            centers, mults = cluster_points(points, radius)
            ref_centers, ref_mults = cluster_loop(points, radius)
            assert centers.tobytes() == ref_centers.tobytes()
            assert mults.tolist() == ref_mults.tolist()


@pytest.fixture(scope="class")
def separated_200():
    data = separated_instance(np.random.Generator(np.random.Philox(200)), 200)
    eigs = oracle_spectrum(build_matrix(data)).eigenvalues
    return data, eigs, max(1.0, float(np.max(np.abs(eigs))))


class TestLargeTruncation:
    """Separated atoms on [-20, 20], where a monomial basis of the beta
    numerator underflows from a few hundred atoms on.  The first-order
    starts of phi_zeros converge there, so no dense seed runs."""

    def test_model_route_matches_oracle(self, separated_200, monkeypatch):
        data, eigs, scale = separated_200
        no_eigensolve(monkeypatch)
        zeros = phi_zeros(build_model(data))
        assert zeros.seeding == "first_order"
        assert matched_max_distance(eigs, zeros.zeros) <= 1e-10 * scale

    @pytest.mark.parametrize("n", [400, 800])
    def test_model_route_matches_oracle_beyond_200(self, n, monkeypatch):
        data = separated_instance(np.random.Generator(np.random.Philox(n)), n)
        eigs = oracle_spectrum(build_matrix(data)).eigenvalues
        scale = max(1.0, float(np.max(np.abs(eigs))))
        no_eigensolve(monkeypatch)
        zeros = phi_zeros(build_model(data))
        assert zeros.seeding == "first_order"
        assert matched_max_distance(eigs, zeros.zeros) <= 1e-10 * scale

    def test_2048_atoms_without_the_oracle(self, monkeypatch):
        # the power sums of the zeros are the traces of the secular matrix
        # diag(t) + u 1^T, u = w/c: no eigensolve of any kind is involved
        data = separated_instance(
            np.random.Generator(np.random.Philox(2048)), 2048)
        m = build_model(data)
        no_eigensolve(monkeypatch)
        zeros = phi_zeros(m)
        z = zeros.zeros
        assert zeros.seeding == "first_order"
        assert z.size == 2048 and np.all(z[1:] != z[:-1])
        t, u = m.t, m.beta.residues / _beta_infinity(m.beta)
        assert abs(np.sum(z) - (np.sum(t) + np.sum(u))) <= 1e-14 * np.sum(
            np.abs(z))
        trace2 = np.sum(t * t) + 2.0 * np.sum(t * u) + np.sum(u) ** 2
        assert abs(np.sum(z * z) - trace2) <= 1e-14 * np.sum(np.abs(z) ** 2)

    def test_repeat_is_bitwise_equal(self, separated_200):
        data, _, _ = separated_200
        first = phi_zeros(build_model(data)).zeros
        second = phi_zeros(build_model(data)).zeros
        assert first.tobytes() == second.tobytes()

    def test_collided_iterates_separate(self, separated_200):
        data, eigs, scale = separated_200
        seeds = eigs.copy()
        seeds[1] = seeds[0]
        roots, _, stopped = _aberth_refine(build_model(data).beta, seeds)
        assert stopped
        assert matched_max_distance(eigs, roots) <= 1e-10 * scale


class TestRepeats:
    """_repeats flags what the N x N comparison it replaced flagged."""

    @staticmethod
    def pairwise(z):
        return np.any(np.tril(z[:, None] == z, -1), axis=1)

    @pytest.mark.parametrize("z", [
        [],
        [1 + 2j],
        [1 + 2j, 3.0, 1 + 2j, 1 + 2j, 3.0, 1 - 2j, 2 + 1j],
        [complex(np.nan, 0), complex(np.nan, 0), complex(0, np.nan),
         complex(0, np.nan), complex(np.nan, np.nan), complex(np.nan, np.nan),
         1.0, 1.0],
        [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0),
         complex(-0.0, -0.0), complex(-0.0, 1.0), complex(0.0, 1.0)],
        [complex(np.inf, 0), complex(np.inf, 0), complex(-np.inf, 0),
         complex(0, np.inf), complex(0, np.inf), complex(np.inf, np.inf),
         complex(np.inf, np.inf), complex(np.inf, np.nan),
         complex(np.inf, np.nan), complex(-np.inf, -np.inf)],
    ])
    def test_equal_to_the_pairwise_form(self, z):
        z = np.array(z, dtype=complex)
        assert _repeats(z).tolist() == self.pairwise(z).tolist()

    def test_random_draws_from_a_small_pool(self):
        rng = np.random.Generator(np.random.Philox(11))
        pool = np.array([0.0, -0.0, 1.5, -2.0, np.inf, -np.inf, np.nan])
        for size in (2, 7, 50, 400):
            z = np.empty(size, dtype=complex)
            z.real, z.imag = rng.choice(pool, size), rng.choice(pool, size)
            assert _repeats(z).tolist() == self.pairwise(z).tolist()


class TestSeeding:
    def test_sharp_instance_falls_back_to_the_eigensolve(self):
        # its zeros leave the atoms, so the first-order starts never settle;
        # the fallback is the secular eigensolve and the full refinement
        m = build_model(sharp_instance(1.0, 0.0, 0.0, 120).data)
        zeros = phi_zeros(m)
        assert zeros.seeding == "eigensolve"
        t, w = m.t, m.beta.residues
        mat = np.outer(w / _beta_infinity(m.beta), np.ones(t.size))
        mat[np.diag_indices(t.size)] += t
        roots, iterations, _ = _aberth_refine(m.beta, np.linalg.eigvals(mat))
        assert zeros.zeros.tobytes() == np.sort_complex(roots).tobytes()
        assert zeros.aberth_iterations == iterations

    def test_vanishing_a_n_keeps_its_atom(self):
        # a_n = 0 takes the atom t_n out of the perturbation: t_n is then
        # an eigenvalue, and its first-order start is t_n itself
        data = separated_instance(np.random.Generator(np.random.Philox(7)),
                                  30)
        a = data.a.copy()
        a[11] = 0.0
        data = make_data(data.t, data.mu, a, data.b, data.kappa)
        zeros = phi_zeros(build_model(data))
        assert zeros.seeding == "first_order"
        assert data.t[11] in zeros.zeros
        eigs = oracle_spectrum(build_matrix(data)).eigenvalues
        assert matched_max_distance(eigs, zeros.zeros) <= 1e-10 * max(
            1.0, float(np.max(np.abs(eigs))))

    def test_budget_reports_when_the_stop_never_fires(self, separated_200):
        data, eigs, _ = separated_200
        beta = build_model(data).beta
        _, iterations, stopped = _aberth_refine(beta, data.t + 0.5j, 2)
        assert (iterations, stopped) == (2, False)
        _, iterations, stopped = _aberth_refine(beta, eigs)
        assert stopped and 1 <= iterations <= 2


class TestEigensystem:
    def test_two_atom_h_samples(self, two_atom):
        es = eigensystem(two_atom)
        m = build_model(two_atom)
        for j, lam in enumerate(es.eigenvalues):
            expected = [1j * two_atom.a[n] / two_atom.b[n] / (t - lam)
                        for n, t in enumerate(two_atom.t)]
            assert es.h_samples[j] == pytest.approx(np.asarray(expected))
        assert es.gram_offdiag < 1e-10

    def test_gram_diagonal_is_phi_prime(self, two_atom):
        es = eigensystem(two_atom)
        m = build_model(two_atom)
        for j, lam in enumerate(es.eigenvalues):
            assert es.gram[j, j] == pytest.approx(
                2j * np.pi * m.phi_prime(lam), rel=1e-10)

    def test_single_atom_trivial_gram(self, one_atom):
        es = eigensystem(one_atom)
        assert es.gram.shape == (1, 1)
        assert es.gram_offdiag == 0.0

    def test_thirty_atoms_match_per_point_values(self):
        # the batched samples and Gram matrix equal the per-point formulas
        # h_lam(t_n) = phi(t_n)/(t_n - lam) and k_lam(t_n), bit for bit
        data = separated_instance(np.random.Generator(np.random.Philox(3)),
                                  30)
        m = build_model(data)
        es = eigensystem(data, model=m)
        lams = es.eigenvalues
        h = np.array([[m.phi(tn) / (tn - lam) for tn in m.t] for lam in lams])
        k = np.array([[kernel_k(m, lam, tn) for tn in m.t] for lam in lams])
        gram = np.array([[np.pi * kahan_sum(hj * np.conj(kk) * m.nu)
                          for kk in k] for hj in h])
        assert es.h_samples.tobytes() == h.tobytes()
        assert es.gram.tobytes() == gram.tobytes()

    def test_collinearity_and_biorthogonality(self, rng):
        for _ in range(10):
            data = random_instance(rng, 7)
            es = eigensystem(data)
            assert np.max(es.collinearity) < 1e-8
            assert es.gram_offdiag < 1e-8
            # left vectors are biorthogonal to the model vectors
            ip = es.left_vectors.conj().T @ (es.model_vectors
                                             * data.mu[:, None])
            assert np.max(np.abs(ip - np.eye(len(es.eigenvalues)))) < 1e-8


class TestRootChain:
    def test_first_order_identity(self, two_atom):
        m = build_model(two_atom)
        lam = 1 + np.sqrt(2)
        rep = root_chain(m, lam, 1)
        assert rep.constants == pytest.approx([1.0])
        assert np.max(rep.chain_residuals) < 1e-10

    def test_double_zero_chain(self):
        data = double_zero_instance()
        m = build_model(data)
        zeros = phi_zeros(m)
        lam = zeros.clusters[int(np.argmax(zeros.multiplicities))]
        rep = root_chain(m, lam, 2)
        assert rep.constants == pytest.approx([1.0, 0.0], abs=1e-8)
        assert np.max(rep.chain_residuals) < 1e-10
        assert np.max(rep.membership_residuals) < 1e-8

    def test_order_too_high(self, two_atom):
        m = build_model(two_atom)
        with pytest.raises(OrderTooHigh):
            root_chain(m, 1 + np.sqrt(2), 2)

    def test_simple_zero_at_800_atoms(self):
        import mpmath as mp

        data = separated_instance(np.random.Generator(np.random.Philox(800)),
                                  800)
        m = build_model(data)
        lam = phi_zeros(m).zeros[400]
        rep = root_chain(m, lam * (1.0 + 1e-7), 1)
        with mp.workdps(50):
            t = [mp.mpf(float(x)) for x in data.t]
            w = [mp.mpc(complex(x)) for x in m.beta.residues]
            c_inf = mp.mpc(complex(data.kappa)) - mp.fsum(
                wn / tn for wn, tn in zip(w, t))

            def beta(z):
                return c_inf + mp.fsum(wn / (tn - z) for wn, tn in zip(w, t))

            root = mp.findroot(beta, mp.mpc(rep.lam))
            assert abs(rep.lam - root) <= 1e-10 * abs(root)
        assert rep.constants == pytest.approx([1.0], rel=1e-10)
        assert np.max(rep.membership_residuals) < 1e-10
        assert np.max(rep.chain_residuals) < 1e-10


class TestAdjointAndGauge:
    def test_selfadjoint_case(self, rng):
        data = random_instance(rng, 5, real_type=True)
        data = make_data(data.t, data.mu, data.b, data.b, 1.7)
        assert adjoint_residual(data) < 1e-12
        L = build_matrix(data).L
        assert np.max(np.abs(L - weighted_adjoint(L, data.mu))) < 1e-10

    def test_adjoint_spectrum_conjugate(self, rng):
        from perturblab._numutil import matched_max_distance
        for _ in range(10):
            data = random_instance(rng, 6)
            e1 = np.linalg.eigvals(build_matrix(data).L)
            e2 = np.linalg.eigvals(build_matrix(adjoint_data(data)).L)
            assert matched_max_distance(np.conj(e1), e2) <= \
                1e-9 * max(1.0, np.max(np.abs(e1)))

    def test_real_type_spectrum_symmetric(self, rng):
        from perturblab._numutil import matched_max_distance
        for _ in range(10):
            data = random_instance(rng, 6, real_type=True)
            eigs = np.linalg.eigvals(build_matrix(data).L)
            assert matched_max_distance(eigs, np.conj(eigs)) <= \
                1e-8 * max(1.0, np.max(np.abs(eigs)))

    def test_gauge_identity_scalars(self, two_atom):
        assert gauge_check(two_atom, 1.0, 1.0) == 0.0
        assert gauge_check(two_atom, 2.0, 3.0) < 1e-12

    def test_gauge_rank_two(self, rng):
        base = DiscreteSpectralData((Atom(-2.0, 1.0), Atom(1.0, 0.5),
                                     Atom(3.0, 2.0)))
        a = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        b = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        kappa = np.array([[2.0, 0.1], [0.0, 1.5]], dtype=complex)
        data = RankNData(base, a, b, kappa)
        tau1 = np.array([[1.0, 0.3], [0.0, 2.0]])
        tau2 = np.array([[2.0, 0.0], [1.0, 1.0]])
        assert gauge_check(data, tau1, tau2) < 1e-10

    def test_gauge_preserves_spectrum(self, rng):
        data = random_instance(rng, 5)
        e1 = np.sort_complex(np.linalg.eigvals(build_matrix(data).L))
        other = make_data(data.t, data.mu, data.a / 2.0, data.b * 3.0,
                          np.conj(3.0) * data.kappa / 2.0)
        e2 = np.sort_complex(np.linalg.eigvals(build_matrix(other).L))
        assert np.max(np.abs(e1 - e2)) < 1e-10 * max(1.0, np.max(np.abs(e1)))


class TestGeneratingFunction:
    def test_round_trip_recovers_phi(self, rng):
        data = random_instance(rng, 5)
        m = build_model(data)
        lams = phi_zeros(m).zeros
        gf = generating_function(m, lams)
        assert gf.max_residual_on_lambdas() < 1e-8
        z1, z2 = 0.21 + 0.5j, -3.1 + 1.2j
        cross = gf(z1) * m.phi(z2) - gf(z2) * m.phi(z1)
        assert abs(cross) <= 1e-8 * abs(gf(z1) * m.phi(z2))

    def test_dimension_one(self, one_atom):
        m = build_model(one_atom)
        gf = generating_function(m, [2.0])
        z1, z2 = 0.4 + 0.3j, -1.0 + 2.0j
        cross = gf(z1) * m.phi(z2) - gf(z2) * m.phi(z1)
        assert abs(cross) <= 1e-10 * abs(gf(z1) * m.phi(z2))

    def test_sensitivity_is_finite(self, rng):
        data = random_instance(rng, 5)
        m = build_model(data)
        lams = phi_zeros(m).zeros
        gf = generating_function(m, lams)
        bumped = lams.copy()
        bumped[0] += 1e-6
        gf2 = generating_function(m, bumped)
        z = 0.37 + 0.61j
        rel = abs(gf(z) / gf(1j) - gf2(z) / gf2(1j)) / abs(gf(z) / gf(1j))
        assert np.isfinite(gf2.condition)
        assert rel < 1e-2  # continuous dependence at this perturbation size


class TestKappaShift:
    def test_matches_beta(self, rng):
        data = random_instance(rng, 6)
        m = build_model(data)
        for lam in (0.5, -2.2, 1.0 + 1.0j):
            assert kappa_shift(data, lam) == pytest.approx(m.beta(lam),
                                                           rel=1e-12)


class TestDegreeLimits:
    def test_generating_function_needs_full_set(self, two_atom):
        from perturblab.errors import NotMinimal
        from perturblab.model import build_model as bm
        with pytest.raises(NotMinimal):
            generating_function(bm(two_atom), [1 + np.sqrt(2)])
