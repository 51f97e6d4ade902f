"""Matrix realization, two-route spectra, the eigensystem, adjoints, gauges."""

import numpy as np
import pytest

from perturblab.data import DiscreteSpectralData, RankNData
from perturblab.errors import AdmissibilityError, MatchingFailure
from perturblab.model import CauchyRepresentation, build_model
from perturblab.engine import (ABERTH_ITERATIONS, MatrixRealization,
                               _aberth_refine, _beta_infinity, _collisions,
                               adjoint_data, build_matrix,
                               compute_spectrum, eigensystem, gauge_check,
                               kappa_shift, oracle_spectrum, phi_zeros,
                               shifted_data)
from perturblab.gallery import sharp_instance
from perturblab._numutil import (assignment, cluster_points, cmul,
                                 distances, hausdorff_distance,
                                 matched_max_distance)

from conftest import (beta_numerators, inverse_form, make_data,
                      no_eigensolve, random_instance, separated_instance)


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


def random_rank_two(rng, n, margin=0.5):
    """Rank-two data over n separated atoms of [-20, 20], with kappa drawn
    until its coupling kappa - b* A^{-1} a and kappa itself both have a
    smallest singular value of at least margin."""
    t = separated_instance(rng, n).t
    mu = rng.uniform(0.5, 2.0, n)
    a, b = (rng.uniform(0.5, 1.0, (n, 2))
            * np.exp(2j * np.pi * rng.uniform(size=(n, 2))) for _ in "ab")
    omega = (b.conj().T * (mu / t)) @ a
    while True:
        kappa = rng.uniform(-3, 3, (2, 2)) + 1j * rng.uniform(-3, 3, (2, 2))
        if min(np.linalg.svd(m, compute_uv=False)[-1]
               for m in (kappa, kappa - omega)) >= margin:
            return RankNData(DiscreteSpectralData(t, mu), a, b, kappa)


class TestClosedForm:
    """build_matrix forms L = A + a S^{-1} b*, S = kappa - b* A^{-1} a."""

    @pytest.mark.parametrize("route", ["direct", "shift"])
    @pytest.mark.parametrize("rank", [1, 2])
    def test_matches_inverse_form(self, rng, rank, route):
        for _ in range(10):
            data = (random_instance(rng, 8) if rank == 1
                    else random_rank_two(rng, 8))
            L = build_matrix(data, route=route).L
            want = np.linalg.inv(inverse_form(data))
            assert np.linalg.norm(L - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_shift_route_gives_the_direct_matrix(self, rng, rank):
        # the shifted data have the same coupling: S(lambda) = S
        for _ in range(10):
            data = (random_instance(rng, 8) if rank == 1
                    else random_rank_two(rng, 8))
            direct = build_matrix(data, route="direct")
            shift = build_matrix(data, route="shift")
            assert shift.route[0] == "shift" and shift.route[1] != 0.0
            assert np.linalg.norm(shift.L - direct.L) <= \
                1e-13 * np.linalg.norm(direct.L)

    @pytest.mark.parametrize("route", ["direct", "shift"])
    @pytest.mark.parametrize("rank, n", [(1, 1024), (2, 512)])
    def test_one_n_by_n_array(self, rank, n, route):
        import tracemalloc

        rng = np.random.Generator(np.random.Philox(n))
        data = (separated_instance(rng, n) if rank == 1
                else random_rank_two(rng, n))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            M = build_matrix(data, route=route)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert M.route[0] == route
        assert peak < 1.5 * 16 * n * n

    def test_inverse_residual_reads_the_inverse_form(self, two_atom):
        M = build_matrix(two_atom)
        assert M.inverse_residual <= 1e-15
        wrong = MatrixRealization(M.L + 1e-3, M.route, M.data)
        assert wrong.inverse_residual > 1e-5


class TestOracle:
    def test_plain_diagonal(self):
        M = MatrixRealization(np.diag([1.0, 2.0, 3.0]).astype(complex),
                              ("direct",), None)
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

    @pytest.mark.parametrize("points, radius", [
        # all separated: every point is its own center
        (np.arange(7) * 0.5 + 1j * np.arange(7), 0.1),
        # a chain of real gaps <= radius spanning 19 radii, one point off it
        (np.concatenate([np.arange(20) * 0.09, [5.0]])
         + 1j * np.tile([0.0, 0.05, -0.05, 0.02], 6)[:21], 0.1),
        # equal real parts, some within radius in imag and some not
        (2.0 + 1j * np.array([0.0, 0.3, 0.05, -0.3, 0.3, 1.0]), 0.1),
        (np.array([], dtype=complex), 0.1),
    ], ids=["separated", "chain", "equal_real", "empty"])
    def test_runs_equal_the_center_loop(self, points, radius):
        centers, mults = cluster_points(points, radius)
        ref_centers, ref_mults = cluster_loop(points, radius)
        assert centers.dtype == complex and mults.dtype == int
        assert centers.tobytes() == ref_centers.astype(complex).tobytes()
        assert mults.tolist() == ref_mults.tolist()


def colliding_sets(rng, n, grid):
    """Distances of two n-point sets whose nearest-neighbour map (row to
    column) is not a bijection; on a grid of 3 x 3 integer points, with
    ties and repeated points, else uniform in the unit square."""
    while True:
        if grid:
            xs, ys = rng.integers(0, 3, (2, n)) + 1j * rng.integers(0, 3,
                                                                    (2, n))
        else:
            xs, ys = rng.uniform(size=(2, n)) + 1j * rng.uniform(size=(2, n))
        cost = distances(xs, ys)
        if np.unique(np.argmin(cost, axis=1)).size < n:
            return cost


class TestAssignment:
    @pytest.mark.parametrize("grid", [False, True], ids=["uniform", "grid"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_bottleneck_equals_brute_force(self, rng, n, grid):
        import itertools

        perms = np.array(list(itertools.permutations(range(n))))
        rows = np.arange(n)
        for _ in range(10):
            cost = colliding_sets(rng, n, grid)
            col = assignment(cost)
            assert sorted(col) == list(range(n))
            assert cost[rows, col].max() == cost[rows, perms].max(axis=1).min()

    @pytest.mark.parametrize("n", [20, 150])
    def test_no_perfect_matching_below_the_bottleneck(self, rng, n):
        # the min-sum assignment of the 0/1 costs [cost >= value] pays 0
        # exactly when the costs below value alone hold a perfect matching
        from scipy.optimize import linear_sum_assignment

        rows = np.arange(n)
        for _ in range(5):
            cost = colliding_sets(rng, n, grid=False)
            col = assignment(cost)
            assert sorted(col) == list(rows)
            value = cost[rows, col].max()
            above = (cost >= value).astype(float)
            assert above[rows, linear_sum_assignment(above)[1]].sum() >= 1.0
            assert value <= cost[rows, linear_sum_assignment(cost)[1]].max()

    @pytest.mark.parametrize("n", [1, 7, 200])
    def test_nearest_bijection_costs_what_scipy_does(self, rng, n):
        from scipy.optimize import linear_sum_assignment

        rows = np.arange(n)
        xs = rng.uniform(-20.0, 20.0, n) + 1j * rng.uniform(-2.0, 2.0, n)
        for noise in (1e-12, 1e-3, 1e-2):
            ys = rng.permutation(xs + noise * (rng.normal(size=n)
                                               + 1j * rng.normal(size=n)))
            cost = distances(xs, ys)
            col = assignment(cost)
            assert col.tolist() == np.argmin(cost, axis=1).tolist()
            assert cost[rows, col].max() == \
                cost[rows, linear_sum_assignment(cost)[1]].max()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_distance_raises(self, bad):
        with pytest.raises(MatchingFailure):
            matched_max_distance(distances([0.0, 1.0], [bad, 1.0]))

    @pytest.mark.parametrize("xs, ys, matched, hausdorff", [
        ([], [], 0.0, 0.0),
        ([1.0], [], np.inf, np.inf),
        ([0.0, 1.0], [3.0], np.inf, 3.0),
        ([0.0, 0.0, 4.0], [0.0, 4.0, 4.0], 4.0, 0.0),
    ])
    def test_edge_cases(self, xs, ys, matched, hausdorff):
        dist = distances(xs, ys)
        assert matched_max_distance(dist) == matched
        assert hausdorff_distance(dist) == hausdorff


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
        assert matched_max_distance(distances(eigs, zeros.zeros)) \
            <= 1e-10 * scale

    @pytest.mark.parametrize("n", [400, 800, 2048])
    def test_model_route_matches_oracle_beyond_200(self, n, monkeypatch):
        data = separated_instance(np.random.Generator(np.random.Philox(n)), n)
        eigs = oracle_spectrum(build_matrix(data)).eigenvalues
        scale = max(1.0, float(np.max(np.abs(eigs))))
        no_eigensolve(monkeypatch)
        zeros = phi_zeros(build_model(data))
        assert zeros.seeding == "first_order"
        assert matched_max_distance(distances(eigs, zeros.zeros)) \
            <= 1e-10 * scale

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
        assert matched_max_distance(distances(eigs, roots)) <= 1e-10 * scale


def step_points(monkeypatch):
    """The points of every regular_parts call, in order, as they are made."""
    calls = []
    regular_parts = CauchyRepresentation.regular_parts

    def recorded(self, js, zs, **options):
        calls.append(np.array(zs, dtype=complex))
        return regular_parts(self, js, zs, **options)

    monkeypatch.setattr(CauchyRepresentation, "regular_parts", recorded)
    return calls


def zero_a_n(seed, n, index):
    """separated_instance with a_index = 0, which makes t_index a zero."""
    data = separated_instance(np.random.Generator(np.random.Philox(seed)), n)
    a = data.a.copy()
    a[index] = 0.0
    return make_data(data.t, data.mu, a, data.b, data.kappa)


def repeats(zs):
    """Each entry of zs equal to an earlier one, as the gate of
    secular_zeros flags it: _collisions with every root moving."""
    return _collisions(zs, np.arange(zs.size))[0]


class TestFreezing:
    """Each Aberth step refines only the roots still moving: a root leaves
    after its first step below the stop and keeps the value it took."""

    def test_moving_points_never_rise(self, separated_200, monkeypatch):
        data, eigs, scale = separated_200
        m = build_model(data)
        calls = step_points(monkeypatch)
        zeros = phi_zeros(m)
        sizes = [z.size for z in calls[1:]]     # calls[0] gives the starts
        assert zeros.seeding == "first_order"
        assert len(sizes) == zeros.aberth_iterations
        assert sizes[0] == 200 and sizes[-1] < 200
        assert all(later <= size for size, later in zip(sizes, sizes[1:]))
        assert matched_max_distance(distances(eigs, zeros.zeros)) \
            <= 1e-10 * scale

    def test_frozen_roots_keep_their_values(self, separated_200, monkeypatch):
        data, _, _ = separated_200
        beta = build_model(data).beta
        seeds = data.t + beta.residues / beta.regular_parts(
            np.arange(data.t.size), data.t)[0]
        calls = step_points(monkeypatch)
        final, iterations, stopped = _aberth_refine(beta, seeds)
        moving = calls[:iterations]     # moving[k]: the points of step k + 1
        assert stopped and iterations >= 3
        for k in range(1, iterations):
            after_k = _aberth_refine(beta, seeds, k)[0]
            frozen = ~np.isin(after_k, moving[k])
            assert np.count_nonzero(frozen) == after_k.size - moving[k].size
            assert after_k[frozen].tobytes() == final[frozen].tobytes()

    @pytest.mark.parametrize("frozen_first", [True, False])
    def test_moving_root_on_a_frozen_one_separates(self, frozen_first):
        # the root started at t_11 (a_11 = 0) has no finite correction, so
        # it freezes after one zero step.  Two roots start together at v;
        # the later one is nudged by exactly v - t_11 and meets the frozen
        # root at step 2, from after or before it in index order
        data = zero_a_n(7, 30, 11)
        beta = build_model(data).beta
        zeros = phi_zeros(build_model(data)).zeros
        tn = data.t[11]
        nudge = -1e-8 * max(1.0, float(np.max(np.abs(data.t)))) * (1.0 + 1.0j)
        v = complex(tn + nudge.real, nudge.imag)
        while (v - nudge).real != tn:
            v = complex(np.nextafter(v.real, tn - (v - nudge).real + v.real),
                        v.imag)
        c = int(np.flatnonzero(zeros == tn)[0])
        pair = [c + 1, c + 2] if frozen_first else [c - 2, c - 1]
        seeds = zeros.copy()
        seeds[pair] = v
        after_1 = _aberth_refine(beta, seeds, 1)[0]
        assert after_1[c] == tn and after_1[pair[1]] == tn
        roots, _, stopped = _aberth_refine(beta, seeds)
        assert stopped and not np.any(repeats(roots))
        assert matched_max_distance(distances(zeros, roots)) <= 1e-10 * max(
            1.0, float(np.max(np.abs(zeros))))

    def test_collision_flags(self):
        # a moving root equal to a frozen one is nudged whichever comes
        # first; of equal moving roots all but the first in index order, and
        # no root equal to another may freeze in that step
        roots = np.array([1 + 1j, 2.0, 1 + 1j, 3.0, 2.0])

        def flags(moving):
            return [f.tolist() for f in _collisions(roots, np.array(moving))]

        assert flags([0, 3]) == [[True, False], [True, False]]
        assert flags([2, 3]) == [[True, False], [True, False]]
        assert flags([1, 3, 4]) == [[False, False, True], [True, False, True]]
        nudged, shared = _collisions(roots, np.arange(5))
        assert nudged.tolist() == [False, False, True, False, True]
        assert shared.tolist() == [True, True, True, False, True]

    @staticmethod
    def two_sorts(roots, moving):
        """_collisions as first written: the repeat flags (each entry equal
        to an earlier one) forward and reversed."""
        frozen = np.delete(roots, moving)
        zs = np.concatenate((frozen, roots[moving]))
        earlier, later = repeats(zs), repeats(zs[::-1])[::-1]
        return earlier[frozen.size:], (earlier | later)[frozen.size:]

    def test_collisions_equal_the_two_sort_form(self):
        rng = np.random.Generator(np.random.Philox(14))
        pool = np.array([0.0, -0.0, 1.5, -2.0, np.inf, -np.inf, np.nan])
        for _ in range(2000):
            size = int(rng.integers(1, 12))
            roots = np.empty(size, dtype=complex)
            roots.real = rng.choice(pool, size)
            roots.imag = rng.choice(pool, size)
            moving = np.sort(rng.choice(size, int(rng.integers(1, size + 1)),
                                        replace=False))
            got = _collisions(roots, moving)
            want = self.two_sorts(roots, moving)
            assert [f.tolist() for f in got] == [f.tolist() for f in want]

    def test_sharp_instance_stops_before_the_cap(self):
        # the eigensolve starts settle in a few steps once settled roots
        # stop being stepped; |beta| at the zeros was 3.1e-15 with every
        # root stepped to the cap
        m = build_model(sharp_instance(1.0, 0.0, 0.0, 500).data)
        zeros = phi_zeros(m)
        assert zeros.seeding == "eigensolve"
        assert zeros.aberth_iterations < ABERTH_ITERATIONS
        assert np.max(np.abs(m.beta(zeros.zeros))) <= 1e-14


class TestRepeats:
    """_collisions with every root moving flags, as its first flag, what the
    N x N comparison it replaced flagged: each entry equal to an earlier
    one."""

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
        assert repeats(z).tolist() == self.pairwise(z).tolist()

    def test_random_draws_from_a_small_pool(self):
        rng = np.random.Generator(np.random.Philox(11))
        pool = np.array([0.0, -0.0, 1.5, -2.0, np.inf, -np.inf, np.nan])
        for size in (2, 7, 50, 400):
            z = np.empty(size, dtype=complex)
            z.real, z.imag = rng.choice(pool, size), rng.choice(pool, size)
            assert repeats(z).tolist() == self.pairwise(z).tolist()


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
        assert matched_max_distance(distances(eigs, zeros.zeros)) \
            <= 1e-10 * max(1.0, float(np.max(np.abs(eigs))))

    def test_budget_reports_when_the_stop_never_fires(self, separated_200):
        data, eigs, _ = separated_200
        beta = build_model(data).beta
        _, iterations, stopped = _aberth_refine(beta, data.t + 0.5j, 2)
        assert (iterations, stopped) == (2, False)
        _, iterations, stopped = _aberth_refine(beta, eigs)
        assert stopped and 1 <= iterations <= 2


#: perfbench/instances.problem(rng_for(5, 20, 12), 12): twelve atoms on
#: which the third first-order Aberth step meets w_j + u R = 0 exactly
ZERO_STEP_PROBLEM = dict(
    t=[-18.910817009875903, -15.087234955917644, -11.97617793481201,
       -8.96379740920641, -5.760159785733937, -1.0495080596311503,
       1.9154405244401942, 4.608309457843929, 7.9993561215964055,
       11.601234137834174, 15.028254297020503, 18.81515852266245],
    mu=[1.0860122497069336, 1.1550282603846225, 1.2339908253569642,
        1.3585132610080217, 0.5656450371075212, 0.5864897496527635,
        0.9988517862543134, 1.2907911100280123, 1.3960394828778022,
        1.8460191645127826, 1.7539992932460624, 1.7662185549492668],
    a=[0.8254490936961691 + 0.3857957410130432j,
       -0.6599096247421429 - 0.06879762095835694j,
       -0.6709634795510557 + 0.3665196412728546j,
       -0.5547269918353565 - 0.7476649766439489j,
       0.5001149301307668 + 0.4224892865182053j,
       -0.5764086425285193 - 0.4109517869939555j,
       0.3439978956280051 + 0.7947655192554144j,
       -0.7638180679838046 + 0.2946526920138132j,
       0.3317093020743313 + 0.8025971699561489j,
       0.3215582729423361 - 0.9386534245252275j,
       0.8814695375176136 + 0.2628228798404828j,
       -0.195762037521703 + 0.8769783282270496j],
    b=[0.4289619966828935 + 0.5755903617995751j,
       0.4296052191173283 + 0.3529214306325315j,
       -0.6056726979179902 - 0.4916868502230627j,
       -0.2678735256975248 + 0.8379408682481786j,
       0.45074388643837204 + 0.45707381262982555j,
       0.3931239092376483 - 0.6171606229999268j,
       -0.7464762365733689 - 0.6601475733132091j,
       -0.7723324974180387 + 0.08366785856100882j,
       -0.6707581522929513 - 0.6157026875871213j,
       -0.10806256495127078 - 0.5183188807009745j,
       -0.6628012135789634 + 0.7094563597110244j,
       -0.09656040066492494 + 0.8593707500983037j],
    kappa=-1.397284825098061 - 1.2295653781148337j)
ZERO_STEP_ZEROS = [
    -19.036829002807643 + 0.39968885388137826j,
    -15.03543946885853 - 0.23252679827795034j,
    -11.860931108714327 + 0.42350568362358787j,
    -9.043000576208959 - 0.6734906992321477j,
    -5.8213778780088 + 0.11530242083799079j,
    -0.9362316049189227 + 0.10950647494328178j,
    2.371798746597149 - 0.2895452035145096j,
    4.415563228689835 + 0.5002965840036583j,
    8.69955645844608 - 0.3428069153929593j,
    11.025328463774976 + 0.3005975415708381j,
    16.28453756583744 + 0.1220999224692016j,
    17.763178314140767 + 0.7429981465271662j]


class TestZeroDenominator:
    def test_zeros_pinned_through_an_exact_zero(self, monkeypatch):
        # where w_j + u R is exactly 0, N'/N's quotient is not finite and
        # the step takes zero; a change to that handling moves these bits
        m = build_model(make_data(**ZERO_STEP_PROBLEM))
        calls = step_points(monkeypatch)
        zeros = phi_zeros(m)
        assert (zeros.seeding, zeros.aberth_iterations) == ("first_order", 4)
        beta = m.beta
        exact = []
        for zs in list(calls[1:]):          # calls[0] gives the starts
            js = beta.nearest_poles(zs)
            r = beta.regular_parts(js, zs, derivatives=False)[0]
            den = beta.residues[js] + cmul(beta.poles[js] - zs, r)
            exact.append(int(np.count_nonzero(den == 0)))
        assert exact == [0, 0, 1, 0]
        assert zeros.zeros.tobytes() == np.array(ZERO_STEP_ZEROS).tobytes()


class TestEigensystem:
    def test_collinearity_and_biorthogonality(self, rng):
        for _ in range(10):
            data = random_instance(rng, 7)
            es = eigensystem(data)
            # the model vectors are eigenvectors of L, the left vectors of
            # its adjoint in the mu-weighted inner product
            L = build_matrix(data).L
            adjoint = (L.conj().T * data.mu) / data.mu[:, None]
            lams = es.eigenvalues
            for mat, vecs, vals in ((L, es.model_vectors, lams),
                                    (adjoint, es.left_vectors, lams.conj())):
                residual = np.linalg.norm(mat @ vecs - vecs * vals, axis=0)
                assert np.max(residual / np.linalg.norm(vecs, axis=0)) \
                    < 1e-8 * np.linalg.norm(L)
            # left vectors are biorthogonal to the model vectors
            ip = es.left_vectors.conj().T @ (es.model_vectors
                                             * data.mu[:, None])
            assert np.max(np.abs(ip - np.eye(len(es.eigenvalues)))) < 1e-8


class TestAdjointAndGauge:
    def test_selfadjoint_case(self, rng):
        data = random_instance(rng, 5, real_type=True)
        data = make_data(data.t, data.mu, data.b, data.b, 1.7)
        L = build_matrix(data).L
        # the adjoint in <x, y> = sum x conj(y) mu
        weighted = (L.conj().T * data.mu) / data.mu[:, None]
        assert np.max(np.abs(L - weighted)) < 1e-10
        L_star = build_matrix(adjoint_data(data)).L
        assert np.linalg.norm(L_star - weighted) < 1e-12 * max(
            1.0, np.linalg.norm(L))

    def test_adjoint_spectrum_conjugate(self, rng):
        for _ in range(10):
            data = random_instance(rng, 6)
            e1 = np.linalg.eigvals(build_matrix(data).L)
            e2 = np.linalg.eigvals(build_matrix(adjoint_data(data)).L)
            assert matched_max_distance(distances(np.conj(e1), e2)) <= \
                1e-9 * max(1.0, np.max(np.abs(e1)))

    def test_real_type_spectrum_symmetric(self, rng):
        for _ in range(10):
            data = random_instance(rng, 6, real_type=True)
            eigs = np.linalg.eigvals(build_matrix(data).L)
            assert matched_max_distance(distances(eigs, np.conj(eigs))) <= \
                1e-8 * max(1.0, np.max(np.abs(eigs)))

    def test_gauge_identity_scalars(self, two_atom):
        assert gauge_check(two_atom, 1.0, 1.0) == 0.0
        assert gauge_check(two_atom, 2.0, 3.0) < 1e-12

    def test_gauge_rank_two(self, rng):
        base = DiscreteSpectralData([-2.0, 1.0, 3.0], [1.0, 0.5, 2.0])
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


class TestKappaShift:
    def test_matches_beta(self, rng):
        data = random_instance(rng, 6)
        m = build_model(data)
        for lam in (0.5, -2.2, 1.0 + 1.0j):
            assert kappa_shift(data, lam) == pytest.approx(m.beta(lam),
                                                           rel=1e-12)

