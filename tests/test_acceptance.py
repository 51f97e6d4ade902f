"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test is tagged with the `acceptance` marker; a terminal-summary hook in
conftest prints one PASS/FAIL line per criterion at the end of the run.
"""

import time

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from perturblab.data import validate
from perturblab.model import (build_model, clark_measure, clark_transform,
                              discrete_inner, kernel_k, lebesgue_integral)
from perturblab.engine import (build_matrix, compute_spectrum, eigensystem,
                               gauge_check, adjoint_data, shifted_data)
from perturblab.diagnostics import (growth_profile, synthesis_defect,
                                    volterra_window_check)
from perturblab.gallery import mittag_leffler_check, sharp_instance

from conftest import beta_numerators, make_data, random_instance
from test_diagnostics import sigma_min_bruteforce

SEED = 745219


def instance_set(count, sizes=(2, 13)):
    """Deterministic mixed real/complex instance family."""
    rng = np.random.Generator(np.random.Philox(SEED))
    out = []
    for k in range(count):
        n = int(rng.integers(*sizes))
        out.append(random_instance(rng, n, real_type=(k % 2 == 0)))
    return out


@pytest.fixture(scope="module")
def instances400():
    return instance_set(400)


@pytest.mark.acceptance("criterion 01: oracle equivalence on 400 instances")
def test_criterion_01_oracle_equivalence(instances400):
    t0 = time.monotonic()
    for data in instances400:
        res = compute_spectrum(data)
        scale = max(1.0, float(np.max(np.abs(res.eigenvalues))))
        assert res.hausdorff <= 1e-7 * scale
        assert res.match_residual <= 1e-7 * scale
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


@pytest.mark.acceptance("criterion 02: closed-form anchors")
def test_criterion_02_anchors(one_atom, two_atom):
    res1 = compute_spectrum(one_atom)
    assert abs(res1.eigenvalues[0] - 2.0) <= 1e-10
    assert abs(res1.phi_zero_set[0] - 2.0) <= 1e-10
    res2 = compute_spectrum(two_atom)
    expected = np.array([1 - np.sqrt(2), 1 + np.sqrt(2)])
    for zs in (res2.eigenvalues, res2.phi_zero_set):
        got = np.sort(zs.real)
        assert np.max(np.abs(np.sort(zs.imag))) <= 1e-10
        assert np.max(np.abs(got - expected)) <= 1e-10


@pytest.mark.acceptance("criterion 03: inverse, shift and gauge identities")
def test_criterion_03_inverse_shift_gauge(instances400):
    rng = np.random.Generator(np.random.Philox(SEED + 1))
    for data in instances400:
        assert build_matrix(data).inverse_residual <= 1e-10
    for data in instances400[:60]:
        scale = max(1.0, float(np.max(np.abs(data.t))) * 2.0)
        lam = float(rng.uniform(-scale, scale))
        if np.min(np.abs(data.t - lam)) < 0.05:
            continue
        base = np.linalg.eigvals(build_matrix(data).L)
        moved = np.linalg.eigvals(build_matrix(shifted_data(data, lam)).L) \
            + lam
        from perturblab._numutil import distances, matched_max_distance
        assert matched_max_distance(distances(base, moved)) <= \
            1e-9 * max(1.0, np.max(np.abs(base)))
        tau1 = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        tau2 = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        assert gauge_check(data, tau1, tau2) <= 1e-10


@pytest.mark.acceptance("criterion 04: adjoint law and spectral symmetry")
def test_criterion_04_adjoint_law(instances400):
    from perturblab._numutil import distances, matched_max_distance
    for data in instances400[:120]:
        e1 = np.linalg.eigvals(build_matrix(data).L)
        e2 = np.linalg.eigvals(build_matrix(adjoint_data(data)).L)
        scale = max(1.0, float(np.max(np.abs(e1))))
        assert matched_max_distance(distances(np.conj(e1), e2)) <= 1e-9 * scale
        if validate(data).real_type:
            assert matched_max_distance(distances(e1, np.conj(e1))) \
                <= 1e-9 * scale


@pytest.mark.acceptance("criterion 05: model-function identities at the atoms")
def test_criterion_05_model_identities(instances400):
    for data in instances400[:150]:
        m = build_model(data)
        for n, t in enumerate(data.t):
            target = 1j * data.a[n] / data.b[n]
            scale = max(abs(target), 1e-9)
            assert abs(m.phi(t) - target) <= 1e-6 * scale
            assert abs(m.theta_prime(t) + 2j / data.nu[n]) <= \
                1e-6 * (2.0 / data.nu[n])
        if validate(data).real_type:
            num_beta, num_beta_star = beta_numerators(data)
            diff = np.max(np.abs(P.polysub(num_beta, num_beta_star)))
            assert diff <= 1e-12 * np.max(np.abs(num_beta))


@pytest.mark.acceptance("criterion 06: Clark consistency and pi normalization")
def test_criterion_06_clark_consistency(instances400):
    rng = np.random.Generator(np.random.Philox(SEED + 2))
    recorded_constants = []
    for data in instances400[:8]:
        m = build_model(data)
        cm = clark_measure(m, -1.0)
        assert np.max(np.abs(cm.atoms - data.t)) <= 1e-9 * (
            1.0 + np.max(np.abs(data.t)))
        assert np.max(np.abs(cm.weights - data.nu)) <= 1e-9 * (
            1.0 + np.max(data.nu))
        u = rng.normal(size=len(cm.atoms)) \
            + 1j * rng.normal(size=len(cm.atoms))
        F = clark_transform(cm, m, u)
        lebesgue, _ = F.lebesgue_norm()
        assert abs(lebesgue - F.discrete_norm()) <= 1e-5 * F.discrete_norm()
        recorded_constants.append(lebesgue / F.input_norm())
        # reproducing formula under both inner products
        lam = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.0))
        mu_pt = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.0))
        f = lambda z: kernel_k(m, mu_pt, z)
        kl = lambda z: kernel_k(m, lam, z)
        expected = 2j * np.pi * f(lam)
        fv = np.array([f(t) for t in cm.atoms])
        kv = np.array([kl(t) for t in cm.atoms])
        assert discrete_inner(fv, kv, cm.weights) == pytest.approx(
            expected, rel=1e-9)
        quadv, _ = lebesgue_integral(lambda x: f(x) * np.conj(kl(x)),
                                     cm.atoms)
        assert quadv == pytest.approx(expected, rel=1e-6)
    # the transform normalization constant: 2*pi against the sigma norm
    for c in recorded_constants:
        assert abs(c - 2 * np.pi) <= 1e-5 * 2 * np.pi


@pytest.mark.acceptance("criterion 07: zero-free construction reproduction")
def test_criterion_07_sharp_reproduction():
    t0 = time.monotonic()
    rep = mittag_leffler_check(-1.0, 1000)
    assert rep.lhs == pytest.approx(1.0 / np.cosh(np.pi), rel=1e-13)
    assert rep.err <= rep.tail_bound
    assert rep.err <= 1e-5
    inst = sharp_instance(1.0, 0.0, 0.0, 500)
    window = volterra_window_check(build_model(inst.data),
                                   (0.1, 50.0, 0.0, 10.0))
    assert window.count == 0
    assert window.boundary_min_abs_phi > 0
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


@pytest.mark.acceptance("criterion 08: imaginary-axis envelope families")
def test_criterion_08_growth_envelopes():
    rng = np.random.Generator(np.random.Philox(SEED + 3))
    weak = [random_instance(rng, int(rng.integers(2, 9))) for _ in range(50)]
    for data in weak:
        m = build_model(data)
        gp = growth_profile(m)
        assert gp.lower_envelope_c > 0
        # |phi(iy)| is stable within +-20% across the top decade
        assert gp.top_decade_ratio <= 1.2
    # degenerate family: kappa = signed sum with residues summing to zero
    for _ in range(10):
        n = int(rng.integers(4, 9))
        t = np.sort(rng.uniform(0.5, 20.0, n) * rng.choice([-1, 1], n))
        while np.min(np.diff(t)) < 0.1:
            t = np.sort(rng.uniform(0.5, 20.0, n) * rng.choice([-1, 1], n))
        w = rng.uniform(-1, 1, n)
        w[-1] -= np.sum(w)
        if abs(w[-1]) < 1e-3:
            w[-1] = -1e-2
            w[-2] += 1e-2 - np.sum(w)
        data = make_data(t, np.ones(n), w, np.ones(n), float(np.sum(w / t)))
        m = build_model(data, strict=False)
        gp = growth_profile(m)
        left_anchor = 10.0 * abs(m.phi(10j))
        assert gp.lower_envelope_c <= 1e-2 * left_anchor
        assert gp.fitted_exponent <= -1.9


@pytest.mark.acceptance("criterion 09: synthesis-defect determinant oracle")
def test_criterion_09_synthesis_oracle():
    rng = np.random.Generator(np.random.Philox(SEED + 4))
    for _ in range(8):
        n = int(rng.integers(2, 7))
        data = random_instance(rng, n)
        es = eigensystem(data)
        for mask in range(2 ** n):
            j1 = tuple(j for j in range(n) if not (mask >> j) & 1)
            j2 = tuple(j for j in range(n) if (mask >> j) & 1)
            svd_val = synthesis_defect(es, (j1, j2)).sigma_min
            assert abs(svd_val - sigma_min_bruteforce(es, (j1, j2))) <= 1e-10
    # selfadjoint data: partition-independent defect
    for _ in range(4):
        base = random_instance(rng, 5, real_type=True)
        data = make_data(base.t, base.mu, base.b, base.b, 1.1)
        es = eigensystem(data)
        vals = [synthesis_defect(
            es, (tuple(j for j in range(5) if not (mask >> j) & 1),
                 tuple(j for j in range(5) if (mask >> j) & 1))).sigma_min
            for mask in range(32)]
        assert max(vals) - min(vals) <= 1e-10


@pytest.mark.acceptance("criterion 10: interlacing pipeline at K = 30")
def test_criterion_10_section4_pipeline():
    from perturblab.gallery import section4_build

    pipe = section4_build(np.arange(1.0, 31.0), 30)
    assert np.max(pipe.residue_rel_errors) <= 1e-8
    t_sel = pipe.t[list(pipe.n1_indices)]
    assert pipe.b0_zeros.size == t_sel.size - 1
    for lo, hi, s in zip(t_sel, t_sel[1:], pipe.b0_zeros):
        assert lo < s < hi
    assert pipe.arb1_max_n >= 3
    assert pipe.arb2_max_n >= 1
    assert 0 < pipe.q_total < 1
    # documented double-precision boundary before the 2^n amplification bites
    assert pipe.double_precision_max_k >= 10
