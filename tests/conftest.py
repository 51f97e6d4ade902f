"""Shared fixtures: reference instances and the random-instance factory."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from perturblab.data import Atom, DiscreteSpectralData, RankOneData, pairing_sum


def make_data(t, mu, a, b, kappa):
    base = DiscreteSpectralData(tuple(Atom(float(tt), float(mm))
                                      for tt, mm in zip(t, mu)))
    return RankOneData(base, np.asarray(a, dtype=complex),
                       np.asarray(b, dtype=complex), kappa)


def beta_numerators(data):
    """Monomial coefficients (low to high) of the numerators of beta, beta*.

    A reference built apart from the program: with den(z) = prod (1 - z/t_n)
    and w_n = a_n conj(b_n) mu_n, den (1/(t_n - z) - 1/t_n) = (loo_n - den)
    /t_n, loo_n the product without factor n, so den beta = kappa den +
    sum_n (w_n/t_n)(loo_n - den); beta* takes conj(kappa) and conj(w_n).
    Returns (num_beta, num_beta_star).  Cubic in the atom count.
    """
    t = data.t
    w = data.a * np.conj(data.b) * data.mu
    factors = [np.array([1.0, -1.0 / tn]) for tn in t]

    def product(fs):
        out = np.array([1.0 + 0.0j])
        for f in fs:
            out = P.polymul(out, f)
        return out

    den = product(factors)
    num = data.kappa * den
    num_star = np.conj(data.kappa) * den
    for n in range(t.size):
        diff = P.polysub(product(factors[:n] + factors[n + 1:]), den)
        num = P.polyadd(num, (w[n] / t[n]) * diff)
        num_star = P.polyadd(num_star, (np.conj(w[n]) / t[n]) * diff)
    return num, num_star


@pytest.fixture
def one_atom():
    """t=1, mu=1, a=b=1, kappa=2: spectrum {2}, phi(1) = i."""
    return make_data([1.0], [1.0], [1.0], [1.0], 2.0)


@pytest.fixture
def two_atom():
    """t=(-1,1), mu=(1,1), a=b=(1,1), kappa=1: spectrum {1 +- sqrt 2}."""
    return make_data([-1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0], 1.0)


def random_instance(rng, n=None, real_type=False, kappa_margin=0.05):
    """Instance with t in +-[0.5, 20] (min gap 0.05), mu in [0.1, 10],
    a, b in the unit disc with |b| >= 0.1, and kappa away from the pairing sum.
    """
    if n is None:
        n = int(rng.integers(2, 13))
    while True:
        t = np.sort(rng.uniform(0.5, 20.0, n) * rng.choice([-1.0, 1.0], n))
        if n == 1 or np.min(np.diff(t)) > 0.05:
            break
    mu = rng.uniform(0.1, 10.0, n)
    if real_type:
        a = rng.uniform(-1.0, 1.0, n).astype(complex)
        b = rng.uniform(-1.0, 1.0, n)
        b = np.where(np.abs(b) < 0.1, np.sign(b + 1e-9) * 0.4, b).astype(complex)
    else:
        a = (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)) / np.sqrt(2)
        b = (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)) / np.sqrt(2)
        scale = np.maximum(np.abs(b), 0.1) / np.where(np.abs(b) < 1e-12, 1.0,
                                                      np.abs(b))
        b = np.where(np.abs(b) < 0.1, b * scale + 0.2, b)
    if not np.any(np.abs(a) > 1e-6):
        a[0] = 0.5
    data0 = make_data(t, mu, a, b, 1.0)
    omega = pairing_sum(data0)
    while True:
        if real_type:
            kappa = complex(rng.uniform(-3.0, 3.0), 0.0)
        else:
            kappa = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        if abs(kappa - omega) >= kappa_margin * (1.0 + abs(omega)):
            break
    return make_data(t, mu, a, b, kappa)


def separated_instance(rng, n, lo=-20.0, hi=20.0, kappa_margin=0.25):
    """Instance with one atom per cell of an even partition of [lo, hi].

    Each atom sits within the middle half of its cell, so neighbours are at
    least half a cell apart and, for even n on a symmetric interval, no
    atom comes within a quarter cell of 0.  Atoms are never redrawn, so
    large n cost one pass (random_instance rejects draws on a minimum gap
    and stalls past about 150 atoms).  mu in [0.5, 2], |a|, |b| in [0.5, 1]
    with uniform phases, and kappa away from the pairing sum.
    """
    assert n % 2 == 0 and lo == -hi, "keeps every atom away from 0"
    width = (hi - lo) / n
    t = lo + width * (np.arange(n) + 0.5 + rng.uniform(-0.25, 0.25, n))
    mu = rng.uniform(0.5, 2.0, n)
    a = rng.uniform(0.5, 1.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    b = rng.uniform(0.5, 1.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    omega = pairing_sum(make_data(t, mu, a, b, 1.0))
    while True:
        kappa = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        if abs(kappa - omega) >= kappa_margin * (1.0 + abs(omega)):
            return make_data(t, mu, a, b, kappa)


def no_eigensolve(monkeypatch):
    """Make np.linalg.eigvals, the secular solver's fallback start, raise."""
    def refuse(a):
        raise AssertionError("a dense eigensolve ran")
    monkeypatch.setattr(np.linalg, "eigvals", refuse)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(20240817))


# -- acceptance-line reporting ------------------------------------------------

def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(name): acceptance-criterion test")
    config._acceptance_results = {}


def pytest_runtest_makereport(item, call):
    if call.when != "call":
        return
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    name = marker.args[0] if marker.args else item.name
    outcome = "PASS" if call.excinfo is None else "FAIL"
    item.config._acceptance_results[name] = outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = getattr(config, "_acceptance_results", {})
    if not results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(results):
        terminalreporter.write_line(f"{results[name]}  {name}")
