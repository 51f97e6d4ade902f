"""Checks of perturblab artifacts against the references.

Each check takes the parsed artifacts of one operation (a dict from file
name to the JSON "result" object or the CSV rows) plus what it needs to
know about the inputs, and returns a list of failure messages; an empty
list means the output passed.  Checks never consult a stored copy of an
earlier output.
"""

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

import references as ref
from instances import pairing

#: eigenvalues and model zeros must match the reference within this share
#: of the spectral scale; both routes reach about 4e-13 at 200 atoms
SPECTRUM_RTOL = 1e-9
#: relative tolerance for values computed two ways in double precision
VALUE_RTOL = 1e-9


def pairs(values):
    return np.array([complex(re, im) for re, im in values], dtype=complex)


def close(name, got, want, rtol=VALUE_RTOL, atol=0.0):
    """Elementwise |got - want| <= atol + rtol |want|, with matching shapes."""
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, expected {want.shape}"]
    err = np.abs(got - want)
    bad = err > atol + rtol * np.abs(want)
    if np.any(bad):
        k = int(np.argmax(np.where(bad, err, -1.0)))
        return [f"{name}: {int(bad.sum())} values off, worst at {k}: "
                f"{got.flat[k]!r} vs {want.flat[k]!r}"]
    return []


def matched(name, got, want, tol):
    """Optimal bipartite matching of two point sets, every pair within tol."""
    if got.size != want.size:
        return [f"{name}: {got.size} points, expected {want.size}"]
    if got.size == 0:
        return []
    cost = np.abs(got[:, None] - want[None, :])
    rows, cols = linear_sum_assignment(cost)
    worst = float(cost[rows, cols].max())
    return [f"{name}: matched distance {worst:.3g} > {tol:.3g}"] if worst > tol else []


def spectral_scale(eigs):
    return max(1.0, float(np.max(np.abs(eigs))))


def expect(name, cond):
    return [] if cond else [f"{name} does not hold"]


# -- spectrum, compare, validate, macaev --------------------------------------

def spectrum(art, eigs, rank_one=True, route="direct"):
    res = art["spectrum.json"]
    tol = SPECTRUM_RTOL * spectral_scale(eigs)
    errs = matched("oracle", pairs(res["oracle"]), eigs, tol)
    if rank_one:
        errs += matched("model_zeros", pairs(res["model_zeros"]), eigs, tol)
        errs += expect("match_residual <= tol",
                       res["match_residual"] is not None
                       and 0.0 <= res["match_residual"] <= tol)
    else:
        errs += expect("no model zeros at rank two", res["model_zeros"] == [])
    errs += expect(f"route {route}", res["route"][0] == route)
    return errs


def compare(art, eigs):
    res = art["compare.json"]
    scale = spectral_scale(eigs)
    errs = close("tolerance", res["tolerance"], 1e-7 * scale)
    errs += expect("ok", res["ok"] is True)
    errs += expect("match_residual <= tol",
                   0.0 <= res["match_residual"] <= SPECTRUM_RTOL * scale)
    return errs


def validate(art, p):
    res = art["report.json"]
    t, mu, a, b = p["t"], p["mu"], p["a"], p["b"]
    terms_abs = float(np.sum(np.abs(a * np.conj(b) * mu / t)))
    omega = pairing(p["t"], p["mu"], p["a"], p["b"])
    atol = VALUE_RTOL * (1.0 + abs(p["kappa"]) + terms_abs)
    errs = close("kappa_minus_omega", complex(*res["kappa_minus_omega"]),
                 p["kappa"] - omega, rtol=0.0, atol=atol)
    errs += close("abs_sum", res["generalized_weak"]["abs_sum"],
                  float(np.sum(np.abs(a * b) * mu / np.abs(t))))
    errs += close("signed_sum", complex(*res["generalized_weak"]["signed_sum"]),
                  omega, rtol=0.0, atol=atol)
    errs += expect("admissible", res["condition_A"] and res["condition_A_star"]
                   and res["generalized_weak"]["satisfies"])
    errs += expect("complex type", res["real_type"] is False)
    errs += expect("rank 1", res["rank"] == 1)
    return errs


def macaev(art, p):
    res = art["macaev.json"]
    diff = p["kappa"] - pairing(p["t"], p["mu"], p["a"], p["b"])
    errs = close("matrix", pairs(res["matrix"][0]), np.array([diff]))
    errs += close("smallest_singular", res["smallest_singular"], abs(diff))
    errs += expect("invertible", res["invertible"] is True)
    return errs


# -- clark, model eval, growth, integral, mass ---------------------------------

def clark(art, p, zeta):
    res = art["clark.json"]
    atoms, weights = np.asarray(res["atoms"]), np.asarray(res["weights"])
    if zeta == -1:
        want_atoms, want_weights = p["t"], ref.clark_weights(p)
    else:
        want_atoms, want_weights = ref.clark_atoms(p, zeta)
    scale = 1.0 + np.max(np.abs(p["t"]))
    errs = close("atoms", atoms, want_atoms, rtol=0.0, atol=VALUE_RTOL * scale)
    if not errs:
        errs += close("weights", weights, want_weights, rtol=1e-7)
    if not errs and zeta != -1:
        errs += close("Theta(atoms) = zeta", ref.theta(p, atoms),
                      np.full(atoms.shape, zeta), rtol=0.0, atol=1e-9)
    return errs


def model_eval(art, p, grid, imag):
    rows = np.asarray(art["eval_phi.csv"])
    z = grid + 1j * imag
    want = ref.phi(p, z)
    if rows.shape != (z.size, 4):
        return [f"eval_phi.csv: shape {rows.shape}, expected {(z.size, 4)}"]
    errs = close("z", rows[:, 0] + 1j * rows[:, 1], z, rtol=0.0, atol=1e-12)
    errs += close("phi", rows[:, 2] + 1j * rows[:, 3], want,
                  atol=1e-12 * float(np.max(np.abs(want))))
    return errs


def growth(art, p, y_max=1e4, n_points=200):
    rows = np.asarray(art["growth_grid.csv"])
    y = np.logspace(0.0, np.log10(y_max), n_points)
    if rows.shape != (n_points, 4):
        return [f"growth_grid.csv: shape {rows.shape}"]
    errs = close("y", rows[:, 0], y, rtol=1e-14)
    for col, fn in ((1, ref.phi), (2, ref.beta), (3, ref.phi_tilde)):
        errs += close(f"growth column {col}", rows[:, col], np.abs(fn(p, 1j * y)))
    return errs


def integral(art, p, n_weight, tau, eta):
    res = art["integral.json"]
    errs = close("value", res["value"], ref.integral(p, n_weight, tau, eta),
                 rtol=1e-6)
    errs += expect("convergent", res["convergent"] is True)
    errs += close("decay_exponent", res["decay_exponent"], -float(n_weight))
    return errs


def mass(art, p):
    """zeta = 1 is Theta(infinity) for the canonical delta: a point mass."""
    res = art["mass.json"]
    y = np.logspace(1, 6, 26)
    r = ref.rho(p, 1j * y)
    s0 = float(np.sum(ref.clark_weights(p)))
    # y |1 - Theta(iy)| / 2 with 1 - Theta = 2 rho/(i + rho)
    errs = close("grid_values", res["grid_values"], y * np.abs(r / (1j + r)),
                 rtol=1e-6)
    errs += close("p_est", res["p_est"], s0)
    errs += close("herglotz_p", res["herglotz_p"], 1.0 / s0)
    errs += expect("has_mass", res["has_mass"] is True)
    return errs


# -- synthesis -----------------------------------------------------------------

def synthesis(art, p, eigs, budget):
    res = art["synthesis.json"]
    n = eigs.size
    j1, j2 = res["partition"]
    errs = expect("partition splits 0..n-1", sorted(j1 + j2) == list(range(n)))
    sigma, cond = res["sigma_min"], res["gram_condition"]
    # unit columns: sigma_min <= 1 <= sigma_max <= sqrt(n)
    errs += expect("0 < sigma_min <= 1", 0.0 < sigma <= 1.0 + 1e-12)
    errs += expect("1 <= sigma_max <= sqrt(n)",
                   1.0 - 1e-9 <= sigma * cond <= math.sqrt(n) * (1.0 + 1e-9))
    if n <= 12:
        errs += expect("exhaustive count", res["partitions_checked"] == 2 ** n)
        errs += close("sigma_min", sigma, ref.min_partition_sigma(p, eigs),
                      rtol=1e-7)
    else:
        errs += expect("budgeted count", res["partitions_checked"] == budget)
    return errs


# -- windows and the gallery -------------------------------------------------

def window(art, eigs, rect):
    res = art["volterra_window.json"]
    errs = expect(f"count {res['count']} == {ref.window_count(eigs, rect)}",
                  res["count"] == ref.window_count(eigs, rect))
    errs += expect("count = winding + poles",
                   res["count"] == round(res["winding_value"])
                   + res["poles_added_back"])
    errs += expect("phi clear of 0 on the boundary",
                   res["boundary_min_abs_phi"] > 0.0)
    return errs


def sharp(art, n, rect=False):
    res = art["sharp.json"]
    rows = np.asarray(art["smoothness_partial_sums.csv"])
    t, a, b = ref.sharp_problem(n)
    prob = res["problem"]
    errs = close("t", np.array([atom["t"] for atom in prob["atoms"]]), t)
    errs += close("a", pairs(prob["a"]), a.astype(complex))
    errs += close("b", pairs(prob["b"]), b.astype(complex))
    sa, sb = np.cumsum(a ** 2 / t ** 2), np.cumsum(b ** 2 / t ** 2)
    errs += close("smooth_a_total", res["smooth_a_total"], sa[-1])
    errs += close("smooth_b_total", res["smooth_b_total"], sb[-1])
    errs += close("partial sums", rows, np.column_stack((np.arange(1, n + 1), sa, sb)))
    if rect:
        errs += expect(f"zero_count {res['zero_count']} == 0", res["zero_count"] == 0)
    return errs


def ml_check(art, z, n):
    res = art["ml_check.json"]
    lhs = 1.0 / np.cos(np.pi * np.sqrt(complex(z)))     # 1/cosh(pi) at z = -1
    rhs = ref.mittag_leffler_partial(z, n)
    tail = (2.0 / np.pi) * abs(z) / (n - 0.5) ** 2
    errs = close("lhs", complex(*res["lhs"]), lhs, rtol=1e-13)
    errs += close("rhs_partial", complex(*res["rhs_partial"]), rhs, rtol=1e-12)
    errs += close("tail_bound", res["tail_bound"], tail)
    errs += expect("err <= tail_bound", res["err"] <= res["tail_bound"])
    return errs


def section4(art, k):
    res = art["section4.json"]
    rows = np.asarray(art["coefficients.csv"])
    t = np.arange(1.0, k + 1.0)
    n1 = ref.doubling_subsequence(t)
    zeros = np.asarray(res["b0_zeros"])
    errs = expect("doubling subsequence", res["n1_indices"] == n1)
    if zeros.size != len(n1) - 1:
        return errs + [f"{zeros.size} B0 zeros for {len(n1)} lacunary points"]
    lo, hi = t[n1[:-1]], t[n1[1:]]
    errs += expect("B0 zeros interlace", bool(np.all((lo < zeros) & (zeros < hi))))
    errs += expect("q_total < 1", res["q_total"] < 1.0)
    errs += close("q_total", res["q_total"], ref.section4_q_total(k))
    errs += expect("sparse zeros at powers of two",
                   res["sparse_zero_indices"]
                   == [2 ** j for j in range(zeros.size.bit_length())])
    errs += close("coefficient atoms", rows[:, 0], t)
    return errs


def lacunary(art, spectrum_points, max_terms):
    x = np.asarray(art["lacunary.json"]["x"])
    t = np.sort(np.asarray(spectrum_points))
    errs = expect("x_1 = 2", x.size >= 2 and x[0] == 2.0)
    for k in range(x.size - 1):
        lo, hi = 2.0 * x[k], math.sqrt(x[k + 1])
        errs += expect(f"2 x_{k + 1} < sqrt(x_{k + 2})", lo < hi)
        errs += expect(f"spectrum point in gap {k + 1}",
                       bool(np.any((t > lo) & (t < hi))))
    errs += expect("x_k >= 2^(2^(k-1))",
                   all(x[k] >= 2.0 ** (2.0 ** k) for k in range(1, x.size)))
    errs += expect("stops at max_terms or at the end of the spectrum",
                   x.size == max_terms or not np.any(t > 2.0 * x[-1]))
    return errs
