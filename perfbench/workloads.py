"""The three workloads: their input files, operations and warm-up calls.

An operation is one perturblab command line plus the check of its
artifacts.  Inputs are written under <work>/inputs; every problem that
depends on the seed is drawn from its own Philox stream of that seed, and
the two inputs of the known faults come from FIXED_SEED whatever the seed,
so they fail on every run.
"""

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import instances
import references as ref

#: seed of the inputs that must not depend on --seed
FIXED_SEED = 0
#: model eval grid (start, stop, count) and its height above the real axis
EVAL_GRID = (-20.0, 20.0, 2001)
EVAL_IMAG = 0.25
#: budgeted synthesis sweep at 30 atoms
SYNTHESIS_BUDGET = 500


@dataclass
class Problem:
    name: str
    p: dict
    path: str

    @cached_property
    def eigs(self):
        return ref.eigenvalues(self.p)


@dataclass
class Op:
    name: str
    argv: list
    check: Callable = field(repr=False)


@dataclass
class Workload:
    ops: list
    warmups: list


class Inputs:
    def __init__(self, work, seed):
        self.dir = Path(work) / "inputs"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.seed = seed

    def path(self, name):
        return str(self.dir / f"{name}.json")

    def problem(self, name, stream, n, seed=None, **kw):
        rng = instances.rng_for(self.seed if seed is None else seed, *stream)
        maker = instances.dissipative if kw.pop("dissipative", False) \
            else instances.problem
        p = maker(rng, n, **kw)
        return self.write(name, p)

    def write(self, name, p):
        path = self.path(name)
        Path(path).write_text(json.dumps(instances.to_json_doc(p)),
                              encoding="utf-8")
        return Problem(name, p, path)


def _clear(values, lo, hi, count=101):
    """The point of [lo, hi] farthest from every value (an edge coordinate)."""
    cand = np.linspace(lo, hi, count)
    dist = np.min(np.abs(cand[:, None] - np.asarray(values)[None, :]), axis=1)
    return float(cand[int(np.argmax(dist))])


# -- spectrum ------------------------------------------------------------------

def spectrum(inp):
    ops = []
    for n in (50, 100, 200):
        pr = inp.problem(f"rank1_{n}", (1, n), n)
        ops.append(Op(f"spectrum {n}", ["spectrum", pr.path],
                      lambda art, pr=pr: checks.spectrum(art, pr.eigs)))
        ops.append(Op(f"compare {n}", ["compare", pr.path],
                      lambda art, pr=pr: checks.compare(art, pr.eigs)))
    shift = inp.problem("kappa0_100", (2, 100), 100, kappa=0.0)
    ops.append(Op("spectrum --route shift 100 (kappa 0)",
                  ["spectrum", shift.path, "--route", "shift"],
                  lambda art: checks.spectrum(art, shift.eigs, route="shift")))
    rank2 = inp.problem("rank2_200", (3, 200), 200, rank=2)
    ops.append(Op("spectrum rank-two 200", ["spectrum", rank2.path],
                  lambda art: checks.spectrum(art, rank2.eigs, rank_one=False)))
    # known fault: DegreeOverflow in phi_zeros at 300 atoms
    big = inp.problem("rank1_300", (4, 300), 300, seed=FIXED_SEED)
    ops.append(Op("spectrum 300", ["spectrum", big.path],
                  lambda art: checks.spectrum(art, big.eigs)))
    warm = inp.problem("warmup_8", (0, 8), 8)
    return Workload(ops, [["spectrum", warm.path], ["compare", warm.path]])


# -- contour -------------------------------------------------------------------

def _upper_rect(rng, eigs, width):
    """A rectangle in the open upper half-plane, each edge clear of eigenvalues."""
    xc = rng.uniform(-12.0, 12.0)
    return (_clear(eigs.real, xc - width / 2 - 0.5, xc - width / 2 + 0.5),
            _clear(eigs.real, xc + width / 2 - 0.5, xc + width / 2 + 0.5),
            _clear(eigs.imag, 0.1, 0.4),
            _clear(eigs.imag, 1.5, 2.5))


def _window_op(pr, rect):
    rect_arg = ",".join(repr(float(v)) for v in rect)
    shown = ",".join(f"{v:.4g}" for v in rect)
    return Op(f"volterra-window {pr.name} {shown}",
              ["diagnose", "volterra-window", pr.path, f"--rect={rect_arg}"],
              lambda art: checks.window(art, pr.eigs, rect))


def contour(inp):
    sharp_rect = "0.1,50,0,10"
    ops = [Op(f"gallery sharp 500 --rect {sharp_rect}",
              ["gallery", "sharp", "--eps", "1", "--alpha1", "0", "--alpha2",
               "0", "--n", "500", "--rect", sharp_rect],
              lambda art: checks.sharp(art, 500, rect=True))]
    rng = instances.rng_for(inp.seed, 10)
    for n, width in ((30, 10.0), (100, 8.0)):
        pr = inp.problem(f"rank1_{n}", (11, n), n)
        ops.append(_window_op(pr, _upper_rect(rng, pr.eigs, width)))
    # the whole spectrum of a dissipative problem lies above the real axis;
    # the bottom edge sits on the axis, where the program nudges it below
    whole = inp.problem("dissipative_60", (12, 60), 60, dissipative=True)
    e, t = whole.eigs, whole.p["t"]
    if e.imag.min() <= 0.0:
        raise RuntimeError("dissipative problem left the upper half-plane")
    xs = np.concatenate((e.real, t))
    rect = (_clear(xs, xs.min() - 1.0, xs.min() - 0.3),
            _clear(xs, xs.max() + 0.3, xs.max() + 1.0),
            0.0, float(e.imag.max()) + 1.0)
    ops.append(_window_op(whole, rect))
    warm = inp.problem("warmup_8", (0, 8), 8)
    return Workload(ops, [
        ["gallery", "sharp", "--eps", "1", "--alpha1", "0", "--alpha2", "0",
         "--n", "20", "--rect", "0.1,5,0,2"],
        ["diagnose", "volterra-window", warm.path, "--rect=-5,5,0.1,2"]])


# -- session -------------------------------------------------------------------

def _problem_ops(pr):
    ops = [
        Op(f"validate {pr.name}", ["validate", pr.path],
           lambda art: checks.validate(art, pr.p)),
        Op(f"compare {pr.name}", ["compare", pr.path],
           lambda art: checks.compare(art, pr.eigs)),
        Op(f"clark {pr.name} -1", ["clark", pr.path, "--zeta=-1,0"],
           lambda art: checks.clark(art, pr.p, -1)),
        Op(f"clark {pr.name} i", ["clark", pr.path, "--zeta=0,1"],
           lambda art: checks.clark(art, pr.p, 1j)),
        Op(f"synthesis {pr.name}",
           ["diagnose", "synthesis", pr.path, "--budget", str(SYNTHESIS_BUDGET)],
           lambda art: checks.synthesis(art, pr.p, pr.eigs, SYNTHESIS_BUDGET)),
    ]
    return ops


def _diagnostic_ops(pr):
    start, stop, count = EVAL_GRID
    grid = np.linspace(start, stop, count)
    return [
        Op(f"model eval {pr.name}",
           ["model", "eval", pr.path, "--which", "phi", "--real-grid",
            f"{start:g}:{stop:g}:{count}", "--imag", repr(EVAL_IMAG)],
           lambda art: checks.model_eval(art, pr.p, grid, EVAL_IMAG)),
        Op(f"growth {pr.name}", ["diagnose", "growth", pr.path, "--csv"],
           lambda art: checks.growth(art, pr.p)),
        Op(f"mass {pr.name}", ["diagnose", "mass", pr.path, "--zeta", "1,0"],
           lambda art: checks.mass(art, pr.p)),
        Op(f"macaev {pr.name}", ["diagnose", "macaev", pr.path],
           lambda art: checks.macaev(art, pr.p)),
    ]


def _integral_op(pr):
    return Op(f"integral {pr.name}",
              ["diagnose", "integral", pr.path, "--n", "2", "--tau", "1",
               "--eta", "1"],
              lambda art: checks.integral(art, pr.p, 2, 1, 1))


def _gallery_ops(spectrum_path, points, k_values=(30, 60), sharp_n=200,
                 ml_n=1000):
    ops = [Op(f"section4 K={k}", ["gallery", "section4", "--k", str(k)],
              lambda art, k=k: checks.section4(art, k)) for k in k_values]
    ops += [
        Op("lacunary", ["gallery", "lacunary", "--spectrum", spectrum_path],
           lambda art: checks.lacunary(art, points, 64)),
        Op(f"ml-check n={ml_n}",
           ["gallery", "ml-check", "--z=-1,0", "--n", str(ml_n)],
           lambda art: checks.ml_check(art, -1.0, ml_n)),
        Op(f"sharp {sharp_n}",
           ["gallery", "sharp", "--eps", "1", "--alpha1", "0", "--alpha2",
            "0", "--n", str(sharp_n)],
           lambda art: checks.sharp(art, sharp_n)),
    ]
    return ops


def session(inp):
    small = inp.problem("rank1_12", (20, 12), 12)
    mid = inp.problem("rank1_30", (21, 30), 30)
    rng = instances.rng_for(inp.seed, 22)
    points = 3.0 * np.cumprod(rng.uniform(1.05, 1.6, 300))
    spec = inp.path("lacunary_spectrum")
    Path(spec).write_text(json.dumps(points.tolist()), encoding="utf-8")
    # integral runs at 12 atoms: at 30 the program misreads the decay
    # exponent off the monomial coefficients on most seeds
    ops = (_problem_ops(small) + _problem_ops(mid) + _diagnostic_ops(mid)
           + [_integral_op(small)] + _gallery_ops(spec, points))
    # known fault: spurious DegenerateZeta from the monomial companion
    big = inp.problem("rank1_60", (23, 60), 60, seed=FIXED_SEED)
    ops.append(Op("clark rank1_60 i", ["clark", big.path, "--zeta=0,1"],
                  lambda art: checks.clark(art, big.p, 1j)))

    warm = inp.problem("warmup_6", (0, 6), 6)
    warm_ops = (_problem_ops(warm) + _diagnostic_ops(warm) + [_integral_op(warm)]
                + _gallery_ops(spec, points, k_values=(8,), sharp_n=20,
                               ml_n=100))
    return Workload(ops, [op.argv for op in warm_ops])


WORKLOADS = {"spectrum": spectrum, "contour": contour, "session": session}


def build(name, seed, work):
    """Write the inputs of one workload under work and return its operations."""
    return WORKLOADS[name](Inputs(work, seed))
