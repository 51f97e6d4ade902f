"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 invalid input, 3 tolerance failure
(oracle/model mismatch or a failed hard check), 4 numerical failure.
Artifacts are written under <out>/<command>/<input-hash>-<run-hash>/, the
run hash covering the parameters and the seed, and each embeds its run
manifest; re-running with the same manifest reproduces identical
bytes on one numpy/BLAS build (see problemio.RunManifest): the BLAS and
OpenMP pools are pinned to one thread before numpy is first imported, so
the thread settings of the environment do not reach the artifacts.  The
output root comes from --out, else the PERTURBLAB_OUT environment
variable, else ./out.
"""

import os

# LAPACK results depend on the BLAS thread count; one thread, set before
# numpy is first imported, makes every artifact independent of it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np

from . import __version__
from .errors import (AdmissibilityError, BadParameters, InvalidData,
                     InvalidProblem, PerturbLabError, ToleranceFailure)
from . import problemio
from .data import (RankOneData, validate, classify_real_type,
                   generalized_weak_report)
from .model import build_model, clark_measure
from .engine import compute_spectrum, eigensystem
from . import diagnostics as diag
from . import gallery as gal


def _parse_complex(text):
    """A complex option given as 're' or 're,im'."""
    parts = str(text).split(",")
    if len(parts) > 2:
        raise click.UsageError(f"cannot parse complex value {text!r}")
    try:
        z = complex(*(float(p) for p in parts))
    except ValueError:
        raise BadParameters(f"complex values must be numbers, got {text!r}")
    if not np.isfinite(z):
        raise BadParameters(f"complex values must be finite, got {text!r}")
    return z


def _parse_finite(text, what):
    """A finite float given as text, else BadParameters naming what."""
    try:
        x = float(text)
    except ValueError:
        raise BadParameters(f"{what} must be a number, got {text!r}")
    if not np.isfinite(x):
        raise BadParameters(f"{what} must be finite, got {text!r}")
    return x


class _FiniteFloat(click.ParamType):
    """A float option that must be finite: nan or inf exits 2, as with
    _parse_complex; text that is no number stays a usage error."""

    name = "float"

    def convert(self, value, param, ctx):
        return _parse_finite(click.FLOAT.convert(value, param, ctx),
                             param.opts[0])


FINITE = _FiniteFloat()


def _parse_rect(text):
    """The four floats of a --rect 'x1,x2,y1,y2' option."""
    parts = str(text).split(",")
    if len(parts) != 4:
        raise click.UsageError("--rect expects 'x1,x2,y1,y2'")
    try:
        return tuple(float(v) for v in parts)
    except ValueError:
        raise BadParameters(f"--rect values must be numbers, got {text!r}")


def _load_problem(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidProblem(str(exc))
    return text, problemio.parse_problem(text)


def _load_rank_one(path, what):
    """_load_problem, refusing rank-n data: what needs rank-one data."""
    text, data = _load_problem(path)
    if not isinstance(data, RankOneData):
        raise InvalidProblem(f"{what} needs rank-one data")
    return text, data


class Settings:
    def __init__(self, tol, out, seed, quiet):
        self.tol = tol
        self.out = out or os.environ.get(problemio.OUTPUT_ROOT_ENV, "out")
        self.seed = seed
        self.quiet = quiet

    def emit(self, manifest, name, payload):
        d = problemio.artifact_dir(self.out, manifest)
        path = problemio.write_json_artifact(d, name, manifest, payload)
        if not self.quiet:
            click.echo(str(path))
        return d, path

    def emit_csv(self, directory, name, header, rows):
        path = problemio.write_csv_artifact(directory, name, header, rows)
        if not self.quiet:
            click.echo(str(path))
        return path


@click.group()
@click.version_option(__version__)
@click.option("--tol", type=FINITE, default=None,
              help="Override the default tolerance of the command.")
@click.option("--out", type=click.Path(file_okay=False), default=None,
              help="Output root (default: $PERTURBLAB_OUT or ./out).")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for sampled sweeps.")
@click.option("--quiet", is_flag=True, help="Suppress artifact path echo.")
@click.pass_context
def cli(ctx, tol, out, seed, quiet):
    """Numerical laboratory for finite-rank singular perturbations."""
    if tol is not None and tol < 0:
        raise BadParameters(f"--tol must not be negative, got {tol}")
    if seed < 0:
        raise BadParameters(f"--seed must not be negative, got {seed}")
    ctx.obj = Settings(tol, out, seed, quiet)


# -- validate ---------------------------------------------------------------

@cli.command("validate")
@click.argument("problem", type=click.Path(exists=True))
@click.pass_obj
def validate_cmd(cfg, problem):
    """Admissibility and type report for a problem file."""
    text, data = _load_problem(problem)
    rep = validate(data)
    manifest = problemio.make_manifest("validate", {}, text, cfg.seed)
    payload = {
        "condition_A": rep.condition_A,
        "condition_A_star": rep.condition_A_star,
        "real_type": rep.real_type,
        "kappa_minus_omega": rep.kappa_minus_omega,
        "witnesses": {k: v for k, v in rep.witnesses.items()},
        "rank": data.rank,
    }
    if isinstance(data, RankOneData):
        gw = generalized_weak_report(data)
        payload["generalized_weak"] = {
            "abs_sum": gw.abs_sum,
            "signed_sum": gw.signed_sum,
            "satisfies": gw.satisfies,
        }
    cfg.emit(manifest, "report", payload)


# -- model ------------------------------------------------------------------

@cli.group("model")
def model_group():
    """Model-function evaluation."""


@model_group.command("eval")
@click.argument("problem", type=click.Path(exists=True))
@click.option("--which", type=click.Choice(
    ["beta", "rho", "theta", "phi", "phi_tilde"]), default="phi",
    show_default=True)
@click.option("--z", "points", multiple=True,
              help="Evaluation point 're,im' (repeatable).")
@click.option("--real-grid", default=None,
              help="Real grid 'start:stop:count' evaluated at height --imag.")
@click.option("--imag", type=FINITE, default=0.0, show_default=True)
@click.option("--delta", default="auto", show_default=True,
              help="Free real constant of rho ('auto' = canonical).")
@click.pass_obj
def model_eval(cfg, problem, which, points, real_grid, imag, delta):
    """Emit CSV rows (re z, im z, re F, im F)."""
    text, data = _load_rank_one(problem, "model eval")
    dl = delta if delta == "auto" else _parse_finite(delta, "--delta")
    m = build_model(data, delta=dl)
    zs = [_parse_complex(p) for p in points]
    # the grid follows from real_grid and imag, so the manifest (whose
    # parameters key the artifact directory) keeps only the --z points
    given = [problemio.complex_to_pair(z) for z in zs]
    if real_grid:
        try:
            start, stop, count = real_grid.split(":")
            ends = float(start), float(stop)
            if not np.all(np.isfinite(ends)):
                raise BadParameters(f"--real-grid ends must be finite, got "
                                    f"{real_grid!r}")
            grid = np.linspace(*ends, int(count))
        except ValueError:
            raise click.UsageError("--real-grid expects 'start:stop:count'")
        zs.extend(complex(x, imag) for x in grid)
    if not zs:
        raise click.UsageError("give at least one --z or a --real-grid")
    manifest = problemio.make_manifest(
        "model-eval", {"which": which, "delta": str(delta), "imag": imag,
                       "real_grid": real_grid or "",
                       "points": given},
        text, cfg.seed)
    vals = m.eval(which, np.array(zs))
    rows = [(z.real, z.imag, v.real, v.imag) for z, v in zip(zs, vals)]
    # the CSV carries no manifest: the JSON beside it does
    d, _ = cfg.emit(manifest, "model_eval",
                    {"which": which, "imag": imag,
                     "real_grid": real_grid or "", "points": len(zs)})
    cfg.emit_csv(d, f"eval_{which}", ("re_z", "im_z", "re_F", "im_F"), rows)


# -- spectrum / compare -----------------------------------------------------

def _spectrum_payload(res, data):
    jordan = [{"eigenvalue": problemio.complex_to_pair(lam),
               "blocks": list(blocks)}
              for lam, blocks in zip(res.oracle.clusters, res.oracle.jordan)]
    real_type = classify_real_type(data)
    return {
        "oracle": [problemio.complex_to_pair(z) for z in
                   np.sort_complex(res.eigenvalues)],
        "model_zeros": [problemio.complex_to_pair(z)
                        for z in res.phi_zero_set],
        "match_residual": res.match_residual,
        "hausdorff": res.hausdorff,
        "jordan": jordan,
        "route": list(res.route),
        "real_type": real_type,
        # real-type data whose spectrum is real within tolerance
        "strong_real_type": bool(
            real_type and np.max(np.abs(res.eigenvalues.imag))
            <= 1e-9 * res.oracle.spectral_scale),
    }


def _match_tolerance(cfg, res):
    if cfg.tol is not None:
        return cfg.tol
    return 1e-7 * res.oracle.spectral_scale


@cli.command("spectrum")
@click.argument("problem", type=click.Path(exists=True))
@click.option("--route", type=click.Choice(["auto", "direct", "shift"]),
              default="auto", show_default=True,
              help="auto, direct: L in closed form; shift: the same L, "
                   "plus a shift lambda with invertible shifted coupling.")
@click.pass_obj
def spectrum_cmd(cfg, problem, route):
    """Oracle and model spectra; exit 3 when they disagree."""
    text, data = _load_problem(problem)
    res = compute_spectrum(data, route=route)
    manifest = problemio.make_manifest("spectrum", {"route": route}, text,
                                       cfg.seed)
    cfg.emit(manifest, "spectrum", _spectrum_payload(res, data))
    if np.isfinite(res.match_residual):
        tol = _match_tolerance(cfg, res)
        if res.match_residual > tol:
            raise ToleranceFailure(
                f"oracle/model mismatch {res.match_residual} > {tol}")


@cli.command("compare")
@click.argument("problem", type=click.Path(exists=True))
@click.pass_obj
def compare_cmd(cfg, problem):
    """Oracle-vs-model residual; exit 3 on mismatch."""
    text, data = _load_rank_one(problem, "compare")
    res = compute_spectrum(data)
    tol = _match_tolerance(cfg, res)
    ok = bool(np.isfinite(res.match_residual) and res.match_residual <= tol)
    manifest = problemio.make_manifest("compare", {}, text, cfg.seed)
    cfg.emit(manifest, "compare", {"match_residual": res.match_residual,
                                   "tolerance": tol, "ok": ok})
    if not ok:
        raise ToleranceFailure(f"mismatch {res.match_residual} > {tol}")


# -- clark ------------------------------------------------------------------

@cli.command("clark")
@click.argument("problem", type=click.Path(exists=True))
@click.option("--zeta", default="-1,0", show_default=True)
@click.pass_obj
def clark_cmd(cfg, problem, zeta):
    """Clark measure of the model inner function at unimodular zeta."""
    text, data = _load_rank_one(problem, "clark")
    m = build_model(data)
    z = _parse_complex(zeta)
    cm = clark_measure(m, z)
    # the parsed value keys the artifact: '-1,0' and '-1.0,0.0' share one
    manifest = problemio.make_manifest(
        "clark", {"zeta": problemio.complex_to_pair(z)}, text, cfg.seed)
    cfg.emit(manifest, "clark", asdict(cm))


# -- diagnose ---------------------------------------------------------------

@cli.group("diagnose")
def diagnose_group():
    """Completeness and synthesis diagnostics."""


@diagnose_group.command("growth")
@click.argument("problem", type=click.Path(exists=True))
@click.option("--ymax", type=FINITE, default=1e4, show_default=True)
@click.option("--npoints", type=int, default=200, show_default=True)
@click.option("--csv/--no-csv", default=False, show_default=True)
@click.pass_obj
def growth_cmd(cfg, problem, ymax, npoints, csv):
    text, data = _load_rank_one(problem, "diagnose growth")
    m = build_model(data)
    gp = diag.growth_profile(m, y_max=ymax, n_points=npoints)
    manifest = problemio.make_manifest(
        "diagnose-growth", {"ymax": ymax, "npoints": npoints}, text, cfg.seed)
    d, _ = cfg.emit(manifest, "growth", {
        "fitted_exponent": gp.fitted_exponent,
        "lower_envelope_c": gp.lower_envelope_c,
        "envelope_argmin": gp.envelope_argmin,
        "top_decade_ratio": gp.top_decade_ratio,
        "exact_exponent": gp.exact_exponent,
        "inner_margin_c": gp.inner_margin_c,
    })
    if csv:
        rows = zip(gp.y_grid, gp.phi_values, gp.beta_values,
                   gp.phi_tilde_values)
        cfg.emit_csv(d, "growth_grid",
                     ("y", "abs_phi", "abs_beta", "abs_phi_tilde"), rows)


@diagnose_group.command("integral")
@click.argument("problem", type=click.Path(exists=True))
@click.option("--n", "n_weight", type=FINITE, default=2.0, show_default=True)
@click.option("--tau", type=FINITE, default=1.0, show_default=True)
@click.option("--eta", type=FINITE, default=1.0, show_default=True)
@click.pass_obj
def integral_cmd(cfg, problem, n_weight, tau, eta):
    text, data = _load_rank_one(problem, "diagnose integral")
    m = build_model(data)
    rep = diag.integral_test(m, n_weight, tau, eta)
    manifest = problemio.make_manifest(
        "diagnose-integral", {"n": n_weight, "tau": tau, "eta": eta},
        text, cfg.seed)
    cfg.emit(manifest, "integral", asdict(rep))


@diagnose_group.command("macaev")
@click.argument("problem", type=click.Path(exists=True))
@click.option("--picture", type=click.Choice(["singular", "bounded"]),
              default="singular", show_default=True)
@click.pass_obj
def macaev_cmd(cfg, problem, picture):
    text, data = _load_problem(problem)
    rep = diag.macaev_check(data, picture=picture)
    manifest = problemio.make_manifest("diagnose-macaev",
                                       {"picture": picture}, text, cfg.seed)
    cfg.emit(manifest, "macaev", asdict(rep))


@diagnose_group.command("mass")
@click.argument("problem", type=click.Path(exists=True))
@click.option("--zeta", default="1,0", show_default=True)
@click.pass_obj
def mass_cmd(cfg, problem, zeta):
    text, data = _load_rank_one(problem, "diagnose mass")
    m = build_model(data)
    z = _parse_complex(zeta)
    rep = diag.mass_detect(m, z)
    manifest = problemio.make_manifest(
        "diagnose-mass", {"zeta": problemio.complex_to_pair(z)}, text,
        cfg.seed)
    cfg.emit(manifest, "mass", asdict(rep))


@diagnose_group.command("synthesis")
@click.argument("problem", type=click.Path(exists=True))
@click.option("--partition", default=None,
              help="Explicit partition like '0,2|1,3'; default enumerates.")
@click.option("--budget", type=int, default=10000, show_default=True)
@click.pass_obj
def synthesis_cmd(cfg, problem, partition, budget):
    text, data = _load_rank_one(problem, "diagnose synthesis")
    es = eigensystem(data)
    manifest = problemio.make_manifest(
        "diagnose-synthesis", {"partition": partition or "",
                               "budget": budget}, text, cfg.seed)
    if partition:
        left, _, right = partition.partition("|")
        try:
            j1, j2 = (tuple(int(x) for x in side.split(",") if x != "")
                      for side in (left, right))
        except ValueError:
            raise BadParameters(f"--partition expects 'i,j|k,l', got "
                                f"{partition!r}")
        sd = diag.synthesis_defect(es, (j1, j2))
        n_checked = 1
    else:
        sd, n_checked = diag.enumerate_partitions(es, budget=budget,
                                                  seed=cfg.seed)
    cfg.emit(manifest, "synthesis",
             {**asdict(sd), "partitions_checked": n_checked})


@diagnose_group.command("volterra-window")
@click.argument("problem", type=click.Path(exists=True))
@click.option("--rect", required=True, help="Rectangle 'x1,x2,y1,y2'.")
@click.pass_obj
def volterra_cmd(cfg, problem, rect):
    vals = _parse_rect(rect)
    text, data = _load_rank_one(problem, "diagnose volterra-window")
    m = build_model(data)
    rep = diag.volterra_window_check(m, vals)
    manifest = problemio.make_manifest("diagnose-volterra-window",
                                       {"rect": list(vals)}, text, cfg.seed)
    cfg.emit(manifest, "volterra_window", asdict(rep))


# -- gallery ----------------------------------------------------------------

@cli.group("gallery")
def gallery_group():
    """Reproductions of the explicit constructions."""


def _params_manifest(command, params, cfg):
    text = problemio.canonical_dumps(params)
    return problemio.make_manifest(command, params, text, cfg.seed)


@gallery_group.command("sharp")
@click.option("--eps", type=FINITE, required=True)
@click.option("--alpha1", type=FINITE, default=0.0, show_default=True)
@click.option("--alpha2", type=FINITE, default=0.0, show_default=True)
@click.option("--n", "n_terms", type=int, default=100, show_default=True)
@click.option("--rect", default=None,
              help="Optional zero-count rectangle 'x1,x2,y1,y2'.")
@click.pass_obj
def sharp_cmd(cfg, eps, alpha1, alpha2, n_terms, rect):
    vals = _parse_rect(rect) if rect else None
    params = {"eps": eps, "alpha1": alpha1, "alpha2": alpha2, "n": n_terms,
              "rect": list(vals) if rect else ""}
    inst = gal.sharp_instance(eps, alpha1, alpha2, n_terms)
    manifest = _params_manifest("gallery-sharp", params, cfg)
    payload = {
        "n": inst.n_terms,
        "eps": inst.eps, "alpha1": inst.alpha1, "alpha2": inst.alpha2,
        "smooth_a_total": float(inst.smooth_a_partial[-1]),
        "smooth_b_total": float(inst.smooth_b_partial[-1]),
        "problem": problemio.problem_to_dict(inst.data),
    }
    if vals is not None:
        rep = gal.sharp_zero_freeness(inst, vals)
        payload["zero_count"] = rep.count
        payload["boundary_min_abs_phi"] = rep.boundary_min_abs_phi
    d, _ = cfg.emit(manifest, "sharp", payload)
    rows = zip(np.arange(1, inst.n_terms + 1), inst.smooth_a_partial,
               inst.smooth_b_partial)
    cfg.emit_csv(d, "smoothness_partial_sums",
                 ("n", "sum_a", "sum_b"), rows)


@gallery_group.command("ml-check")
@click.option("--z", default="-1,0", show_default=True)
@click.option("--n", "n_terms", type=int, default=1000, show_default=True)
@click.pass_obj
def ml_cmd(cfg, z, n_terms):
    zz = _parse_complex(z)
    rep = gal.mittag_leffler_check(zz, n_terms)
    params = {"z": problemio.complex_to_pair(zz), "n": n_terms}
    manifest = _params_manifest("gallery-ml-check", params, cfg)
    cfg.emit(manifest, "ml_check", {
        "z": rep.z, "n": rep.n_terms, "lhs": rep.lhs,
        "rhs_partial": rep.rhs_partial,
        "err": rep.err, "tail_bound": rep.tail_bound,
    })


def _read_spectrum_file(path):
    import json as _json

    try:
        doc = _json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise InvalidProblem(f"cannot read spectrum file {path}: {exc}")
    if isinstance(doc, dict):
        doc = doc.get("t")
    if not isinstance(doc, list):
        raise InvalidProblem("spectrum file must be a JSON array (or {'t': [...]})")
    try:
        t = np.asarray(doc, dtype=float)
    except (TypeError, ValueError):
        raise InvalidProblem("spectrum file entries must be numbers")
    if not np.all(np.isfinite(t)):
        raise InvalidProblem("spectrum file entries must be finite")
    return t


@gallery_group.command("section4")
@click.option("--k", "truncation", type=int, default=30, show_default=True)
@click.option("--spectrum", "spectrum_file", type=click.Path(exists=True),
              default=None, help="JSON array of spectrum points (default 1..K).")
@click.pass_obj
def section4_cmd(cfg, truncation, spectrum_file):
    t_seq = (_read_spectrum_file(spectrum_file) if spectrum_file
             else np.arange(1.0, truncation + 1.0))
    params = {"k": truncation, "spectrum": list(t_seq)}
    pipe = gal.section4_build(t_seq, truncation)
    manifest = _params_manifest("gallery-section4", params, cfg)
    d, _ = cfg.emit(manifest, "section4", {
        "n1_indices": list(pipe.n1_indices),
        "n2_indices": list(pipe.n2_indices),
        "b0_zeros": pipe.b0_zeros,
        "sparse_zero_indices": list(pipe.sparse_zero_indices),
        "residue_max_rel_error": float(pipe.residue_rel_errors.max()),
        "partial_fraction_rel_error": pipe.partial_fraction_rel_error,
        "expansion_rel_error": pipe.expansion_rel_error,
        "sandwich_c1": pipe.sandwich_c1,
        "sandwich_c2": pipe.sandwich_c2,
        "q_total": pipe.q_total,
        "arb1_max_n": pipe.arb1_max_n,
        "arb2_max_n": pipe.arb2_max_n,
        "weight_sum_outside_n2": pipe.weight_sum_outside_n2,
        "inv_t_n2_partial": pipe.inv_t_n2_partial,
        "double_precision_max_k": pipe.double_precision_max_k,
    })
    import mpmath as mp

    # d and nu at 17 digits of their extended-precision values: in float64
    # nu underflows past double_precision_max_k
    rows = ((t, mp.nstr(d_n, 17), mp.nstr(nu_n, 17))
            for t, d_n, nu_n in zip(pipe.t, pipe.d, pipe.nu))
    cfg.emit_csv(d, "coefficients", ("t", "d", "nu"), rows)


@gallery_group.command("lacunary")
@click.option("--spectrum", "spectrum_file", type=click.Path(exists=True),
              required=True)
@click.option("--max-terms", type=int, default=64, show_default=True)
@click.pass_obj
def lacunary_cmd(cfg, spectrum_file, max_terms):
    t_seq = _read_spectrum_file(spectrum_file)
    xs = gal.lacunary_sequence(t_seq, max_terms=max_terms)
    params = {"spectrum": list(t_seq), "max_terms": max_terms}
    manifest = _params_manifest("gallery-lacunary", params, cfg)
    cfg.emit(manifest, "lacunary", {"x": xs})


def main(argv=None):
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.UsageError as exc:
        exc.show(file=sys.stderr)
        return 1
    except (InvalidProblem, InvalidData, AdmissibilityError,
            BadParameters) as exc:
        click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
        return 2
    except ToleranceFailure as exc:
        click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
        return 3
    except (PerturbLabError, np.linalg.LinAlgError) as exc:
        click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
        return 4


if __name__ == "__main__":
    sys.exit(main())
