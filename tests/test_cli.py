"""Command-line behavior: exit codes, artifacts, reproducibility."""

import json

import numpy as np
import pytest

from perturblab.cli import main
from perturblab.data import DiscreteSpectralData, RankNData
from perturblab.problemio import (canonical_dumps, parse_problem,
                                  serialize_problem)
from perturblab._numutil import distances, matched_max_distance

from conftest import inverse_form

TWO_ATOM = """{"atoms": [{"t": -1.0, "mu": 1.0}, {"t": 1.0, "mu": 1.0}],
 "a": [[1.0, 0.0], [1.0, 0.0]],
 "b": [[1.0, 0.0], [1.0, 0.0]],
 "kappa": [1.0, 0.0]}
"""


RANK_TWO = """{"atoms": [{"t": -2.0, "mu": 1.0}, {"t": 1.0, "mu": 0.5}, {"t": 3.0, "mu": 2.0}],
 "a": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]],
 "b": [[[1.0, 0.0], [0.2, 0.0]], [[0.1, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
 "kappa": [[[2.0, 0.0], [0.1, 0.0]], [[0.0, 0.0], [1.5, 0.0]]]}
"""


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "two_atom.json"
    path.write_text(TWO_ATOM)
    return path


def run_fresh(argv, out, **env_vars):
    """The CLI in a fresh interpreter, so an uncaught exception would show
    as a traceback on stderr; env_vars are set in its environment."""
    import os
    import subprocess
    import sys

    import perturblab
    src = os.path.dirname(os.path.dirname(perturblab.__file__))
    env = dict(os.environ, PYTHONPATH=src, **env_vars)
    return subprocess.run(
        [sys.executable, "-m", "perturblab.cli", "--quiet", "--out", str(out)]
        + [str(a) for a in argv], capture_output=True, text=True, env=env)


def read_artifact(out_dir, command, name):
    hits = list((out_dir / command).glob(f"*/{name}.json"))
    assert len(hits) == 1
    return json.loads(hits[0].read_text()), hits[0]


class TestExitCodes:
    def test_spectrum_success(self, tmp_path, problem_file):
        code = main(["--out", str(tmp_path / "out"), "--quiet",
                     "spectrum", str(problem_file)])
        assert code == 0
        doc, _ = read_artifact(tmp_path / "out", "spectrum", "spectrum")
        eigs = sorted(v[0] for v in doc["result"]["oracle"])
        assert eigs == pytest.approx([1 - np.sqrt(2), 1 + np.sqrt(2)])
        assert doc["result"]["match_residual"] <= 1e-10
        assert doc["manifest"]["tool_version"]

    def test_usage_error(self):
        assert main(["definitely-not-a-command"]) == 1

    def test_malformed_json_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"atoms": [')
        assert main(["--quiet", "--out", str(tmp_path / "out"),
                     "validate", str(bad)]) == 2

    def test_corrupted_kappa_exit_two(self, tmp_path):
        # kappa equal to the pairing sum violates admissibility
        path = tmp_path / "corrupt.json"
        path.write_text(TWO_ATOM.replace('"kappa": [1.0, 0.0]',
                                         '"kappa": [0.0, 0.0]'))
        assert main(["--quiet", "--out", str(tmp_path / "out"),
                     "compare", str(path)]) == 2

    def test_non_unimodular_zeta_exit_two(self, problem_file):
        proc = run_fresh(["clark", problem_file, "--zeta", "2,0"],
                         problem_file.parent / "out")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "BadParameters" in proc.stderr

    def test_section4_repeated_atom_exit_two(self, tmp_path):
        # a repeated atom of the doubling subsequence once divided by zero
        spec = tmp_path / "spectrum.json"
        spec.write_text(json.dumps([1, 2, 3, 3, 4, 5, 6, 7, 8, 9, 10]))
        proc = run_fresh(["gallery", "section4", "--spectrum", spec,
                          "--k", "10"], tmp_path / "out")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "strictly increasing" in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["diagnose", "volterra-window", "{problem}", "--rect=3,1,0,1"],
        ["diagnose", "volterra-window", "{problem}", "--rect=a,b,c,d"],
        ["gallery", "sharp", "--eps", "1", "--n", "20", "--rect=3,1,0,1"],
        ["gallery", "sharp", "--eps", "1", "--n", "20", "--rect=x,1,0,1"],
    ])
    def test_bad_rectangle_exit_two(self, problem_file, argv):
        argv = [a.format(problem=problem_file) for a in argv]
        proc = run_fresh(argv, problem_file.parent / "out")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "BadParameters" in proc.stderr

    def test_window_edge_at_the_largest_floats(self, tmp_path, capsys):
        # the panel ends and their midpoints stay finite out to 1e308, so
        # phi'/phi is never evaluated at infinity; the winding integral of
        # that edge does not settle near an integer, a numerical failure
        import warnings

        path = tmp_path / "six_atom.json"
        path.write_text(SIX_ATOM)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["--quiet", "--out", str(tmp_path / "out"),
                         "diagnose", "volterra-window", str(path),
                         "--rect=-30,1e308,0,1"])
        assert code == 4
        assert "ContourTooClose: winding integral" in capsys.readouterr().err
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("argv, error", [
        (["model", "eval", "{problem}", "--z", "a,b"], "BadParameters"),
        (["clark", "{problem}", "--zeta=x,0"], "BadParameters"),
        (["gallery", "lacunary", "--spectrum", "{text}"], "InvalidProblem"),
        (["clark", "{problem}", "--zeta=nan,0"], "BadParameters"),
        (["diagnose", "synthesis", "{problem}", "--partition", "0,2|1"],
         "BadParameters"),
        (["diagnose", "synthesis", "{problem}", "--partition", "0|x"],
         "BadParameters"),
        (["gallery", "lacunary", "--spectrum", "{inf}"], "InvalidProblem"),
        (["model", "eval", "{problem}", "--z", "1,1", "--delta", "x"],
         "BadParameters"),
    ])
    def test_unparsable_input_exit_two(self, problem_file, argv, error):
        text = problem_file.parent / "spectrum.txt"
        text.write_text("1 2 3\n")
        inf = problem_file.parent / "spectrum_inf.json"
        inf.write_text("[5, Infinity]\n")   # past the lacunary invariants
        argv = [a.format(problem=problem_file, text=text, inf=inf)
                for a in argv]
        proc = run_fresh(argv, problem_file.parent / "out")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert error in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["gallery", "ml-check", "--n", "0"],
        ["gallery", "ml-check", "--n", "-3"],
        ["diagnose", "growth", "{problem}", "--ymax", "5"],
        ["diagnose", "growth", "{problem}", "--npoints", "1"],
        ["diagnose", "growth", "{problem}", "--ymax", "inf"],
        ["diagnose", "mass", "{problem}", "--zeta", "2,0"],
        ["gallery", "section4", "--k", "3"],
        ["gallery", "section4", "--k", "0"],
        ["gallery", "section4", "--k", "201"],
        ["gallery", "section4", "--spectrum", "{spectrum}", "--k", "12"],
        ["gallery", "lacunary", "--spectrum", "{spectrum}", "--max-terms",
         "1"],
        ["gallery", "lacunary", "--spectrum", "{spectrum}", "--max-terms",
         "-3"],
        ["--seed", "-1", "diagnose", "synthesis", "{problem}"],
        ["--tol", "-1", "spectrum", "{problem}"],
        ["--tol", "-1e-300", "compare", "{problem}"],
    ])
    def test_out_of_range_parameter_exit_two(self, tmp_path, problem_file,
                                             argv, capsys):
        # an empty sum or grid would end in a traceback or a nan, mass
        # refuses the zeta that clark refuses, and section4 takes 6 to 200
        # atoms, as many as its truncation; a lacunary sequence of fewer
        # than 2 terms once blamed the spectrum (exit 4), a negative --seed
        # ended in a traceback and a negative --tol blamed the two routes
        # (exit 3)
        spectrum = tmp_path / "spectrum.json"
        spectrum.write_text(json.dumps(list(range(1, 11))))
        argv = [a.format(problem=problem_file, spectrum=spectrum)
                for a in argv]
        assert main(["--quiet", "--out", str(tmp_path / "out")] + argv) == 2
        assert "BadParameters" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["--tol", "nan", "spectrum", "{problem}"],
        ["--tol", "inf", "compare", "{problem}"],
        ["model", "eval", "{problem}", "--z", "1,1", "--imag", "nan"],
        ["model", "eval", "{problem}", "--real-grid", "nan:1:3"],
        ["model", "eval", "{problem}", "--real-grid", "0:-inf:3"],
        ["model", "eval", "{problem}", "--z", "1,1", "--delta", "nan"],
        ["diagnose", "growth", "{problem}", "--ymax", "nan"],
        ["diagnose", "growth", "{problem}", "--ymax", "1e300"],
        ["diagnose", "integral", "{problem}", "--n", "nan"],
        ["diagnose", "integral", "{problem}", "--tau", "inf"],
        ["diagnose", "integral", "{problem}", "--eta", "nan"],
        ["diagnose", "integral", "{problem}", "--eta", "-inf"],
        ["gallery", "sharp", "--eps", "nan"],
        ["gallery", "sharp", "--eps", "1", "--alpha1", "nan"],
        ["gallery", "sharp", "--eps", "1", "--alpha2", "inf"],
    ])
    def test_non_finite_option_exit_two(self, tmp_path, problem_file, argv,
                                        capsys):
        # each once exited 0: a nan --tol never fired the exit-3 gate,
        # integral reported a convergent null value, eval wrote nan rows
        # and growth a null exponent
        argv = [a.format(problem=problem_file) for a in argv]
        assert main(["--quiet", "--out", str(tmp_path / "out")] + argv) == 2
        assert "BadParameters" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, message", [
        (TWO_ATOM.replace('"t": -1.0', '"t": "abc"'),
         "atoms[0].t must be a number, got 'abc'"),
        (TWO_ATOM.replace('"t": -1.0', '"t": null'),
         "atoms[0].t must be a number, got None"),
        ('{"atoms": 5, "a": [], "b": [], "kappa": [1.0, 0.0]}',
         "atoms must be a list"),
        (TWO_ATOM.replace('"mu": 1.0}, {', '"mu": [1]}, {'),
         "atoms[0].mu must be a number, got [1]"),
        (TWO_ATOM.replace('"t": 1.0, "mu": 1.0', '"t": 1.0'),
         "atoms[1] must carry 't' and 'mu'"),
        (TWO_ATOM.replace('"kappa": [1.0, 0.0]', '"kappa": [1.0, "x"]'),
         "expected [re, im] pair at kappa[0], got 1.0"),
        (RANK_TWO.replace('"a": [[[1.0, 0.0], [0.0, 0.0]]',
                          '"a": [[[1.0, 0.0]]'),
         "inhomogeneous shape"),
        (RANK_TWO.replace('"b": [[[1.0, 0.0], [0.2, 0.0]]',
                          '"b": [[[1.0, 0.0], [0.2]]'),
         "expected [re, im] pair at b[0][1][0], got 0.2"),
        (RANK_TWO.replace('"kappa": [[[2.0, 0.0], [0.1, 0.0]], '
                          '[[0.0, 0.0], [1.5, 0.0]]]',
                          '"kappa": [[2.0, 0.0], [0.1, 0.0]]'),
         "a, b and kappa must be lists of rows of [re, im] pairs"),
        (TWO_ATOM.replace('"t": -1.0, "mu": 1.0', '"t": "-1.5", "mu": true'),
         "atoms[0].t must be a number, got '-1.5'"),
        (TWO_ATOM.replace('"t": 1.0, "mu": 1.0', '"t": 1.0, "mu": true'),
         "atoms[1].mu must be a number, got True"),
        (TWO_ATOM.replace('"t": 1.0, "mu": 1.0', '"t": 1.0, "mu": "2"'),
         "atoms[1].mu must be a number, got '2'"),
        (TWO_ATOM.replace('"b": [[1.0, 0.0], [1.0, 0.0]]',
                          '"b": [[1.0, 0.0], [true, 0]]'),
         "expected [re, im] pair at b[1][0], got True"),
    ], ids=["t-text", "t-null", "atoms-number", "mu-list", "no-mu",
            "kappa-text", "ragged-rows", "short-pair", "rank-n-kappa-1d",
            "t-numeric-text", "mu-true", "mu-text", "pair-true"])
    def test_malformed_problem_exit_two(self, tmp_path, text, message):
        path = tmp_path / "malformed.json"
        path.write_text(text)
        proc = run_fresh(["validate", path], tmp_path / "out")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "InvalidProblem" in proc.stderr and message in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_forced_tolerance_failure_exit_three(self, tmp_path):
        # complex-type data leave a nonzero (machine-level) residual, so an
        # absurdly small tolerance must trip exit code 3
        path = tmp_path / "complex_type.json"
        path.write_text(TWO_ATOM.replace('"b": [[1.0, 0.0], [1.0, 0.0]]',
                                         '"b": [[1.0, 0.0], [0.0, 1.0]]'))
        code = main(["--tol", "1e-30", "--quiet", "--out",
                     str(tmp_path / "out"), "compare", str(path)])
        assert code == 3

    def test_eigenvalue_on_an_atom_exit_four(self, tmp_path):
        # a_3 = 0 makes t_3 an exact eigenvalue, where the model vector
        # a_n/(t_n - lam) is 0/0: the error names it before an SVD sees nan
        from conftest import make_data, separated_instance

        d = separated_instance(np.random.Generator(np.random.Philox(23)), 12)
        a = d.a.copy()
        a[3] = 0.0
        path = tmp_path / "a3_zero.json"
        path.write_text(serialize_problem(
            make_data(d.t, d.mu, a, d.b, d.kappa)))
        proc = run_fresh(["diagnose", "synthesis", path], tmp_path / "out")
        assert proc.returncode == 4
        assert "Traceback" not in proc.stderr
        assert "SVD did not converge" not in proc.stderr
        assert ("NotBiorthogonal: eigensystem: model vector a_n/(t_n - lam) "
                "is not finite at eigenvalue") in proc.stderr
        assert f"on atom 3 (t_n = {d.t[3]}, a_n = 0j)" in proc.stderr


class TestArtifacts:
    def test_model_eval_csv(self, tmp_path, problem_file):
        code = main(["--quiet", "--out", str(tmp_path / "out"), "model",
                     "eval", str(problem_file), "--which", "phi",
                     "--z", "0.5,0.5", "--real-grid", "2:3:3"])
        assert code == 0
        csvs = list((tmp_path / "out" / "model-eval").glob("*/eval_phi.csv"))
        assert len(csvs) == 1
        lines = csvs[0].read_text().strip().splitlines()
        assert lines[0] == "re_z,im_z,re_F,im_F"
        assert len(lines) == 5  # header + 1 point + 3 grid rows

    def test_model_eval_manifest_keys_the_csv_directory(self, tmp_path,
                                                       problem_file):
        from perturblab.problemio import RunManifest, artifact_dir

        out = tmp_path / "out"
        assert main(["--quiet", "--out", str(out), "model", "eval",
                     str(problem_file), "--which", "rho", "--z", "0.5,0.5",
                     "--real-grid", "2:3:3", "--imag", "0.25"]) == 0
        doc, path = read_artifact(out, "model-eval", "model_eval")
        assert doc["result"] == {"which": "rho", "imag": 0.25,
                                 "real_grid": "2:3:3", "points": 4}
        manifest = RunManifest(**{k: v for k, v in doc["manifest"].items()
                                  if k != "build"})
        assert artifact_dir(out, manifest) == path.parent
        assert (path.parent / "eval_rho.csv").is_file()

    @pytest.mark.parametrize("z", ["1e308,0", "-1e308,0", "0,1e308"])
    def test_model_eval_far_out_is_finite(self, tmp_path, z):
        # phi has the finite limit beta(inf)(1 + Theta(inf))/2 there
        path = tmp_path / "six_atom.json"
        path.write_text(SIX_ATOM)
        assert main(["--quiet", "--out", str(tmp_path / "out"), "model",
                     "eval", str(path), f"--z={z}"]) == 0
        (csv,) = (tmp_path / "out" / "model-eval").glob("*/eval_phi.csv")
        row = csv.read_text().strip().splitlines()[1].split(",")
        assert np.all(np.isfinite([float(v) for v in row]))

    def test_clark_json(self, tmp_path, problem_file):
        code = main(["--quiet", "--out", str(tmp_path / "out"), "clark",
                     str(problem_file), "--zeta", "-1,0"])
        assert code == 0
        doc, _ = read_artifact(tmp_path / "out", "clark", "clark")
        assert doc["result"]["atoms"] == [-1.0, 1.0]
        assert doc["result"]["weights"] == [1.0, 1.0]
        assert doc["result"]["p"] == 0.0

    def test_diagnose_growth_with_csv(self, tmp_path, problem_file):
        code = main(["--quiet", "--out", str(tmp_path / "out"), "diagnose",
                     "growth", str(problem_file), "--csv"])
        assert code == 0
        doc, _ = read_artifact(tmp_path / "out", "diagnose-growth", "growth")
        assert doc["result"]["lower_envelope_c"] > 0
        grids = list((tmp_path / "out" / "diagnose-growth")
                     .glob("*/growth_grid.csv"))
        assert len(grids) == 1

    def test_gallery_section4(self, tmp_path):
        code = main(["--quiet", "--out", str(tmp_path / "out"), "gallery",
                     "section4", "--k", "12"])
        assert code == 0
        doc, _ = read_artifact(tmp_path / "out", "gallery-section4",
                               "section4")
        assert doc["result"]["residue_max_rel_error"] <= 1e-8

    def test_section4_coefficients_at_full_precision(self, tmp_path):
        # past double_precision_max_k (76) nu_n = 2^n d_n^2 underflows in
        # float64, to 0.0 in 42 of the 120 rows; the CSV keeps 17 digits
        import mpmath as mp
        from perturblab.gallery import section4_build

        code = main(["--quiet", "--out", str(tmp_path / "out"), "gallery",
                     "section4", "--k", "120"])
        assert code == 0
        path, = (tmp_path / "out" / "gallery-section4").glob(
            "*/coefficients.csv")
        header, *lines = path.read_text().splitlines()
        assert header == "t,d,nu"
        pipe = section4_build(np.arange(1.0, 121.0), 120)
        rows = [line.split(",") for line in lines]
        assert [float(t) for t, _, _ in rows] == pipe.t.tolist()
        assert sum(float(x) == 0.0 for x in pipe.nu) == 42
        with mp.workdps(30):
            for (_, d, nu), d_exact, nu_exact in zip(rows, pipe.d, pipe.nu):
                assert abs(mp.mpf(nu) - nu_exact) <= 1e-15 * nu_exact
                assert abs(mp.mpf(d) - d_exact) <= 1e-15 * abs(d_exact)

    def test_gallery_lacunary(self, tmp_path):
        spec = tmp_path / "spectrum.json"
        spec.write_text(json.dumps(list(np.arange(1.0, 4000.0))))
        code = main(["--quiet", "--out", str(tmp_path / "out"), "gallery",
                     "lacunary", "--spectrum", str(spec)])
        assert code == 0
        doc, _ = read_artifact(tmp_path / "out", "gallery-lacunary",
                               "lacunary")
        assert doc["result"]["x"][0] == 2.0
        assert doc["result"]["x"][1] == 26.0

    def test_volterra_window(self, tmp_path, problem_file):
        code = main(["--quiet", "--out", str(tmp_path / "out"), "diagnose",
                     "volterra-window", str(problem_file),
                     "--rect", "0.5,3,0,1"])
        assert code == 0
        doc, _ = read_artifact(tmp_path / "out", "diagnose-volterra-window",
                               "volterra_window")
        assert doc["result"]["count"] == 1


class TestArtifactKeys:
    """Runs that differ in a parameter or the seed never share a directory."""

    def test_clark_zetas_leave_two_artifacts(self, tmp_path, problem_file):
        for zeta in ("-1,0", "0,1"):
            assert main(["--quiet", "--out", str(tmp_path / "out"), "clark",
                         str(problem_file), f"--zeta={zeta}"]) == 0
        hits = sorted((tmp_path / "out" / "clark").glob("*/clark.json"))
        assert len(hits) == 2
        zetas = {tuple(json.loads(h.read_text())["manifest"]["parameters"]
                       ["zeta"]) for h in hits}
        assert zetas == {(-1.0, 0.0), (0.0, 1.0)}

    @pytest.mark.parametrize("command, name, spellings", [
        (["clark", "{problem}"], "clark", ["--zeta=-1,0", "--zeta=-1.0,0.0"]),
        (["diagnose", "mass", "{problem}"], "mass",
         ["--zeta=0,1", "--zeta=0.0,1.00"]),
        (["diagnose", "volterra-window", "{problem}"], "volterra_window",
         ["--rect=0.5,3,0,1", "--rect=0.50,3.0,0.0,1e0"]),
        (["gallery", "sharp", "--eps", "1", "--n", "20"], "sharp",
         ["--rect=0.1,20,0,5", "--rect=.1,20.0,0,5.0"]),
    ])
    def test_spellings_of_one_value_share_a_directory(
            self, tmp_path, problem_file, command, name, spellings):
        # the manifest keeps the parsed option, not the text typed
        argv = [str(problem_file) if a == "{problem}" else a for a in command]
        written = []
        for spelling in spellings:
            assert main(["--quiet", "--out", str(tmp_path / "out")] + argv
                        + [spelling]) == 0
            (path,) = (tmp_path / "out").glob(f"*/*/{name}.json")
            written.append((path, path.read_bytes()))
        assert written[0] == written[1]

    def test_spectrum_routes_and_seeds_leave_own_directories(self, tmp_path,
                                                             problem_file):
        for seed, route in (("0", "shift"), ("0", "direct"), ("3", "direct")):
            assert main(["--quiet", "--out", str(tmp_path / "out"), "--seed",
                         seed, "spectrum", str(problem_file),
                         "--route", route]) == 0
        dirs = list((tmp_path / "out" / "spectrum").iterdir())
        assert len(dirs) == 3
        assert len({d.name.split("-")[0] for d in dirs}) == 1  # one input

    def test_rerun_writes_same_path_and_bytes(self, tmp_path, problem_file):
        paths = []
        for _ in range(2):
            assert main(["--quiet", "--out", str(tmp_path / "out"), "clark",
                         str(problem_file), "--zeta=0,1"]) == 0
            (path,) = (tmp_path / "out" / "clark").glob("*/clark.json")
            paths.append((path, path.read_bytes()))
        assert paths[0] == paths[1]


class TestReproducibility:
    def test_round_trip_is_fixpoint(self):
        canonical = serialize_problem(parse_problem(TWO_ATOM))
        again = serialize_problem(parse_problem(canonical))
        assert canonical == again

    def test_identical_manifest_identical_bytes(self, tmp_path,
                                                problem_file):
        for sub in ("a", "b"):
            code = main(["--quiet", "--seed", "7", "--out",
                         str(tmp_path / sub), "spectrum", str(problem_file)])
            assert code == 0
        f1 = next((tmp_path / "a" / "spectrum").glob("*/spectrum.json"))
        f2 = next((tmp_path / "b" / "spectrum").glob("*/spectrum.json"))
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize("instance", ["separated-300", "sharp-400"])
    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path, instance):
        # both differed between one and two threads before the CLI pinned
        # BLAS: the oracle everywhere, the model zeros through the sharp
        # instance's eigensolve fallback
        from conftest import separated_instance
        from perturblab.gallery import sharp_instance

        data = (separated_instance(np.random.Generator(np.random.Philox(5)),
                                   300)
                if instance == "separated-300"
                else sharp_instance(1.0, 0.0, 0.0, 400).data)
        path = tmp_path / "problem.json"
        path.write_text(serialize_problem(data))
        trees = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            proc = run_fresh(["spectrum", path], out,
                             OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            trees.append({f.relative_to(out): f.read_bytes()
                          for f in out.rglob("*") if f.is_file()})
        assert trees[0] and trees[0] == trees[1]

    def test_manifest_records_the_build(self, tmp_path, problem_file,
                                        monkeypatch):
        # the numpy/BLAS build is recorded, but another build keys the
        # same directory: it is left out of the run hash
        import perturblab.problemio as problemio

        paths = []
        for build in (problemio.NUMERICAL_BUILD,
                      {"numpy": "0.0", "blas": "other", "blas_version": "1"}):
            monkeypatch.setattr(problemio, "NUMERICAL_BUILD", build)
            out = tmp_path / build["numpy"]
            assert main(["--quiet", "--out", str(out), "spectrum",
                         str(problem_file)]) == 0
            doc, path = read_artifact(out, "spectrum", "spectrum")
            assert doc["manifest"]["build"] == build
            paths.append(path.relative_to(out))
        assert paths[0] == paths[1]
        recorded = problemio._numerical_build()
        assert recorded["numpy"] == np.__version__
        assert recorded["blas"] and recorded["blas_version"]

    def test_env_var_output_root(self, tmp_path, problem_file, monkeypatch):
        monkeypatch.setenv("PERTURBLAB_OUT", str(tmp_path / "envout"))
        assert main(["--quiet", "validate", str(problem_file)]) == 0
        assert (tmp_path / "envout" / "validate").exists()

    def test_canonical_json_is_sorted_and_newline_terminated(self):
        text = canonical_dumps({"b": 1, "a": [1.5, complex(2, -3)]})
        assert text == '{"a":[1.5,[2.0,-3.0]],"b":1}\n'

    def test_canonical_json_of_every_leaf_kind(self):
        # plain floats take a shortcut in jsonable; the text is pinned to
        # what the isinstance walk alone wrote
        nan, inf = float("nan"), float("inf")
        doc = {"floats": [nan, inf, -inf, -0.0, 1e308, 0.1, [2.5, (-1e-300,)]],
               "numpy": {"f64": np.float64(-0.0), "f64nan": np.float64(nan),
                         "f32": np.float32(0.1), "f32inf": np.float32(-inf),
                         "bool": np.bool_(True), "int": np.int64(-7),
                         "array": np.array([1.5, nan, -inf])},
               "python": {"bool": False, "int": 3,
                          "complex": complex(1.5, -0.0), "none": None,
                          "str": "x"}}
        assert canonical_dumps(doc) == (
            '{"floats":[null,null,null,-0.0,1e+308,0.1,[2.5,[-1e-300]]],'
            '"numpy":{"array":[1.5,null,null],"bool":true,'
            '"f32":0.10000000149011612,"f32inf":null,"f64":-0.0,'
            '"f64nan":null,"int":-7},"python":{"bool":false,'
            '"complex":[1.5,-0.0],"int":3,"none":null,"str":"x"}}\n')


class TestRankN:
    @pytest.fixture
    def rank2_file(self, tmp_path):
        path = tmp_path / "rank2.json"
        path.write_text(RANK_TWO)
        return path

    def test_validate_rank_two(self, tmp_path, rank2_file):
        assert main(["--quiet", "--out", str(tmp_path / "out"), "validate",
                     str(rank2_file)]) == 0
        doc, _ = read_artifact(tmp_path / "out", "validate", "report")
        assert doc["result"]["rank"] == 2
        assert doc["result"]["condition_A"] is True

    def test_spectrum_oracle_only(self, tmp_path, rank2_file):
        assert main(["--quiet", "--out", str(tmp_path / "out"), "spectrum",
                     str(rank2_file)]) == 0
        doc, _ = read_artifact(tmp_path / "out", "spectrum", "spectrum")
        assert len(doc["result"]["oracle"]) == 3
        assert doc["result"]["match_residual"] is None  # no model route

    def test_macaev_rank_two(self, tmp_path, rank2_file):
        assert main(["--quiet", "--out", str(tmp_path / "out"), "diagnose",
                     "macaev", str(rank2_file)]) == 0
        doc, _ = read_artifact(tmp_path / "out", "diagnose-macaev", "macaev")
        assert doc["result"]["invertible"] is True

    @staticmethod
    def coupled_file(tmp_path, transpose):
        """Six atoms, rank two, kappa = omega = b* A^{-1} a or its
        transpose: the realization inverts kappa - omega, which is 0 for
        the first and the well-conditioned omega^T - omega for the second."""
        rng = np.random.Generator(np.random.Philox(6))
        t = np.array([-3.0, -2.0, -1.0, 1.0, 2.5, 4.0])
        mu = rng.uniform(0.5, 2.0, 6)
        a, b = (rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
                for _ in "ab")
        omega = (b.conj().T * (mu / t)) @ a
        kappa = omega.T if transpose else omega
        data = RankNData(DiscreteSpectralData(t, mu), a, b, kappa)
        path = tmp_path / f"coupled_{int(transpose)}.json"
        path.write_text(serialize_problem(data))
        return path, data

    def test_coupling_singular_is_refused(self, tmp_path, capsys):
        path, _ = self.coupled_file(tmp_path, transpose=False)
        out = tmp_path / "out"
        for argv in (["validate"], ["spectrum"], ["diagnose", "macaev"]):
            assert main(["--quiet", "--out", str(out)] + argv
                        + [str(path)]) == (0 if argv != ["spectrum"] else 2)
        assert "admissibility condition fails" in capsys.readouterr().err
        doc, _ = read_artifact(out, "validate", "report")
        assert doc["result"]["condition_A"] is False
        assert doc["result"]["condition_A_star"] is False
        doc, _ = read_artifact(out, "diagnose-macaev", "macaev")
        assert doc["result"]["invertible"] is False

    def test_coupling_transposed_runs(self, tmp_path):
        path, data = self.coupled_file(tmp_path, transpose=True)
        out = tmp_path / "out"
        assert main(["--quiet", "--out", str(out), "spectrum",
                     str(path)]) == 0
        doc, _ = read_artifact(out, "spectrum", "spectrum")
        got = np.array([complex(*z) for z in doc["result"]["oracle"]])
        want = np.linalg.eigvals(np.linalg.inv(inverse_form(data)))
        assert np.all(np.isfinite(got)) and np.max(np.abs(got)) < 100.0
        assert matched_max_distance(distances(got, want)) \
            <= 1e-9 * np.max(np.abs(want))

    def test_round_trip_rank_two(self):
        canonical = serialize_problem(parse_problem(RANK_TWO))
        assert canonical == serialize_problem(parse_problem(canonical))

    def test_compare_rank_two_rejected(self, tmp_path, rank2_file):
        assert main(["--quiet", "--out", str(tmp_path / "out"), "compare",
                     str(rank2_file)]) == 2

    @pytest.mark.parametrize("argv", [
        ["model", "eval", "{problem}", "--z=1,1"],
        ["compare", "{problem}"],
        ["clark", "{problem}"],
        ["diagnose", "growth", "{problem}"],
        ["diagnose", "integral", "{problem}"],
        ["diagnose", "mass", "{problem}"],
        ["diagnose", "synthesis", "{problem}"],
        ["diagnose", "volterra-window", "{problem}", "--rect=0,1,0,1"],
    ])
    def test_rank_one_commands_refuse_rank_two(self, tmp_path, rank2_file,
                                               capsys, argv):
        argv = [a.format(problem=rank2_file) for a in argv]
        assert main(["--quiet", "--out", str(tmp_path / "out")] + argv) == 2
        err = capsys.readouterr().err
        assert "InvalidProblem" in err and "rank-one data" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestMoreDiagnose:
    def test_integral(self, tmp_path, problem_file):
        assert main(["--quiet", "--out", str(tmp_path / "out"), "diagnose",
                     "integral", str(problem_file), "--n", "2", "--tau", "1",
                     "--eta", "1"]) == 0
        doc, _ = read_artifact(tmp_path / "out", "diagnose-integral",
                               "integral")
        assert doc["result"]["convergent"] is True

    def test_integral_real_zero_is_numerical_failure(self, tmp_path,
                                                     problem_file):
        assert main(["--quiet", "--out", str(tmp_path / "out"), "diagnose",
                     "integral", str(problem_file), "--eta", "0"]) == 4

    def test_mass(self, tmp_path, problem_file):
        assert main(["--quiet", "--out", str(tmp_path / "out"), "diagnose",
                     "mass", str(problem_file), "--zeta", "1,0"]) == 0
        doc, _ = read_artifact(tmp_path / "out", "diagnose-mass", "mass")
        assert doc["result"]["has_mass"] is True  # canonical Theta(inf) = 1

    def test_forced_shift_route_agrees(self, tmp_path, problem_file):
        assert main(["--quiet", "--out", str(tmp_path / "out"), "spectrum",
                     str(problem_file), "--route", "shift"]) == 0
        doc, _ = read_artifact(tmp_path / "out", "spectrum", "spectrum")
        assert doc["result"]["route"][0] == "shift"
        eigs = sorted(v[0] for v in doc["result"]["oracle"])
        assert eigs == pytest.approx([1 - np.sqrt(2), 1 + np.sqrt(2)])


class TestSynthesisSize:
    def test_65_atoms_sampled(self, tmp_path):
        # more atoms than bits in a uint64 partition mask
        from conftest import separated_instance

        data = separated_instance(np.random.Generator(np.random.Philox(9)),
                                  66)
        path = tmp_path / "p65.json"
        path.write_text(json.dumps({
            "atoms": [{"t": t, "mu": mu}
                      for t, mu in zip(data.t[:65], data.mu[:65])],
            "a": [[z.real, z.imag] for z in data.a[:65]],
            "b": [[z.real, z.imag] for z in data.b[:65]],
            "kappa": [data.kappa.real, data.kappa.imag]}))
        assert main(["--quiet", "--out", str(tmp_path / "out"), "diagnose",
                     "synthesis", str(path), "--budget", "8"]) == 0
        doc, _ = read_artifact(tmp_path / "out", "diagnose-synthesis",
                               "synthesis")
        assert doc["result"]["partitions_checked"] == 8
        assert sorted(sum(doc["result"]["partition"], [])) == list(range(65))

    def test_60_atoms_budget_2000(self, tmp_path):
        from conftest import separated_instance

        data = separated_instance(np.random.Generator(np.random.Philox(23)),
                                  60)
        path = tmp_path / "p60.json"
        path.write_text(serialize_problem(data))
        assert main(["--quiet", "--out", str(tmp_path / "out"), "diagnose",
                     "synthesis", str(path), "--budget", "2000"]) == 0
        doc, _ = read_artifact(tmp_path / "out", "diagnose-synthesis",
                               "synthesis")
        assert doc["result"]["partitions_checked"] == 2000
        assert sorted(sum(doc["result"]["partition"], [])) == list(range(60))


SIX_ATOM = json.dumps({
    "atoms": [{"t": t, "mu": mu} for t, mu in
              zip([-5.0, -2.5, -0.7, 1.1, 3.0, 6.2],
                  [1.0, 0.5, 2.0, 1.5, 0.8, 1.2])],
    "a": [[1.0, 0.2], [0.5, -0.5], [0.9, 0.1], [0.3, 0.7], [1.0, 0.0],
          [0.6, -0.2]],
    "b": [[0.8, 0.0], [0.6, 0.3], [0.7, -0.4], [1.0, 0.1], [0.5, 0.5],
          [0.9, 0.0]],
    "kappa": [2.0, 1.0]})


class TestFuzz:
    """Option values drawn at random never escape cli.main as exceptions."""

    from hypothesis import example, given, settings, strategies as st

    number = st.one_of(
        st.floats(-30.0, 30.0).map(repr),
        st.sampled_from(["nan", "inf", "-inf", "1e308", "-0", "x", ""]))
    pair = st.one_of(st.tuples(number, number).map(",".join), number,
                     st.text(",.-e0123456789ij", max_size=12))
    rect = st.one_of(st.lists(number, min_size=4, max_size=4).map(",".join),
                     st.lists(number, max_size=6).map(",".join))
    indices = st.lists(st.integers(-1, 7), max_size=7).map(
        lambda v: ",".join(map(str, v)))
    partition = st.one_of(st.tuples(indices, indices).map("|".join),
                          st.text(",|-0123456x", max_size=12))
    cases = st.one_of(
        st.tuples(st.just("rect"), rect),
        st.tuples(st.just("zeta"), pair),
        st.tuples(st.just("z"), pair),
        st.tuples(st.just("budget"), st.one_of(
            st.integers(-3, 40).map(str), st.sampled_from(["", "x", "2.5"]))),
        st.tuples(st.just("partition"), partition))

    @pytest.fixture(scope="class")
    def six_atom_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "six_atom.json"
        path.write_text(SIX_ATOM)
        return path

    @staticmethod
    def non_finite(text):
        """True when text is one or two floats and one is nan or inf."""
        try:
            values = [float(p) for p in text.split(",")]
        except ValueError:
            return False
        return len(values) <= 2 and not np.all(np.isfinite(values))

    @given(case=cases)
    @example(case=("rect", "-30,1e308,0,1"))   # panel ends near 1e308
    @example(case=("zeta", "nan,0"))           # passed the unimodular check
    @example(case=("z", "1,inf"))
    @example(case=("z", "1e308,1e308"))     # 1/(t - z) overflows inside
    @example(case=("partition", "0,2|1,3,4,5,6,7"))    # index 6 of 6 atoms
    @settings(max_examples=60, deadline=None)
    def test_exit_code_in_contract(self, six_atom_file, case):
        import tempfile

        option, value = case
        argv = {
            "rect": ["diagnose", "volterra-window", str(six_atom_file),
                     f"--rect={value}"],
            "zeta": ["clark", str(six_atom_file), f"--zeta={value}"],
            "z": ["model", "eval", str(six_atom_file), f"--z={value}"],
            "budget": ["diagnose", "synthesis", str(six_atom_file),
                       f"--budget={value}"],
            "partition": ["diagnose", "synthesis", str(six_atom_file),
                          f"--partition={value}"],
        }[option]
        with tempfile.TemporaryDirectory() as out:
            code = main(["--quiet", "--out", out] + argv)
        assert code in range(5)
        if option in ("zeta", "z") and self.non_finite(value):
            assert code == 2


#: commands that compute in double precision: they run with neither scipy
#: nor mpmath importable
DOUBLE_PRECISION = {
    "spectrum": ["spectrum", "{problem}"],
    "compare": ["compare", "{problem}"],
    "validate": ["validate", "{problem}"],
    "clark": ["clark", "{problem}", "--zeta=0,1"],
    "model eval": ["model", "eval", "{problem}", "--z=1,1"],
    "diagnose growth": ["diagnose", "growth", "{problem}"],
    "diagnose integral": ["diagnose", "integral", "{problem}", "--n", "2",
                          "--tau", "1", "--eta", "1"],
    "diagnose macaev": ["diagnose", "macaev", "{problem}"],
    "diagnose mass": ["diagnose", "mass", "{problem}"],
    "diagnose synthesis": ["diagnose", "synthesis", "{problem}"],
    "diagnose volterra-window": ["diagnose", "volterra-window", "{problem}",
                                 "--rect=-10,10,0.5,2"],
    "gallery sharp": ["gallery", "sharp", "--eps", "1", "--n", "20",
                      "--rect=0,10,0,1"],
    "gallery lacunary": ["gallery", "lacunary", "--spectrum", "{spectrum}"],
}
#: commands that compute in extended precision: mpmath, which the command
#: loads, and no scipy
EXTENDED_PRECISION = {
    "gallery section4": ["gallery", "section4", "--k", "8"],
    "gallery ml-check": ["gallery", "ml-check", "--n", "100"],
}

BLOCKED_RUN = """\
import json, sys
blocked, out, commands = json.loads(sys.argv[1])
for name in blocked:
    sys.modules[name] = None    # an import of it now raises ImportError
from perturblab.cli import main
loaded = [name for name in ("scipy", "mpmath") if sys.modules.get(name)]
codes = {}
for name, argv in commands.items():
    try:
        codes[name] = main(["--quiet", "--out", out] + argv)
    except ImportError as exc:
        codes[name] = repr(exc)
print(json.dumps({"loaded_by_import": loaded, "codes": codes}))
"""


def run_blocked(tmp, blocked, commands):
    """Run commands ({name: argv}) through main, one after another, in a
    fresh interpreter in which no module named in blocked can be imported.
    Returns the exit code (or the ImportError) of each command, and which
    of scipy and mpmath importing perturblab.cli loaded."""
    import os
    import subprocess
    import sys

    import perturblab
    problem, spectrum = tmp / "six_atom.json", tmp / "spectrum.json"
    problem.write_text(SIX_ATOM)
    spectrum.write_text(json.dumps([1, 2, 3, 5, 8, 13, 30, 1000]))
    argvs = {name: [a.format(problem=problem, spectrum=spectrum)
                    for a in argv] for name, argv in commands.items()}
    src = os.path.dirname(os.path.dirname(perturblab.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", BLOCKED_RUN,
         json.dumps([blocked, str(tmp / "out"), argvs])],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestLeanImports:
    @pytest.fixture(scope="class")
    def double_runs(self, tmp_path_factory):
        return run_blocked(tmp_path_factory.mktemp("double"),
                           ["scipy", "mpmath"], DOUBLE_PRECISION)

    @pytest.fixture(scope="class")
    def extended_runs(self, tmp_path_factory):
        return run_blocked(tmp_path_factory.mktemp("extended"), ["scipy"],
                           EXTENDED_PRECISION)

    @pytest.mark.parametrize("command", DOUBLE_PRECISION)
    def test_double_precision_needs_neither(self, double_runs, command):
        assert double_runs["codes"][command] == 0

    @pytest.mark.parametrize("command", EXTENDED_PRECISION)
    def test_extended_precision_loads_mpmath_itself(self, extended_runs,
                                                    command):
        assert extended_runs["loaded_by_import"] == []
        assert extended_runs["codes"][command] == 0
