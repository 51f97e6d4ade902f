"""Command-line behavior: exit codes, artifacts, reproducibility."""

import json

import numpy as np
import pytest

from perturblab.cli import main
from perturblab.problemio import (canonical_dumps, parse_problem,
                                  serialize_problem)

TWO_ATOM = """{"atoms": [{"t": -1.0, "mu": 1.0}, {"t": 1.0, "mu": 1.0}],
 "a": [[1.0, 0.0], [1.0, 0.0]],
 "b": [[1.0, 0.0], [1.0, 0.0]],
 "kappa": [1.0, 0.0]}
"""


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "two_atom.json"
    path.write_text(TWO_ATOM)
    return path


def run_fresh(argv, out):
    """The CLI in a fresh interpreter, so an uncaught exception would show
    as a traceback on stderr."""
    import os
    import subprocess
    import sys

    import perturblab
    src = os.path.dirname(os.path.dirname(perturblab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
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

    def test_forced_tolerance_failure_exit_three(self, tmp_path):
        # complex-type data leave a nonzero (machine-level) residual, so an
        # absurdly small tolerance must trip exit code 3
        path = tmp_path / "complex_type.json"
        path.write_text(TWO_ATOM.replace('"b": [[1.0, 0.0], [1.0, 0.0]]',
                                         '"b": [[1.0, 0.0], [0.0, 1.0]]'))
        code = main(["--tol", "1e-30", "--quiet", "--out",
                     str(tmp_path / "out"), "compare", str(path)])
        assert code == 3


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

    def test_env_var_output_root(self, tmp_path, problem_file, monkeypatch):
        monkeypatch.setenv("PERTURBLAB_OUT", str(tmp_path / "envout"))
        assert main(["--quiet", "validate", str(problem_file)]) == 0
        assert (tmp_path / "envout" / "validate").exists()

    def test_canonical_json_is_sorted_and_newline_terminated(self):
        text = canonical_dumps({"b": 1, "a": [1.5, complex(2, -3)]})
        assert text == '{"a":[1.5,[2.0,-3.0]],"b":1}\n'


RANK_TWO = """{"atoms": [{"t": -2.0, "mu": 1.0}, {"t": 1.0, "mu": 0.5}, {"t": 3.0, "mu": 2.0}],
 "a": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]],
 "b": [[[1.0, 0.0], [0.2, 0.0]], [[0.1, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
 "kappa": [[[2.0, 0.0], [0.1, 0.0]], [[0.0, 0.0], [1.5, 0.0]]]}
"""


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

    def test_round_trip_rank_two(self):
        canonical = serialize_problem(parse_problem(RANK_TWO))
        assert canonical == serialize_problem(parse_problem(canonical))

    def test_compare_rank_two_rejected(self, tmp_path, rank2_file):
        assert main(["--quiet", "--out", str(tmp_path / "out"), "compare",
                     str(rank2_file)]) == 2


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
