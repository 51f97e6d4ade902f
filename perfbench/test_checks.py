"""Each output check accepts the program's real output and rejects a wrong one.

    python3 -m pytest perfbench/test_checks.py -q

Every case runs one perturblab command on a small generated input, asserts
that its check passes, then corrupts one value of the artifacts (an
eigenvalue moved by 1e-6, a window count off by one, ...) and asserts that
the check now fails.
"""

import copy

import numpy as np
import pytest

import checks
import run
import workloads


def _edit(path, change):
    """Corrupter replacing the value v at a key path of the artifacts by change(v)."""
    def corrupt(art):
        *head, last = path
        node = art
        for key in head:
            node = node[key]
        node[last] = change(node[last])
    return corrupt


def _bump(path, delta):
    return _edit(path, lambda v: v + delta)


def _set(path, value):
    return _edit(path, lambda v: value)


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    work = tmp_path_factory.mktemp("bench")
    cli = run.import_program()
    inp = workloads.Inputs(work, seed=7)
    small = inp.problem("rank1_12", (20, 12), 12)
    mid = inp.problem("rank1_30", (21, 30), 30)
    rank2 = inp.problem("rank2_20", (3, 20), 20, rank=2)
    spec = inp.path("lacunary_spectrum")
    points = 3.0 * np.cumprod(np.linspace(1.1, 1.5, 200))
    with open(spec, "w", encoding="utf-8") as fh:
        fh.write(str(points.tolist()))
    ops = {op.name: op for op in (
        workloads._problem_ops(small) + workloads._diagnostic_ops(mid)
        + [workloads._integral_op(small)]
        + workloads._gallery_ops(spec, points, k_values=(30,), sharp_n=50))}
    ops["spectrum 30"] = workloads.Op(
        "spectrum 30", ["spectrum", mid.path],
        lambda art: checks.spectrum(art, mid.eigs))
    ops["spectrum rank-two 20"] = workloads.Op(
        "spectrum rank-two 20", ["spectrum", rank2.path],
        lambda art: checks.spectrum(art, rank2.eigs, rank_one=False))
    ops["window"] = workloads._window_op(
        mid, workloads._upper_rect(np.random.default_rng(1), mid.eigs, 30.0))
    ops["sharp rect"] = workloads.Op(
        "sharp rect", ["gallery", "sharp", "--eps", "1", "--alpha1", "0",
                       "--alpha2", "0", "--n", "30", "--rect", "0.1,20,0,5"],
        lambda art: checks.sharp(art, 30, rect=True))
    outputs = {}

    def output(name):
        if name not in outputs:
            out = work / "out" / str(len(outputs))
            code, _, _, err = run.call(cli, ops[name].argv, out)
            assert code == 0, err
            outputs[name] = run.read_artifacts(out)
        return ops[name], outputs[name]

    return output


CASES = [
    ("spectrum 30", "oracle eigenvalue moved by 1e-6",
     _bump(("spectrum.json", "oracle", 0, 0), 1e-6)),
    ("spectrum 30", "model zero moved by 1e-6",
     _bump(("spectrum.json", "model_zeros", 3, 1), 1e-6)),
    ("spectrum 30", "model zero dropped",
     lambda art: art["spectrum.json"]["model_zeros"].pop()),
    ("spectrum rank-two 20", "rank-two eigenvalue moved by 1e-6",
     _bump(("spectrum.json", "oracle", 5, 0), 1e-6)),
    ("compare rank1_12", "mismatch reported",
     _set(("compare.json", "ok"), False)),
    ("validate rank1_12", "kappa - omega off by 1e-6",
     _bump(("report.json", "kappa_minus_omega", 0), 1e-6)),
    ("clark rank1_12 -1", "weight off by 1e-6",
     _bump(("clark.json", "weights", 2), 1e-6)),
    ("clark rank1_12 i", "atom moved by 1e-6",
     _bump(("clark.json", "atoms", 4), 1e-6)),
    ("synthesis rank1_12", "sigma_min off by 1e-5",
     _bump(("synthesis.json", "sigma_min"), 1e-5)),
    ("model eval rank1_30", "one phi value off by 1e-6",
     _bump(("eval_phi.csv", 1000, 2), 1e-6)),
    ("growth rank1_30", "one |phi(iy)| off by 1e-6",
     _bump(("growth_grid.csv", 50, 1), 1e-6)),
    ("mass rank1_30", "p_est off by 1e-6",
     _bump(("mass.json", "p_est"), 1e-6)),
    ("macaev rank1_30", "smallest singular value off by 1e-6",
     _bump(("macaev.json", "smallest_singular"), 1e-6)),
    ("integral rank1_12", "integral off by 1e-4",
     _bump(("integral.json", "value"), 1e-4)),
    ("window", "window count and winding off by one",
     _edit(("volterra_window.json",),
           lambda res: {**res, "count": res["count"] + 1,
                        "winding_value": res["winding_value"] + 1.0})),
    ("sharp rect", "a zero of the sharp instance",
     _set(("sharp.json", "zero_count"), 1)),
    ("sharp 50", "smoothness sum off by 1e-6",
     _bump(("sharp.json", "smooth_a_total"), 1e-6)),
    ("ml-check n=1000", "partial sum off by 1e-9",
     _bump(("ml_check.json", "rhs_partial", 0), 1e-9)),
    ("section4 K=30", "B0 zero outside its gap",
     _bump(("section4.json", "b0_zeros", 1), 100.0)),
    ("section4 K=30", "q_total not below 1",
     _set(("section4.json", "q_total"), 1.5)),
    ("lacunary", "gap inequality broken",
     _set(("lacunary.json", "x", 2), 20.0)),
]


@pytest.mark.parametrize("op_name,what,corrupt", CASES,
                         ids=[f"{op} / {what}" for op, what, _ in CASES])
def test_check_rejects_wrong_output(bench, op_name, what, corrupt):
    op, art = bench(op_name)
    assert op.check(art) == []
    wrong = copy.deepcopy(art)
    corrupt(wrong)
    assert op.check(wrong), f"{what} was accepted"
