"""Span tracing of perturblab from outside the program, for the traced run.

install() wraps every public function of the program's modules, and every
public method (plus __call__) of the classes they define, in a wrapper that
records one span per call: name, start, end, parent span and operation id.
The wrapper is also set on each name another module imported directly (for
example cli.compute_spectrum, diagnostics.phi_zeros, model.kahan_sum), so
every call path is covered.  Spans are kept in flat in-memory arrays and
written out once, at the end of the run.

The untraced run never imports this module.
"""

import importlib
import inspect
import os
import statistics
import sys
from array import array
from functools import wraps
from time import perf_counter

import numpy as np

MODULES = ("cli", "_numutil", "data", "model", "engine", "diagnostics",
           "gallery", "problemio")

_EVALUATORS = tuple(f"model.ModelPair.{m}" for m in (
    "theta", "phi", "phi_tilde", "one_plus_theta", "theta_prime",
    "log_derivative_phi", "phi_prime", "eval")) + (
    "model.CauchyRepresentation.__call__",
    "model.CauchyRepresentation.derivative")
_WRITERS = ("problemio.write_json_artifact", "problemio.write_csv_artifact")

#: metric group -> the span names it adds up
GROUPS = {
    "engine.phi_zeros": ("engine.phi_zeros",),
    "engine.oracle_spectrum": ("engine.oracle_spectrum",),
    "engine.build_matrix": ("engine.build_matrix",),
    "engine.eigensystem": ("engine.eigensystem",),
    "model.rational": ("model.ModelPair.rational",),
    "model.regular_part": ("model.CauchyRepresentation.regular_part",
                           "model.CauchyRepresentation.derivative_regular_part"),
    "model.eval": _EVALUATORS,
    "model.clark_measure": ("model.clark_measure",),
    "diagnostics.volterra_window_check": ("diagnostics.volterra_window_check",),
    "diagnostics.growth_profile": ("diagnostics.growth_profile",),
    "diagnostics.integral_test": ("diagnostics.integral_test",),
    "diagnostics.mass_detect": ("diagnostics.mass_detect",),
    "diagnostics.enumerate_partitions": ("diagnostics.enumerate_partitions",),
    "diagnostics.synthesis_defect": ("diagnostics.synthesis_defect",),
    "gallery.sharp_zero_freeness": ("gallery.sharp_zero_freeness",),
    "gallery.section4_build": ("gallery.section4_build",),
    "problemio.parse_problem": ("problemio.parse_problem",),
    "problemio.write": _WRITERS,
    "data.validate": ("data.validate",),
    "numutil.kahan_sum": ("numutil.kahan_sum",),
    "numutil.sum_by_abs_pole": ("numutil.sum_by_abs_pole",),
    "numutil.matched_max_distance": ("numutil.matched_max_distance",),
}

#: the reported layer metrics and their units; a group's ".s" is its self
#: time and ".calls" its number of spans, per round
METRICS = {
    "engine.phi_zeros.s": "s", "engine.phi_zeros.calls": "count",
    "engine.oracle_spectrum.s": "s", "engine.build_matrix.s": "s",
    "engine.eigensystem.s": "s",
    "model.rational.s": "s", "model.rational.calls": "count",
    "model.regular_part.s": "s", "model.regular_part.calls": "count",
    "model.eval.s": "s", "model.eval.calls": "count",
    "model.eval.us_per_call": "us", "model.clark_measure.s": "s",
    "diagnostics.volterra_window_check.s": "s",
    "diagnostics.growth_profile.s": "s", "diagnostics.integral_test.s": "s",
    "diagnostics.mass_detect.s": "s",
    "diagnostics.enumerate_partitions.s": "s",
    "diagnostics.synthesis_defect.calls": "count",
    "gallery.sharp_zero_freeness.s": "s", "gallery.section4_build.s": "s",
    "problemio.parse_problem.s": "s", "problemio.write.s": "s",
    "problemio.write.files": "count", "problemio.write.bytes": "bytes",
    "data.validate.s": "s", "data.validate.calls": "count",
    "numutil.kahan_sum.s": "s", "numutil.kahan_sum.calls": "count",
    "numutil.sum_by_abs_pole.s": "s", "numutil.matched_max_distance.s": "s",
    "trace.spans": "count",
}


class Tracer:
    """Flat span store; span i has parent index parents[i] (-1 at the top)."""

    def __init__(self):
        self.names = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.op_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.nbytes = {}
        self.op = -1
        self._stack = [-1]

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, op_ids = self.name_ids, self.parents, self.op_ids
        starts, ends, stack = self.starts, self.ends, self._stack
        writer = name in _WRITERS

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            op_ids.append(self.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if writer:
                self.nbytes[idx] = os.path.getsize(result)
            return result

        return traced

    def arrays(self):
        """Copies of the span columns as numpy arrays."""
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "op_id": np.frombuffer(self.op_ids, dtype=np.int32).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
        }

    def save(self, path):
        """Write every span (and the name table) to one .npz file."""
        arrs = self.arrays()
        np.savez(path, names=np.array(self.names), **arrs,
                 write_span=np.array(list(self.nbytes), dtype=np.int64),
                 write_bytes=np.array(list(self.nbytes.values()),
                                      dtype=np.int64))


def install():
    """Wrap the program's public functions and methods; return the tracer."""
    tracer = Tracer()
    wrapped = {}
    for short in MODULES:
        mod = importlib.import_module(f"perturblab.{short}")
        prefix = short.lstrip("_")
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[obj] = tracer.wrap(f"{prefix}.{name}", obj)
            elif inspect.isclass(obj):
                for mname, meth in list(vars(obj).items()):
                    if inspect.isfunction(meth) and (
                            not mname.startswith("_") or mname == "__call__"):
                        setattr(obj, mname, tracer.wrap(
                            f"{prefix}.{obj.__name__}.{mname}", meth))
    for mod in [m for k, m in sys.modules.items() if k.startswith("perturblab")]:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])
    return tracer


def layer_metrics(tracer, n_ops, rounds):
    """The METRICS, each a median over rounds of its per-round total.

    Self time is a span's duration minus the durations of its direct child
    spans; spans never overlap within one thread.  model.eval.us_per_call is
    the inclusive time of evaluator calls not made by another evaluator, per
    such call; problemio.write.files and .bytes count artifacts written.
    """
    s = tracer.arrays()
    dur = s["end"] - s["start"]
    parent = s["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    self_time = dur - child
    in_op = s["op_id"] >= 0
    rnd = np.where(in_op, s["op_id"] // n_ops, 0)
    ids = {name: i for i, name in enumerate(tracer.names)}

    def per_round(values, mask):
        mask = mask & in_op
        sums = np.bincount(rnd[mask], weights=values[mask], minlength=rounds)
        return float(statistics.median(sums[:rounds]))

    def member(names):
        return np.isin(s["name_id"], [ids[n] for n in names if n in ids])

    ones = np.ones_like(dur)
    out = {}
    for group, names in GROUPS.items():
        mask = member(names)
        out[f"{group}.s"] = per_round(self_time, mask)
        out[f"{group}.calls"] = per_round(ones, mask)
    evaluator = member(_EVALUATORS)
    outer = evaluator & ~np.where(has_parent, evaluator[parent], False)
    calls = per_round(ones, outer)
    out["model.eval.us_per_call"] = (1e6 * per_round(dur, outer) / calls
                                     if calls else 0.0)
    written = np.zeros_like(dur)
    written[list(tracer.nbytes)] = list(tracer.nbytes.values())
    out["problemio.write.files"] = out["problemio.write.calls"]
    out["problemio.write.bytes"] = per_round(written, member(_WRITERS))
    out["trace.spans"] = per_round(ones, in_op)
    return {name: out[name] for name in METRICS}
