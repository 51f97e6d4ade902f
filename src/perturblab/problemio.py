"""Problem files, canonical JSON serialization and run manifests.

A problem file is JSON text of the form

    {"atoms": [{"t": -1.0, "mu": 1.0}, ...],
     "a": [[1.0, 0.0], ...], "b": [[1.0, 0.0], ...], "kappa": [1.0, 0.0]}

with complex numbers always written as [re, im] pairs.  The rank-n variant
uses arrays of such pairs for each row of a and b, and an n x n array for
kappa.  Serialization is canonical: sorted keys, compact separators,
shortest-roundtrip floats; parsing followed by serialization is a fixpoint
on canonical inputs, which is what makes artifacts byte-reproducible.
"""

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import InvalidData, InvalidProblem
from .data import DiscreteSpectralData, RankOneData, RankNData

OUTPUT_ROOT_ENV = "PERTURBLAB_OUT"


def complex_to_pair(z):
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _is_number(x):
    """Whether x is a JSON number: an int or a float, but not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _pairs(value, where):
    """Nested lists of [re, im] pairs as nested lists of complex values."""
    if (isinstance(value, list) and len(value) == 2
            and all(_is_number(x) for x in value)):
        return complex(float(value[0]), float(value[1]))
    if not isinstance(value, list) or not value:
        raise InvalidProblem(
            f"expected [re, im] pair at {where}, got {value!r}")
    return [_pairs(v, f"{where}[{i}]") for i, v in enumerate(value)]


def parse_problem(text):
    """Parse a problem JSON string into rank-one or rank-n data.

    Rank one when kappa is a single [re, im] pair: a and b are then lists
    of pairs; otherwise a, b and kappa are lists of rows of pairs.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidProblem(
            f"malformed JSON at line {exc.lineno} column {exc.colno} "
            f"(char {exc.pos}): {exc.msg}")
    if not isinstance(doc, dict):
        raise InvalidProblem("problem file must be a JSON object")
    for key in ("atoms", "a", "b", "kappa"):
        if key not in doc:
            raise InvalidProblem(f"missing key {key!r}")
    atoms = doc["atoms"]
    if not isinstance(atoms, list):
        raise InvalidProblem("atoms must be a list of {'t', 'mu'} objects")
    for i, rec in enumerate(atoms):
        if not isinstance(rec, dict) or "t" not in rec or "mu" not in rec:
            raise InvalidProblem(f"atoms[{i}] must carry 't' and 'mu'")
        for key in ("t", "mu"):
            if not _is_number(rec[key]):
                raise InvalidProblem(
                    f"atoms[{i}].{key} must be a number, got {rec[key]!r}")
    try:
        base = DiscreteSpectralData([rec["t"] for rec in atoms],
                                    [rec["mu"] for rec in atoms])
        a, b, kappa = (np.array(_pairs(doc[key], key))
                       for key in ("a", "b", "kappa"))
        rank_one = kappa.ndim == 0
        if (a.ndim, b.ndim, kappa.ndim) != ((1, 1, 0) if rank_one
                                            else (2, 2, 2)):
            raise InvalidProblem(
                "a and b must be lists of [re, im] pairs" if rank_one else
                "a, b and kappa must be lists of rows of [re, im] pairs")
        return (RankOneData if rank_one else RankNData)(base, a, b, kappa)
    except (InvalidData, ValueError, TypeError, OverflowError) as exc:
        raise InvalidProblem(str(exc))


def problem_to_dict(data):
    doc = {"atoms": [{"t": float(t), "mu": float(m)}
                     for t, m in zip(data.t, data.mu)]}
    for key in ("a", "b", "kappa"):
        v = np.asarray(getattr(data, key))
        doc[key] = np.stack((v.real, v.imag), -1).tolist()
    return doc


def jsonable(obj):
    """Recursively convert numpy scalars/arrays and complexes to JSON types."""
    if type(obj) is float:  # the common leaf, before the isinstance walk
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.complexfloating, complex)):
        return complex_to_pair(obj)
    if isinstance(obj, (np.bool_, bool)):  # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else None  # keep artifacts strict JSON
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj)!r}")


def canonical_dumps(doc):
    """Canonical JSON text: sorted keys, compact separators, '\\n'-terminated."""
    return json.dumps(jsonable(doc), sort_keys=True,
                      separators=(",", ":")) + "\n"


def serialize_problem(data):
    return canonical_dumps(problem_to_dict(data))


def input_hash(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _numerical_build():
    """The numpy version and the BLAS name and version numpy was built with
    (None where numpy does not report them)."""
    blas = getattr(np.__config__, "CONFIG", {}).get(
        "Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version")}


#: the numerical build every artifact of this process is computed with
NUMERICAL_BUILD = _numerical_build()


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record embedded in every artifact.

    An identical manifest reruns to bit-identical artifacts: summation
    order, eigensolver settings and sampled partitions are all fixed by the
    inputs and the seed, and the command line pins BLAS to one thread
    before numpy is imported, so OPENBLAS_NUM_THREADS and its kin do not
    change the bytes.  The manifest records the numpy/BLAS build, since
    LAPACK results depend on it; the build stays out of the run hash, so
    another build writes to the same directory.  A process that imports
    numpy before perturblab.cli keeps its own thread count, and with more
    than one thread spectrum's oracle and the sharp eigensolve fallback
    can differ in the last bits.
    """

    command: str
    parameters: dict
    input_hash: str
    seed: int
    tool_version: str = __version__

    def to_dict(self):
        return {
            "command": self.command,
            "parameters": self.parameters,      # canonical_dumps converts
            "input_hash": self.input_hash,
            "seed": int(self.seed),
            "tool_version": self.tool_version,
            "build": NUMERICAL_BUILD,
        }


def make_manifest(command, parameters, raw_input_text, seed):
    return RunManifest(command, parameters, input_hash(raw_input_text),
                       int(seed))


def artifact_dir(out_root, manifest: RunManifest):
    """Cache-addressable layout out/<command>/<input-hash>-<run-hash>/.

    The run hash covers the command's canonical parameters and the seed, so
    runs that differ in either never share a directory, and an identical
    manifest always maps to the same one.
    """
    from pathlib import Path

    # json.dumps serializes plain values in C; jsonable sees only the rest
    run = json.dumps([manifest.parameters, manifest.seed], sort_keys=True,
                     default=jsonable)
    d = Path(out_root) / manifest.command.replace(" ", "_") \
        / f"{manifest.input_hash[:16]}-{input_hash(run)[:16]}"
    d.mkdir(parents=True, exist_ok=True)
    return d


def write_json_artifact(directory, name, manifest: RunManifest, payload):
    from pathlib import Path

    doc = {"manifest": manifest.to_dict(), "result": payload}
    path = Path(directory) / f"{name}.json"
    path.write_text(canonical_dumps(doc), encoding="utf-8")
    return path


def write_csv_artifact(directory, name, header, rows):
    from pathlib import Path

    path = Path(directory) / f"{name}.csv"
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else repr(float(v))
                              for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
