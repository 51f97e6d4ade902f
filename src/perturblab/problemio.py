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
from .errors import InvalidProblem
from .data import Atom, DiscreteSpectralData, RankOneData, RankNData

OUTPUT_ROOT_ENV = "PERTURBLAB_OUT"


def complex_to_pair(z):
    z = complex(z)
    return [float(z.real), float(z.imag)]


def pair_to_complex(v, where=""):
    if (not isinstance(v, (list, tuple)) or len(v) != 2
            or not all(isinstance(x, (int, float)) for x in v)):
        raise InvalidProblem(f"expected [re, im] pair at {where}, got {v!r}")
    return complex(float(v[0]), float(v[1]))


def parse_problem(text):
    """Parse a problem JSON string into rank-one or rank-n data."""
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
    atoms = []
    for i, rec in enumerate(doc["atoms"]):
        if not isinstance(rec, dict) or "t" not in rec or "mu" not in rec:
            raise InvalidProblem(f"atoms[{i}] must carry 't' and 'mu'")
        atoms.append(Atom(float(rec["t"]), float(rec["mu"])))
    try:
        base = DiscreteSpectralData(tuple(atoms))
    except Exception as exc:
        raise InvalidProblem(str(exc))

    kappa = doc["kappa"]
    rank_one = (isinstance(kappa, (list, tuple)) and len(kappa) == 2
                and all(isinstance(x, (int, float)) for x in kappa))
    try:
        if rank_one:
            a = np.array([pair_to_complex(v, f"a[{i}]")
                          for i, v in enumerate(doc["a"])])
            b = np.array([pair_to_complex(v, f"b[{i}]")
                          for i, v in enumerate(doc["b"])])
            return RankOneData(base, a, b, pair_to_complex(kappa, "kappa"))
        a = np.array([[pair_to_complex(v, f"a[{i}][{j}]")
                       for j, v in enumerate(row)]
                      for i, row in enumerate(doc["a"])])
        b = np.array([[pair_to_complex(v, f"b[{i}][{j}]")
                       for j, v in enumerate(row)]
                      for i, row in enumerate(doc["b"])])
        kap = np.array([[pair_to_complex(v, f"kappa[{i}][{j}]")
                         for j, v in enumerate(row)]
                        for i, row in enumerate(kappa)])
        return RankNData(base, a, b, kap)
    except InvalidProblem:
        raise
    except Exception as exc:
        raise InvalidProblem(str(exc))


def problem_to_dict(data):
    doc = {"atoms": [{"t": float(t), "mu": float(m)}
                     for t, m in zip(data.t, data.mu)]}
    if isinstance(data, RankOneData):
        doc["a"] = [complex_to_pair(z) for z in data.a]
        doc["b"] = [complex_to_pair(z) for z in data.b]
        doc["kappa"] = complex_to_pair(data.kappa)
    else:
        doc["a"] = [[complex_to_pair(z) for z in row] for row in data.a]
        doc["b"] = [[complex_to_pair(z) for z in row] for row in data.b]
        doc["kappa"] = [[complex_to_pair(z) for z in row]
                        for row in data.kappa]
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


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record embedded in every artifact.

    An identical manifest reruns to bit-identical JSON artifacts: summation
    order, eigensolver settings and sampled partitions are all fixed by the
    inputs and the seed.
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
        lines.append(",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
