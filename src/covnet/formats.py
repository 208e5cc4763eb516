"""covnet's file formats: the one module that reads and writes them.

Every file is JSON except two CSV forms, a real matrix read as headerless
CSV and the Gaussian samples written as one:

    matrix       {"n": int, "re": [[...]], "im": [[...]]}
    vector       {"re": [...], "im": [...]}
    network      {"parties": ["A1", ...], "sources": [{"name": "alpha",
                  "parties": ["A1", "A2"]}, ...]}
    model        {"sources": {"alpha": {"alphabets": [2, 2], "pmf": [...]}},
                  "responses": {"A1": {"alphabet": 2, "table": [...]}},
                  "functions": {"A1": <vector>}}
    certificate  {"method": "decomposition", "target": <matrix>,
                  "terms": {"alpha": <matrix>, ...}, "residual": r}
                 or {"method": "witness", "w": <matrix>, "inner_product": v}
    spec         {"d": int, "perms": {"A1|alpha": [0, 1], ...}}

"im" is optional: without it input reads as float64, and writers emit it
for complex arrays only.  A model's flat arrays are row-major over
lexicographic signal tuples.  Each kind of JSON value has one rule, each
built on ``_is_json``: an integer (``_json_int``), a number
(``_json_numbers``, and ``_json_number`` for exactly one) and a name
(``_json_name``).

``import covnet`` does not load this module, nor ``json``: it loads on
first use of one of its names, and the ``to_json`` methods of ``Network``,
``Decomposition`` and ``DualWitness`` import it when called.
"""

import json

import numpy as np

from .linalg import _array, as_hermitian
from .network import Network, _each
from .solver import Decomposition, DualWitness


def _is_json(v, kind) -> bool:
    """Whether ``v`` is a JSON value of ``kind``: int, (int, float) or str.
    A JSON true or false reads as a bool, which is an int, so a bool is
    never a number."""
    return type(v) is not bool and isinstance(v, kind)


def _json_numbers(x, what: str, number=(int, float)) -> np.ndarray:
    """``x`` as an array, float64 unless ``number`` is int, once it is a
    ``number`` or a rectangular list (of lists) of them; strings, null,
    bools and ragged lists fail."""
    todo = [x]
    while todo:
        v = todo.pop()
        if type(v) is list:
            todo.extend(v)
        elif not _is_json(v, number):
            kind = "integers" if number is int else "numbers"
            raise ValueError(f"{what} must hold JSON {kind} only, not {v!r}")
    try:
        return np.asarray(x, dtype=None if number is int else np.float64)
    except ValueError:  # numpy's text for a ragged list names no field
        raise ValueError(f"{what} must be a rectangular JSON array") from None


def _json_number(x, what: str) -> float:
    """``x`` as a float once it is one JSON number, not a list of them."""
    if type(x) is list:
        raise ValueError(f"{what} must be one JSON number, not a list")
    return float(_json_numbers(x, what))


def _json_int(x, what: str) -> int:
    """``x`` once it is one JSON integer."""
    if not _is_json(x, int):
        raise ValueError(f"{what} must be a JSON integer, not {x!r}")
    return x


def _json_name(x) -> str:
    """``x`` once it is a JSON string: a party or source name."""
    if not _is_json(x, str):
        raise ValueError(f"network JSON names must be JSON strings, not {x!r}")
    return x


# -- matrices and vectors ----------------------------------------------------


def matrix_to_json(m) -> dict:
    a = _array(m)
    obj = {"n": int(a.shape[0]), "re": a.real.tolist()}
    if a.dtype.kind == "c":
        obj["im"] = a.imag.tolist()
    return obj


def _from_json(obj: dict, what: str) -> np.ndarray:
    """float64 re, or re + i im as complex128 if ``obj`` has "im"."""
    re = _json_numbers(obj["re"], f"{what} JSON 're'")
    if "im" not in obj:
        return re
    im = _json_numbers(obj["im"], f"{what} JSON 'im'")
    if im.shape != re.shape:
        raise ValueError(f"{what} JSON 're' and 'im' differ in shape")
    v = re.astype(np.complex128)
    v.imag = im  # re + 1j * im would give an infinite im a NaN real part
    return v


def matrix_from_json(obj: dict) -> np.ndarray:
    """Parse the matrix JSON object and return the symmetrized matrix."""
    if not (isinstance(obj, dict) and _is_json(obj.get("n"), int) and "re" in obj):
        raise ValueError("matrix JSON must contain an integer 'n' and 're'")
    n, m = obj["n"], _from_json(obj, "matrix")
    if m.shape != (n, n):
        raise ValueError(f"matrix JSON shape mismatch: expected {n}x{n}")
    return as_hermitian(m)


def vector_from_json(obj: dict) -> np.ndarray:
    """Parse the vector JSON object: float64 without "im", else complex128."""
    if not isinstance(obj, dict) or "re" not in obj:
        raise ValueError("vector JSON must contain 're'")
    v = _from_json(obj, "vector")
    if v.ndim != 1:
        raise ValueError("vector JSON 're' must be a flat list")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has a NaN or infinite entry")
    return v


# -- networks ------------------------------------------------------------------


def network_to_json(net: Network) -> dict:
    return {
        "parties": list(net.party_names),
        "sources": [
            {"name": nm, "parties": [net.party_names[i] for i in adj]}
            for nm, adj in zip(net.source_names, net.sources)
        ],
    }


def parse_network(spec) -> Network:
    """Build a validated :class:`Network` from JSON text or a parsed dict.

    Expected form::

        {"parties": ["A1", "A2"], "sources": [{"name": "alpha", "parties": ["A1", "A2"]}]}
    """
    if isinstance(spec, str):
        spec = json.loads(spec)
    if not (isinstance(spec, dict) and isinstance(spec.get("parties"), (list, tuple))
            and isinstance(spec.get("sources"), (list, tuple))):
        raise ValueError("network JSON must contain 'parties' and 'sources' lists")
    parties = [_json_name(p) for p in spec["parties"]]
    index = {p: i for i, p in enumerate(parties)}
    names, adjs = [], []
    for k, src in enumerate(spec["sources"]):
        members = src.get("parties", []) if isinstance(src, dict) else None
        if not isinstance(members, (list, tuple)):
            raise ValueError(f"network JSON source {k} must be an object with a 'parties' list")
        name = _json_name(src.get("name", f"s{k}"))
        for p in members:
            if _json_name(p) not in index:
                raise ValueError(f"unknown party '{p}' in source '{name}'")
        adjs.append(tuple(sorted(index[p] for p in members)))
        names.append(name)
    return Network(tuple(parties), tuple(names), tuple(adjs))


# -- certificates --------------------------------------------------------------


def decomposition_to_json(d: Decomposition) -> dict:
    return {
        "target": matrix_to_json(d.target),
        "terms": {name: matrix_to_json(t) for name, t in d.terms.items()},
        "residual": float(d.residual_norm),
    }


def witness_to_json(w: DualWitness) -> dict:
    return {"w": matrix_to_json(w.w), "inner_product": float(w.inner_product)}


def certificate_to_json(cert: Decomposition | DualWitness) -> dict:
    """The certificate file ``covnet check`` writes: the decomposition or
    the witness, tagged by its "method"."""
    method = "witness" if isinstance(cert, DualWitness) else "decomposition"
    return {"method": method, **cert.to_json()}


def _terms_from_json(obj) -> dict:
    """The one reader of a decomposition's ``"terms"``, which ``covnet
    gauss`` reads from a file that may hold nothing else."""
    if not (isinstance(obj, dict) and isinstance(obj.get("terms"), dict)):
        raise ValueError("decomposition JSON must contain a 'terms' object")
    return {name: matrix_from_json(t) for name, t in obj["terms"].items()}


def decomposition_from_json(obj: dict) -> Decomposition:
    target = matrix_from_json(obj["target"])  # read ahead of the terms
    return Decomposition(_terms_from_json(obj), target,
                         _json_number(obj.get("residual", 0.0), "decomposition JSON 'residual'"))


def witness_from_json(obj: dict) -> DualWitness:
    return DualWitness(matrix_from_json(obj["w"]),
                       _json_number(obj["inner_product"], "witness JSON 'inner_product'"))


# -- inflation specs and classical models ----------------------------------------
# Each reader imports the module of its record when called, so that reading
# a network or a matrix loads neither.


def inflation_spec_from_json(obj: dict):
    """The ``inflate.InflationSpec`` of a spec JSON object."""
    from .inflate import InflationSpec

    if not (isinstance(obj, dict) and _is_json(obj.get("d"), int)
            and isinstance(obj.get("perms", {}), dict)):
        raise ValueError("spec JSON must contain an integer 'd' and a 'perms' object")
    perms = {}
    for key, images in obj.get("perms", {}).items():
        party, sep, source = key.partition("|")
        if not sep:
            raise ValueError(f"spec key '{key}' must have the form 'party|source'")
        # The order and the permutations are checked once, by inflate._wiring.
        perms[(party, source)] = _json_numbers(images, f"spec permutation '{key}'", int)
    return InflationSpec(obj["d"], perms)


def model_from_json(obj: dict, net: Network):
    """Parse model JSON; returns (SourceModel, ResponseModel, OutputFunctions
    or None), the records of ``simulate``."""
    from .simulate import OutputFunctions, ResponseModel, SourceModel

    if not (isinstance(obj, dict) and isinstance(obj.get("sources"), dict)
            and isinstance(obj.get("responses"), dict)):
        raise ValueError("model JSON must contain 'sources' and 'responses' objects")
    functions = obj.get("functions") or None  # an empty section means none
    if functions and not isinstance(functions, dict):
        raise ValueError("model JSON 'functions' must be an object")
    pmfs = []
    for name, entry in zip(net.source_names,
                           _each(net.source_names, obj["sources"], "source model for")):
        shape = tuple(_json_int(k, f"source '{name}' alphabet") for k in entry["alphabets"])
        flat = _json_numbers(entry["pmf"], f"source '{name}' pmf")
        if flat.size != int(np.prod(shape)):
            raise ValueError(f"source '{name}' pmf length does not match alphabets")
        pmfs.append(flat.reshape(shape))
    tables, holders = [], net._holders()
    for i, (name, entry) in enumerate(zip(net.party_names, _each(
            net.party_names, obj["responses"], "response model for party"))):
        out_k = _json_int(entry["alphabet"], f"party '{name}' alphabet")
        flat = _json_numbers(entry["table"], f"party '{name}' table")
        shape = tuple(pmfs[a].shape[slot] for a, slot, _ in holders[i, i]) + (out_k,)
        if flat.size != int(np.prod(shape)):
            raise ValueError(f"party '{name}' table length does not match its signals")
        tables.append(flat.reshape(shape))
    if functions:
        functions = OutputFunctions(dict(zip(net.party_names, map(vector_from_json, _each(
            net.party_names, functions, "output function for party")))))
    return (SourceModel(dict(zip(net.source_names, pmfs))),
            ResponseModel(dict(zip(net.party_names, tables))), functions)


# -- files ---------------------------------------------------------------------
# The readers of the command line.  A failure to open or parse a file is one
# ValueError naming it; for a network or a matrix, so is an invalid value.


def _read(path, parse=json.load, what: str = ""):
    """``parse`` of the file at ``path`` opened as text, by default its
    JSON value."""
    try:
        with open(path) as fh:
            return parse(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read {what}'{path}': {exc}") from exc


def read_network(path) -> Network:
    return _read(path, lambda fh: parse_network(json.load(fh)), "network ")


def read_matrix(path) -> np.ndarray:
    """The Hermitian matrix in the file at ``path``: headerless CSV, which
    is real, for a ``.csv`` path, else matrix JSON."""
    if str(path).endswith(".csv"):
        return _read(path, lambda fh: as_hermitian(np.loadtxt(fh, delimiter=",", ndmin=2)), "matrix ")
    return _read(path, lambda fh: matrix_from_json(json.load(fh)), "matrix ")


def read_model(path, net: Network, functions_path=None):
    """``model_from_json`` of the model file, with its "functions" section
    replaced by the file at ``functions_path`` if given."""
    obj = _read(path)
    if functions_path and isinstance(obj, dict):
        obj = {**obj, "functions": _read(functions_path)}
    return model_from_json(obj, net)


def read_spec(path):
    return inflation_spec_from_json(_read(path))


def read_vectors(path) -> list[np.ndarray]:
    """The vectors of a JSON list of vector objects."""
    vectors = _read(path)
    if not isinstance(vectors, list):
        raise ValueError(f"'{path}' must hold a JSON list of vectors")
    return [vector_from_json(v) for v in vectors]


def read_phi(path) -> np.ndarray:
    """A vector object, or a bare list of numbers read as a real vector."""
    obj = _read(path)
    return vector_from_json({"re": obj} if isinstance(obj, list) else obj)


def read_terms(path) -> dict:
    return _terms_from_json(_read(path))


def json_text(doc) -> str:
    """``doc`` as covnet writes JSON to stdout and to files."""
    return json.dumps(doc, indent=1)


def write_json(path, doc) -> None:
    with open(path, "w") as fh:
        fh.write(json_text(doc))


def write_csv(path, batch) -> None:
    """The samples of a ``gaussian.SampleBatch``, one CSV row each."""
    np.savetxt(path, batch.samples, delimiter=",")
