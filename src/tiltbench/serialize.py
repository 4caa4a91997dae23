"""JSON formats for algebras, modules, complexes, and reports.

All files carry a top-level ``"format": 1``, and a file whose ``"format"``
is anything else is refused.  Scalars serialize as decimal strings ``"p/q"``
or ``"p"``; these and JSON integers are the only scalar forms read.  An
algebra reference is either an inline algebra object or a string path
relative to the referencing file.
"""

from __future__ import annotations

import json
import os
import re

from .algebra import BasicAlgebra, build_path_algebra, el_add, el_scale
from .complexes import ProjComplex
from .errors import TiltbenchError
from .linalg import Matrix, frac
from .quiver import Quiver, Relation, path_from_arrows, trivial_path
from .reps import Representation

FORMAT = 1
_SCALAR = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _expect(value, kind, field):
    """value, when it is a JSON object (kind dict) or array (kind list);
    otherwise a TiltbenchError naming the field."""
    if not isinstance(value, kind):
        shape = "object" if kind is dict else "array"
        raise TiltbenchError(f"{field}: expected a JSON {shape}, got {json.dumps(value)[:60]}")
    return value


def _file_object(d, field):
    """d, when it is a JSON object whose "format", if present, is FORMAT;
    otherwise a TiltbenchError naming the field."""
    version = _expect(d, dict, field).get("format", FORMAT)
    if type(version) is not int or version != FORMAT:
        raise TiltbenchError(f"{field}.format: unsupported file format {json.dumps(version)[:60]}, expected {FORMAT}")
    return d


def _field(d, key, field, kind=None, default=None):
    """d[key], checked with ``_expect`` when kind is given; the default when
    the key is absent and a default is given; otherwise a TiltbenchError
    naming the missing field."""
    if key not in d:
        if default is None:
            raise TiltbenchError(f"missing field {field!r}")
        return default
    return d[key] if kind is None else _expect(d[key], kind, field)


def _integer(v, field):
    """v as an int: a JSON integer, or a string that ``int`` reads;
    otherwise a TiltbenchError naming the field."""
    if type(v) is int:
        return v
    if type(v) is str:
        try:
            return int(v)
        except ValueError:  # not decimal digits, or too many of them
            pass
    raise TiltbenchError(f"{field}: expected an integer, got {json.dumps(v)[:60]}")


def scalar_to_str(c) -> str:
    return str(frac(c))


def scalar_from_str(s, field="scalar"):
    """The rational number s: a JSON integer, or a ``"p"`` or ``"p/q"``
    string of decimal digits with an optional sign; otherwise a
    TiltbenchError naming the field.  No other form is read, so no exponent
    such as ``"1e10000000"`` is ever expanded."""
    if type(s) is int:
        return s
    if type(s) is str and _SCALAR.fullmatch(s):
        try:
            return frac(s)
        except (ValueError, ZeroDivisionError):  # a zero denominator, or too many digits
            pass
    raise TiltbenchError(f"{field}: not a rational number: {json.dumps(s)[:60]}")


# -- algebras -----------------------------------------------------------------


def quiver_to_dict(q: Quiver) -> dict:
    return {
        "vertices": list(q.vertices),
        "arrows": [{"name": a.name, "from": a.source, "to": a.target} for a in q.arrows],
    }


def quiver_from_dict(d) -> Quiver:
    _expect(d, dict, "quiver")
    arrows = []
    for n, a in enumerate(_field(d, "arrows", "quiver.arrows", list)):
        where = f"quiver.arrows[{n}]"
        _expect(a, dict, where)
        arrows.append(tuple(_field(a, key, f"{where}.{key}") for key in ("name", "from", "to")))
    return Quiver(_field(d, "vertices", "quiver.vertices", list), arrows)


def relation_to_terms(rel: Relation) -> list:
    return [{"coeff": scalar_to_str(c), "path": list(p.arrows)} for c, p in rel.terms]


def relation_from_terms(q: Quiver, terms, field="relation") -> Relation:
    parsed = []
    for n, t in enumerate(_expect(terms, list, field)):
        where = f"{field}[{n}]"
        c = scalar_from_str(_field(_expect(t, dict, where), "coeff", f"{where}.coeff"), f"{where}.coeff")
        if c == 0:
            continue
        parsed.append((c, path_from_arrows(q, _field(t, "path", f"{where}.path", list))))
    return Relation(q, parsed)


def algebra_to_dict(a: BasicAlgebra) -> dict:
    return {
        "format": FORMAT,
        "field": "rational",
        "quiver": quiver_to_dict(a.quiver),
        "relations": [relation_to_terms(r) for r in a.relations],
    }


def algebra_from_dict(d, max_path_len: int = 30) -> BasicAlgebra:
    if _file_object(d, "algebra").get("field", "rational") != "rational":
        raise TiltbenchError(f"unsupported field {d.get('field')!r}")
    q = quiver_from_dict(_field(d, "quiver", "quiver"))
    relations = _field(d, "relations", "relations", list, [])
    rels = [relation_from_terms(q, terms, f"relations[{n}]") for n, terms in enumerate(relations)]
    return build_path_algebra(q, rels, max_path_len)


def _resolve_algebra(ref, base_dir) -> BasicAlgebra:
    if isinstance(ref, str):
        path = ref if os.path.isabs(ref) else os.path.join(base_dir, ref)
        return load_algebra(path)
    return algebra_from_dict(ref)


# -- elements and complexes ----------------------------------------------------


def element_to_terms(a: BasicAlgebra, x: dict) -> list:
    out = []
    for k in sorted(x):
        c = x[k]
        if c:
            out.append({"coeff": scalar_to_str(c), "path": list(a.basis[k].arrows)})
    return out


def element_from_terms(a: BasicAlgebra, terms, src_label: str, tgt_label: str, field="entry") -> dict:
    """Entry of a hom between projectives: paths from tgt_label to src_label."""
    out = {}
    for n, t in enumerate(_expect(terms, list, field)):
        where = f"{field}[{n}]"
        c = scalar_from_str(_field(_expect(t, dict, where), "coeff", f"{where}.coeff"), f"{where}.coeff")
        if c == 0:
            continue
        word = list(_field(t, "path", f"{where}.path", list))
        if word:
            p = path_from_arrows(a.quiver, word)
        else:
            if src_label != tgt_label:
                raise TiltbenchError("trivial path entry needs equal labels")
            p = trivial_path(tgt_label)
        if p.source != tgt_label or p.target(a.quiver) != src_label:
            raise TiltbenchError(
                f"entry path {word} does not run from {tgt_label} to {src_label}"
            )
        out = el_add(out, el_scale(c, {a.index[q]: d for q, d in a._reduce_raw(p).items()}))
    return out


def complex_to_dict(c: ProjComplex, algebra_ref=None) -> dict:
    return {
        "format": FORMAT,
        "algebra": algebra_ref if algebra_ref is not None else algebra_to_dict(c.algebra),
        "terms": {str(d): list(c.term(d)) for d in c.degrees()},
        "diffs": {
            str(d): [
                [element_to_terms(c.algebra, x) for x in row] for row in c.diffs[d].rows
            ]
            for d in sorted(c.diffs)
        },
    }


def complex_from_dict(d, base_dir=".", algebra=None) -> ProjComplex:
    _file_object(d, "complex")
    a = algebra if algebra is not None else _resolve_algebra(_field(d, "algebra", "algebra"), base_dir)
    terms = {
        _integer(k, f"terms.{k}"): [str(x) for x in _expect(v, list, f"terms.{k}")]
        for k, v in _field(d, "terms", "terms", dict).items()
    }
    diffs = {}
    for k, mat in _field(d, "diffs", "diffs", dict, {}).items():
        deg = _integer(k, f"diffs.{k}")
        src = terms.get(deg, [])
        tgt = terms.get(deg + 1, [])
        rows = [_expect(row, list, f"diffs.{k}[{i}]") for i, row in enumerate(_expect(mat, list, f"diffs.{k}"))]
        if len(rows) != len(src):
            raise TiltbenchError(f"diffs.{k}: {len(rows)} rows, but degree {deg} has {len(src)} summands")
        for i, row in enumerate(rows):
            if len(row) != len(tgt):
                raise TiltbenchError(
                    f"diffs.{k}[{i}]: {len(row)} entries, but degree {deg + 1} has {len(tgt)} summands"
                )
        diffs[deg] = [
            [element_from_terms(a, entry, src[i], tgt[j], f"diffs.{k}[{i}][{j}]") for j, entry in enumerate(row)]
            for i, row in enumerate(rows)
        ]
    return ProjComplex(a, terms, diffs)


# -- modules -------------------------------------------------------------------


def module_to_dict(m: Representation, algebra_ref=None) -> dict:
    return {
        "format": FORMAT,
        "algebra": algebra_ref if algebra_ref is not None else algebra_to_dict(m.algebra),
        "dims": {v: m.dims[v] for v in m.algebra.quiver.vertices if m.dims[v]},
        "arrows": {
            ar.name: [[scalar_to_str(x) for x in row] for row in m.mats[ar.name].data]
            for ar in m.algebra.quiver.arrows
            if m.dims[ar.source] and m.dims[ar.target]
        },
    }


def module_from_dict(d, base_dir=".", algebra=None) -> Representation:
    _file_object(d, "module")
    a = algebra if algebra is not None else _resolve_algebra(_field(d, "algebra", "algebra"), base_dir)
    dims = {}
    for k, v in _field(d, "dims", "dims", dict).items():
        n = _integer(v, f"dims.{k}")
        if n < 0:
            raise TiltbenchError(f"dims.{k}: expected a nonnegative integer, got {n}")
        if str(k) not in a.quiver.vertex_index:
            raise TiltbenchError(f"dims.{k}: the quiver has no vertex {k!r}")
        dims[str(k)] = n
    mats = {}
    for name, rows in _field(d, "arrows", "arrows", dict, {}).items():
        ar = a.quiver.arrow_by_name.get(name)
        if ar is None:
            raise TiltbenchError(f"unknown arrow {name!r} in module file")
        data = [
            [
                scalar_from_str(x, f"arrows.{name}[{i}][{j}]")
                for j, x in enumerate(_expect(row, list, f"arrows.{name}[{i}]"))
            ]
            for i, row in enumerate(_expect(rows, list, f"arrows.{name}"))
        ]
        shape = (dims.get(ar.source, 0), dims.get(ar.target, 0))
        if len(data) != shape[0] or any(len(row) != shape[1] for row in data):
            raise TiltbenchError(f"arrows.{name}: expected a {shape[0]}x{shape[1]} matrix, as dims give")
        mats[name] = Matrix(*shape, data)
    return Representation(a, dims, mats)


# -- file IO -------------------------------------------------------------------


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def save(obj, path: str):
    with open(path, "w") as fh:
        fh.write(dumps(obj))


def load_json(path: str):
    """The JSON value in the file at path.  Malformed JSON, a JSON integer
    longer than Python reads included, is a TiltbenchError naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise TiltbenchError(f"{path}: not valid JSON: {exc}") from None


def load_json_str(text: str):
    return json.loads(text)


def load_algebra(path: str, max_path_len: int = 30) -> BasicAlgebra:
    return algebra_from_dict(load_json(path), max_path_len)


def load_complex(path: str, algebra=None) -> ProjComplex:
    return complex_from_dict(load_json(path), os.path.dirname(path) or ".", algebra)


def load_module(path: str, algebra=None) -> Representation:
    return module_from_dict(load_json(path), os.path.dirname(path) or ".", algebra)
