"""JSON descriptions of groups, maps, frames and symplectic pairs.

All indices in files are 1-based (basis vectors e1..en, variables x1..xn);
rationals are JSON integers or strings "p" or "p/q" (digits with an optional
sign on p; no spaces, decimals or exponents).  Loaders raise
SpecFileError with the file name and the offending field path.
"""

from __future__ import annotations

import json
import re

from .algebra import LieAlgebra, Metric, SubRiemannianGroup, subriemannian_group
from .conformal import CommutationReport
from .heisenberg import SymplecticForm
from .operators import DifferentialOperator
from .polynomial import Polynomial, PolyMap
from .rational import Rat, rat_str


class SpecFileError(ValueError):
    """A description file is malformed; the message carries file and field."""

    def __init__(self, message, filename=None, field=None):
        self.filename = filename
        self.field = field
        where = []
        if filename:
            where.append(str(filename))
        if field:
            where.append("field %s" % field)
        prefix = ("%s: " % ", ".join(where)) if where else ""
        super().__init__(prefix + message)


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecFileError(str(exc), filename=path)
    except json.JSONDecodeError as exc:
        raise SpecFileError("invalid JSON at line %d column %d: %s"
                            % (exc.lineno, exc.colno, exc.msg), filename=path)
    except UnicodeDecodeError as exc:
        raise SpecFileError("file is not valid UTF-8: %s" % exc.reason, filename=path)
    except ValueError:
        # json.load raises a plain ValueError only for an integer literal
        # past the interpreter's int-string digit limit
        raise SpecFileError("invalid JSON: integer literal too long", filename=path)
    except RecursionError:
        raise SpecFileError("invalid JSON: nested too deeply", filename=path)


def _get(doc, key, kind, field, filename, optional=False, default=None):
    if key not in doc:
        if optional:
            return default
        raise SpecFileError("missing required key '%s'" % key,
                            filename=filename, field=field)
    return _typed(doc[key], kind, "%s.%s" % (field, key) if field else key, filename)


def _typed(value, kind, field, filename):
    """value, when it is an instance of kind (a type or a tuple of types)
    and not a boolean; a SpecFileError on field otherwise."""
    # JSON true/false load as bool, a subclass of int: never a count or index
    if not isinstance(value, kind) or isinstance(value, bool):
        names = kind.__name__ if not isinstance(kind, tuple) else \
            "/".join(k.__name__ for k in kind)
        raise SpecFileError("expected %s, got %s" % (names, type(value).__name__),
                            filename=filename, field=field)
    return value


# the rational grammar of string entries: an integer or p/q, no spaces
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _parse_rat(value, field, filename, index=()):
    """A JSON int (not a boolean) or a string matching _RATIONAL; anything
    else, exponent and decimal notation included, is a bad rational.  The
    error's field is field followed by [i + 1] for each i in index."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Rat(value)
    match = _RATIONAL.fullmatch(value) if isinstance(value, str) else None
    if match:
        p, q = match.groups()
        try:
            # int() refuses digits past the int-string limit; q = 0 divides by zero
            return Rat(int(p), int(q or 1))
        except (ValueError, ZeroDivisionError):
            pass
    raise SpecFileError("bad rational %r" % (value,), filename=filename,
                        field=field + "".join("[%d]" % (i + 1) for i in index))


def _parse_matrix(doc, field, filename, nrows=None, ncols=None):
    """The non-empty list of rational rows under the top-level key field."""
    rows = _get(doc, field, list, "", filename)
    if not rows:
        raise SpecFileError("expected a non-empty list of rows",
                            filename=filename, field=field)
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise SpecFileError("expected a list", filename=filename,
                                field="%s[%d]" % (field, i + 1))
        if len(row) != len(rows[0]):  # rows[0] passed the test above
            raise SpecFileError("ragged rows", filename=filename,
                                field="%s[%d]" % (field, i + 1))
        out.append(tuple(_parse_rat(v, field, filename, (i, j)) for j, v in enumerate(row)))
    if nrows is not None and len(out) != nrows:
        raise SpecFileError("expected %d rows, got %d" % (nrows, len(out)),
                            filename=filename, field=field)
    if ncols is not None and len(rows[0]) != ncols:
        raise SpecFileError("expected %d columns, got %d" % (ncols, len(rows[0])),
                            filename=filename, field=field)
    return tuple(out)


def _parse_poly_field(text, nvars, field, filename):
    try:
        return Polynomial.parse(str(text), nvars)
    except ValueError as exc:
        raise SpecFileError(str(exc), filename=filename, field=field)


# ---------------------------------------------------------------------------
# groups


def group_parts_from_dict(doc, filename=None):
    """Parse a group file into (algebra, polarization rows, gram rows)
    without running any geometric checks; raises SpecFileError only for
    structural problems with the file itself."""
    dim = _get(doc, "dim", int, "", filename)
    if dim < 1:
        raise SpecFileError("dim must be positive", filename=filename, field="dim")
    brackets = {}
    for t, entry in enumerate(_get(doc, "brackets", list, "", filename,
                                   optional=True, default=[])):
        field = "brackets[%d]" % (t + 1)
        if not isinstance(entry, dict):
            raise SpecFileError("expected an object", filename=filename, field=field)
        i = _get(entry, "i", int, field, filename)
        j = _get(entry, "j", int, field, filename)
        coeffs = _get(entry, "coeffs", dict, field, filename)
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise SpecFileError("indices out of range 1..%d" % dim,
                                filename=filename, field=field)
        if i == j:
            raise SpecFileError("bracket of a vector with itself",
                                filename=filename, field=field)
        parsed = {}
        for k, v in coeffs.items():
            try:
                ki = int(k)
            except ValueError:
                raise SpecFileError("bad basis index %r" % k, filename=filename,
                                    field=field + ".coeffs")
            if not 1 <= ki <= dim:
                raise SpecFileError("basis index %s out of range 1..%d" % (k, dim),
                                    filename=filename, field=field + ".coeffs")
            parsed[ki - 1] = _parse_rat(v, "%s.coeffs.%s" % (field, k), filename)
        key = (i - 1, j - 1)
        if key in brackets or (j - 1, i - 1) in brackets:
            raise SpecFileError("duplicate bracket (%d, %d)" % (i, j),
                                filename=filename, field=field)
        brackets[key] = parsed
    try:
        alg = LieAlgebra.from_brackets(dim, brackets)
    except ValueError as exc:
        raise SpecFileError(str(exc), filename=filename, field="brackets")
    pol = _parse_matrix(doc, "polarization", filename, ncols=dim)
    gram = _parse_matrix(doc, "metric", filename, nrows=len(pol), ncols=len(pol))
    return alg, pol, gram


def group_from_dict(doc, filename=None) -> SubRiemannianGroup:
    alg, pol, gram = group_parts_from_dict(doc, filename=filename)
    try:
        return subriemannian_group(alg, pol, gram)
    except ValueError as exc:
        raise SpecFileError(str(exc), filename=filename)


def load_group(path) -> SubRiemannianGroup:
    return group_from_dict(_load_json(path), filename=path)


def load_group_parts(path):
    return group_parts_from_dict(_load_json(path), filename=path)


def group_to_dict(group: SubRiemannianGroup) -> dict:
    brackets = []
    by_pair = {}
    for (i, j, k), c in group.algebra.raw_table().items():
        by_pair.setdefault((i, j), {})[k] = c
    for (i, j), coeffs in sorted(by_pair.items()):
        brackets.append({
            "i": i + 1, "j": j + 1,
            "coeffs": {str(k + 1): rat_str(c) for k, c in sorted(coeffs.items())},
        })
    return {
        "dim": group.dim,
        "brackets": brackets,
        "polarization": [[rat_str(v) for v in row] for row in group.polarization.basis],
        "metric": [[rat_str(v) for v in row] for row in group.metric.gram],
    }


# ---------------------------------------------------------------------------
# polynomial maps


def polymap_from_dict(doc, filename=None, shape=None) -> PolyMap:
    """The map of a map file; shape, the (source, target) dims of the groups
    it joins, is checked first, as each variable has source_dim exponents."""
    source_dim = _get(doc, "source_dim", int, "", filename)
    if source_dim < 1:
        raise SpecFileError("source_dim must be positive",
                            filename=filename, field="source_dim")
    comps = _get(doc, "components", list, "", filename)
    if not comps:
        raise SpecFileError("components must be non-empty",
                            filename=filename, field="components")
    if shape is not None and (source_dim, len(comps)) != tuple(shape):
        raise SpecFileError("map shape %d->%d does not match groups %d->%d"
                            % (source_dim, len(comps), *shape), filename=filename)
    parsed = []
    for i, text in enumerate(comps):
        field = "components[%d]" % (i + 1)
        if not isinstance(text, str):
            raise SpecFileError("expected a polynomial string",
                                filename=filename, field=field)
        parsed.append(_parse_poly_field(text, source_dim, field, filename))
    return PolyMap(source_dim, tuple(parsed))


def load_polymap(path, shape=None) -> PolyMap:
    return polymap_from_dict(_load_json(path), filename=path, shape=shape)


def polymap_to_dict(pmap: PolyMap) -> dict:
    return {"source_dim": pmap.source_dim,
            "components": [str(c) for c in pmap.components]}


# ---------------------------------------------------------------------------
# frames


def frames_from_dict(doc, filename=None):
    dim = _get(doc, "dim", int, "", filename)
    return (_parse_matrix(doc, "frame_x", filename, ncols=dim),
            _parse_matrix(doc, "frame_y", filename, ncols=dim))


def load_frames(path):
    return frames_from_dict(_load_json(path), filename=path)


# ---------------------------------------------------------------------------
# symplectic pairs


def pair_from_dict(doc, filename=None):
    omega = _parse_matrix(doc, "omega", filename)
    gram = _parse_matrix(doc, "gram", filename)
    try:
        return SymplecticForm(omega), Metric(gram)
    except ValueError as exc:
        raise SpecFileError(str(exc), filename=filename)


def load_pair(path):
    return pair_from_dict(_load_json(path), filename=path)


# ---------------------------------------------------------------------------
# commutation identities (lambda_sq, b) for the verifier


def identity_from_dict(doc, source_dim, target_dim, filename=None):
    lam_text = _get(doc, "lambda_sq", (str, int), "", filename)
    lam = _parse_poly_field(lam_text, source_dim, "lambda_sq", filename)
    b_texts = _get(doc, "b", list, "", filename)
    if len(b_texts) != target_dim:
        raise SpecFileError("b must have %d components" % target_dim,
                            filename=filename, field="b")
    b = tuple(_parse_poly_field(_typed(text, (str, int), "b[%d]" % i, filename),
                                source_dim, "b[%d]" % i, filename)
              for i, text in enumerate(b_texts, start=1))
    return lam, b


def load_identity(path, source_dim, target_dim):
    return identity_from_dict(_load_json(path), source_dim, target_dim,
                              filename=path)


# ---------------------------------------------------------------------------
# structured output


def operator_to_dict(op: DifferentialOperator) -> dict:
    """The operator's tables as strings, each entry of the symmetric
    second-order table on or above the diagonal formatted once, mirrored."""
    upper = [[str(x) for x in row[i:]] for i, row in enumerate(op.second_order)]
    return {
        "dim": op.dim,
        "second_order": [[upper[min(i, j)][abs(i - j)] for j in range(op.dim)]
                         for i in range(op.dim)],
        "first_order": [str(e) for e in op.first_order],
        "zero_order": str(op.zero_order),
    }


def report_to_dict(report: CommutationReport) -> dict:
    return {
        "contact": report.contact,
        "conformal": report.conformal,
        "lambda_sq": str(report.lambda_sq) if report.lambda_sq is not None else None,
        "b": [str(c) for c in report.b] if report.b is not None else None,
        "probe_degree": report.probe_degree,
        "residuals": [str(r) for r in report.residuals],
        "reason": report.reason,
    }
