import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublap.algebra import LieAlgebra
from sublap.catalog import engel_group
from sublap.conformal import CommutationReport, analyze_commutation
from sublap.heisenberg import heisenberg_group
from sublap.operators import sublaplacian
from sublap.polynomial import Polynomial, PolyMap
from sublap.rational import Rat
from sublap.specfiles import (SpecFileError, frames_from_dict, group_from_dict,
                              group_parts_from_dict,
                              group_to_dict, identity_from_dict, load_group,
                              load_pair, load_polymap, operator_to_dict,
                              pair_from_dict, polymap_from_dict,
                              polymap_to_dict, report_to_dict)

H1_DOC = {
    "dim": 3,
    "brackets": [{"i": 1, "j": 2, "coeffs": {"3": 1}}],
    "polarization": [[1, 0, 0], [0, 1, 0]],
    "metric": [[1, 0], [0, 1]],
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
    return path


# ---------------------------------------------------------------------------
# groups


def test_group_round_trip():
    for group in (heisenberg_group(2, (1, 2)), engel_group()):
        doc = group_to_dict(group)
        back = group_from_dict(doc)
        assert back.algebra == group.algebra
        assert back.polarization.basis == group.polarization.basis
        assert back.metric.gram == group.metric.gram


def test_load_group(tmp_path):
    path = write(tmp_path, "h1.json", H1_DOC)
    group = load_group(path)
    assert group.dim == 3 and group.rank == 2 and group.step == 2


def test_rational_strings_in_files():
    doc = dict(H1_DOC, metric=[["1/4", 0], [0, "1/4"]])
    group = group_from_dict(doc)
    assert group.metric.gram == ((Rat(1, 4), Rat(0)), (Rat(0), Rat(1, 4)))


def test_missing_key_reports_field(tmp_path):
    doc = {k: v for k, v in H1_DOC.items() if k != "metric"}
    path = write(tmp_path, "broken.json", doc)
    with pytest.raises(SpecFileError, match="metric"):
        load_group(path)
    with pytest.raises(SpecFileError, match="broken.json"):
        load_group(path)


def test_bad_rational_reports_path():
    doc = dict(H1_DOC, metric=[["1/0", 0], [0, 1]])
    with pytest.raises(SpecFileError, match=r"metric\[1\]\[1\]"):
        group_from_dict(doc)
    doc = dict(H1_DOC, metric=[["pi", 0], [0, 1]])
    with pytest.raises(SpecFileError, match="bad rational"):
        group_from_dict(doc)


def test_rationals_follow_the_documented_grammar():
    # a JSON int, or a string "p" / "p/q" of ASCII digits with a sign on p
    for entry, value in ((3, Rat(3)), (-3, Rat(-3)), ("3", Rat(3)), ("+3", Rat(3)),
                         ("-6/8", Rat(-3, 4)), ("0/5", Rat(0))):
        group = group_from_dict(dict(H1_DOC, metric=[[1, entry], [entry, 25]]))
        assert group.metric.gram[0][1] == value
    for entry in ("1e3", "1e400", "-1E-2", "1.5", "inf", "nan", " 1/2", "1/2 ",
                  "1/-2", "1_000", "", "+", "3/", "\u0663", 1.5, 1e400, None, [1]):
        doc = dict(H1_DOC, metric=[[1, entry], [0, 1]])
        with pytest.raises(SpecFileError, match=r"field metric\[1\]\[2\]: bad rational"):
            group_from_dict(doc)
    with pytest.raises(SpecFileError, match=r"field omega\[1\]\[2\]: bad rational '1e400'"):
        pair_from_dict({"omega": [[0, "1e400"], ["-1e400", 0]], "gram": [[1, 0], [0, 1]]})


def test_bad_rationals_name_their_exact_field():
    # a zero denominator and a numerator past the int-string digit limit
    # match the grammar but are still bad rationals, named by their path
    too_long = "9" * 5000
    for entry in ("1/0", "-0/0", too_long, "1/" + too_long):
        with pytest.raises(SpecFileError, match=r"field polarization\[2\]\[3\]: bad rational"):
            group_from_dict(dict(H1_DOC, polarization=[[1, 0, 0], [0, 1, entry]]))
        with pytest.raises(SpecFileError, match=r"field brackets\[1\]\.coeffs\.3: bad rational"):
            group_from_dict(dict(H1_DOC, brackets=[{"i": 1, "j": 2, "coeffs": {"3": entry}}]))


def test_ragged_rows_rejected():
    doc = dict(H1_DOC, polarization=[[1, 0, 0], [0, 1]])
    with pytest.raises(SpecFileError, match="ragged"):
        group_from_dict(doc)


def test_invalid_json_reports_position(tmp_path):
    path = write(tmp_path, "bad.json", '{"dim": 3,\n  "brackets": }')
    with pytest.raises(SpecFileError, match="line 2"):
        load_group(path)


def test_missing_file_reports_name(tmp_path):
    with pytest.raises(SpecFileError, match="nope.json"):
        load_group(tmp_path / "nope.json")


def test_bracket_index_errors():
    doc = dict(H1_DOC, brackets=[{"i": 1, "j": 9, "coeffs": {"3": 1}}])
    with pytest.raises(SpecFileError, match="out of range"):
        group_from_dict(doc)
    doc = dict(H1_DOC, brackets=[{"i": 2, "j": 2, "coeffs": {"3": 1}}])
    with pytest.raises(SpecFileError, match="itself"):
        group_from_dict(doc)
    doc = dict(H1_DOC, brackets=[{"i": 1, "j": 2, "coeffs": {"9": 1}}])
    with pytest.raises(SpecFileError, match="out of range"):
        group_from_dict(doc)
    doc = dict(H1_DOC, brackets=[{"i": 1, "j": 2, "coeffs": {"3": 1}},
                                 {"i": 2, "j": 1, "coeffs": {"3": 1}}])
    with pytest.raises(SpecFileError, match="duplicate"):
        group_from_dict(doc)


def test_geometric_failures_are_spec_errors():
    doc = dict(H1_DOC, polarization=[[1, 0, 0]], metric=[[1]])
    with pytest.raises(SpecFileError, match="bracket generating"):
        group_from_dict(doc)
    doc = dict(H1_DOC, metric=[[1, 2], [2, 1]])
    with pytest.raises(SpecFileError, match="positive definite"):
        group_from_dict(doc)


def test_dim_must_be_positive():
    with pytest.raises(SpecFileError, match="dim"):
        group_from_dict(dict(H1_DOC, dim=0))
    with pytest.raises(SpecFileError, match="int"):
        group_from_dict(dict(H1_DOC, dim="three"))


def test_json_booleans_are_not_integers():
    # bool is an int subclass, so an unguarded isinstance check reads true as 1
    with pytest.raises(SpecFileError, match="field dim: expected int, got bool"):
        group_from_dict(dict(H1_DOC, dim=True))
    with pytest.raises(SpecFileError, match=r"brackets\[1\]\.i: expected int"):
        group_from_dict(dict(H1_DOC, brackets=[{"i": True, "j": 2, "coeffs": {"3": 1}}]))
    with pytest.raises(SpecFileError, match=r"metric\[2\]\[2\]"):
        group_from_dict(dict(H1_DOC, metric=[[1, 0], [0, True]]))
    with pytest.raises(SpecFileError, match="field source_dim: expected int"):
        polymap_from_dict({"source_dim": True, "components": ["x1"]})
    with pytest.raises(SpecFileError, match="field dim: expected int"):
        frames_from_dict({"dim": True, "frame_x": [[1]], "frame_y": [[1]]})
    with pytest.raises(SpecFileError, match="field lambda_sq: expected str/int"):
        identity_from_dict({"lambda_sq": True, "b": ["0"]}, 2, 1)


# ---------------------------------------------------------------------------
# maps, frames, pairs, identities


def test_polymap_round_trip(tmp_path):
    f = PolyMap.parse(["x1^2 - x2^2", "2*x1*x2"], 3)
    doc = polymap_to_dict(f)
    assert doc["source_dim"] == 3
    path = write(tmp_path, "map.json", doc)
    assert load_polymap(path) == f


def test_polymap_errors():
    with pytest.raises(SpecFileError, match=r"components\[2\]"):
        polymap_from_dict({"source_dim": 2, "components": ["x1", "x9"]})
    with pytest.raises(SpecFileError, match="non-empty"):
        polymap_from_dict({"source_dim": 2, "components": []})
    with pytest.raises(SpecFileError, match="polynomial string"):
        polymap_from_dict({"source_dim": 2, "components": [3]})
    with pytest.raises(SpecFileError, match="source_dim"):
        polymap_from_dict({"source_dim": 0, "components": ["1"]})


def test_frames_from_dict():
    fx, fy = frames_from_dict({
        "dim": 2,
        "frame_x": [[1, 0], [0, 1]],
        "frame_y": [["3/5", "4/5"], ["-4/5", "3/5"]],
    })
    assert fx == ((Rat(1), Rat(0)), (Rat(0), Rat(1)))
    assert fy[0] == (Rat(3, 5), Rat(4, 5))
    with pytest.raises(SpecFileError, match="frame_y"):
        frames_from_dict({"dim": 2, "frame_x": [[1, 0]]})


def test_pair_from_dict(tmp_path):
    doc = {"omega": [[0, 1], [-1, 0]], "gram": [[1, 0], [0, 4]]}
    omega, gram = pair_from_dict(doc)
    assert omega.matrix == ((Rat(0), Rat(1)), (Rat(-1), Rat(0)))
    assert gram.gram == ((Rat(1), Rat(0)), (Rat(0), Rat(4)))
    path = write(tmp_path, "pair.json", doc)
    assert load_pair(path)[0].matrix == omega.matrix
    with pytest.raises(SpecFileError, match="antisymmetric"):
        pair_from_dict({"omega": [[0, 1], [1, 0]], "gram": [[1, 0], [0, 1]]})


def test_identity_from_dict():
    lam, b = identity_from_dict({"lambda_sq": 4, "b": ["0", "0", "0"]}, 3, 3)
    assert lam == Polynomial.constant(Rat(4), 3)
    assert all(c.is_zero for c in b)
    lam, b = identity_from_dict(
        {"lambda_sq": "1/4*x1^2 + 1/4*x2^2", "b": ["0"]}, 3, 1)
    assert lam == Polynomial.parse("1/4*x1^2 + 1/4*x2^2", 3)
    with pytest.raises(SpecFileError, match="b must have 2"):
        identity_from_dict({"lambda_sq": 1, "b": ["0"]}, 3, 2)
    with pytest.raises(SpecFileError, match="lambda_sq"):
        identity_from_dict({"lambda_sq": "x9", "b": ["0"]}, 3, 1)


def test_identity_b_entries_are_typed_like_lambda_sq(monkeypatch):
    # each entry of b is a polynomial string or a JSON integer, as lambda_sq
    # is; anything else is named by its type before the tokenizer runs
    lam, b = identity_from_dict({"lambda_sq": 1, "b": [0, "0", 0]}, 3, 3)
    assert all(c.is_zero for c in b)
    parsed = []
    parse = Polynomial.parse
    monkeypatch.setattr(Polynomial, "parse", lambda text, nvars: parsed.append(text) or
                        parse(text, nvars))
    for bad, kind in ((True, "bool"), (None, "NoneType"), ([1], "list"), ({"1": 1}, "dict"),
                      (1.5, "float")):
        parsed.clear()
        with pytest.raises(SpecFileError) as err:
            identity_from_dict({"lambda_sq": 1, "b": ["0", bad, "0"]}, 3, 3, filename="i.json")
        assert str(err.value) == "i.json, field b[2]: expected str/int, got %s" % kind
        assert parsed == ["1", "0"]


# ---------------------------------------------------------------------------
# front-end branches


def test_group_file_without_brackets_is_abelian():
    group = group_from_dict({"dim": 2, "polarization": [[1, 0], [0, 1]],
                             "metric": [[1, 0], [0, 1]]})
    assert group.algebra == LieAlgebra.from_brackets(2, {})
    assert group.step == 1


def test_bracket_written_with_i_above_j_is_antisymmetric():
    flipped = dict(H1_DOC, brackets=[{"i": 2, "j": 1, "coeffs": {"3": 1}}])
    negated = dict(H1_DOC, brackets=[{"i": 1, "j": 2, "coeffs": {"3": -1}}])
    assert group_from_dict(flipped).algebra == group_from_dict(negated).algebra


@pytest.mark.parametrize("change, message", [
    ({"brackets": [[1, 2, 3]]}, r"field brackets\[1\]: expected an object"),
    ({"brackets": [{"i": 1, "j": 2, "coeffs": {"e3": 1}}]},
     r"field brackets\[1\]\.coeffs: bad basis index 'e3'"),
    ({"polarization": 7}, "field polarization: expected list, got int"),
    ({"polarization": []}, "field polarization: expected a non-empty list of rows"),
    ({"polarization": [[1, 0, 0], "0 1 0"]}, r"field polarization\[2\]: expected a list"),
    ({"polarization": [[1, 0], [0, 1]]}, "field polarization: expected 3 columns, got 2"),
    ({"metric": [[1, 0]]}, "field metric: expected 2 rows, got 1"),
    ({"metric": [[1, 0, 0], [0, 1, 0]]}, "field metric: expected 2 columns, got 3"),
])
def test_malformed_group_fields_name_the_field(change, message):
    with pytest.raises(SpecFileError, match="^h1.json, " + message):
        group_parts_from_dict(dict(H1_DOC, **change), filename="h1.json")


def test_bad_drift_component_names_its_index():
    with pytest.raises(SpecFileError, match=r"^ident.json, field b\[2\]: variable x9 exceeds"):
        identity_from_dict({"lambda_sq": 1, "b": ["0", "x9"]}, 3, 2, filename="ident.json")


# Documents for every loader, shaped as the loader expects so that draws
# reach its later checks, with one key then dropped or replaced by any JSON
# value in half of them.  Polynomial strings and rationals come from the
# grammar's characters, "/" included.
_TEXT = st.text(alphabet="x0123456789+-*/^() ", max_size=12)
_RAT = st.one_of(st.integers(-3, 3), st.text("0123456789/-", min_size=1, max_size=4))
_JSON = st.recursive(st.one_of(st.none(), st.booleans(), st.integers(-3, 5), _TEXT),
                     lambda inner: st.one_of(st.lists(inner, max_size=3),
                                             st.dictionaries(st.text("ij0123", max_size=3),
                                                             inner, max_size=3)),
                     max_leaves=8)


def _matrix(rows, cols):
    return st.lists(st.lists(_RAT, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def _documents(draw, shaped):
    doc = draw(shaped)
    key = draw(st.sampled_from(sorted(doc)))
    change = draw(st.sampled_from(["keep", "keep", "drop", "replace"]))
    if change == "drop":
        del doc[key]
    elif change == "replace":
        doc[key] = draw(_JSON)
    return doc


@st.composite
def _group_docs(draw):
    dim = draw(st.integers(1, 4))
    rank = draw(st.integers(1, dim))
    index = st.integers(1, dim)
    brackets = []
    for i, j in draw(st.lists(st.tuples(index, index), max_size=3)):
        coeffs = draw(st.dictionaries(index.map(str), _RAT, max_size=2))
        brackets.append({"i": i, "j": j if draw(st.integers(0, 3)) else i, "coeffs": coeffs})
    return {"dim": dim, "brackets": brackets,
            "polarization": draw(_matrix(rank, dim)), "metric": draw(_matrix(rank, rank))}


@st.composite
def _frame_docs(draw):
    dim, nx, ny = (draw(st.integers(1, 3)) for _ in range(3))
    return {"dim": dim, "frame_x": draw(_matrix(nx, dim)), "frame_y": draw(_matrix(ny, dim))}


@st.composite
def _pair_docs(draw):
    size = draw(st.sampled_from([1, 2, 2, 4]))
    return {"omega": draw(_matrix(size, size)), "gram": draw(_matrix(size, size))}


_LOADERS = {
    "group": (lambda doc: group_from_dict(doc, filename="g.json"), _group_docs()),
    "polymap": (lambda doc: polymap_from_dict(doc, filename="m.json"),
                st.fixed_dictionaries({"source_dim": st.integers(1, 3),
                                       "components": st.lists(_TEXT, min_size=1, max_size=3)})),
    "frames": (lambda doc: frames_from_dict(doc, filename="f.json"), _frame_docs()),
    "pair": (lambda doc: pair_from_dict(doc, filename="p.json"), _pair_docs()),
    "identity": (lambda doc: identity_from_dict(doc, 3, 2, filename="i.json"),
                 st.fixed_dictionaries({"lambda_sq": st.one_of(_TEXT, st.integers(-3, 3)),
                                        "b": st.lists(_TEXT, min_size=2, max_size=2)})),
}


@pytest.mark.parametrize("name", sorted(_LOADERS))
def test_loaders_raise_only_spec_file_errors(name):
    load, shaped = _LOADERS[name]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_documents(shaped))
    def check(doc):
        try:
            load(doc)
        except SpecFileError:
            pass

    check()


# ---------------------------------------------------------------------------
# structured output


def test_operator_to_dict():
    doc = operator_to_dict(sublaplacian(heisenberg_group(1, (1,))))
    assert doc["dim"] == 3
    assert doc["second_order"][0] == ["1", "0", "-1/2*x2"]
    assert doc["second_order"][2][2] == "1/4*x1^2 + 1/4*x2^2"
    assert doc["first_order"] == ["0", "0", "0"]
    assert doc["zero_order"] == "0"
    json.dumps(doc)  # serializable


def test_report_to_dict(h1, r2):
    good = analyze_commutation(PolyMap.parse(["x1", "x2"], 3), h1, r2)
    doc = report_to_dict(good)
    assert doc["contact"] and doc["conformal"]
    assert doc["lambda_sq"] == "1"
    assert doc["b"] == ["0", "0"]
    assert doc["residuals"] == [] and doc["reason"] == ""
    json.dumps(doc)

    bad = analyze_commutation(PolyMap.parse(["x1", "2*x2"], 2), r2, r2)
    doc = report_to_dict(bad)
    assert doc["contact"] and not doc["conformal"]
    assert doc["lambda_sq"] is None and doc["b"] is None
    assert doc["residuals"] == ["3"]
    assert "cometric" in doc["reason"]
    json.dumps(doc)
