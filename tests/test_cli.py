import json
from math import comb
from pathlib import Path

import pytest

from conftest import gallery
from sublap import specfiles
from sublap.cli import COMMANDS, RunConfig, build_parser, main, run
from sublap.polynomial import COEFF_BIT_BUDGET, TERM_BUDGET, Polynomial
from sublap.specfiles import group_to_dict, polymap_to_dict
from sublap.heisenberg import heisenberg_group
from sublap.catalog import engel_group

H1_DOC = {
    "dim": 3,
    "brackets": [{"i": 1, "j": 2, "coeffs": {"3": 1}}],
    "polarization": [[1, 0, 0], [0, 1, 0]],
    "metric": [[1, 0], [0, 1]],
}

R2_DOC = {
    "dim": 2,
    "brackets": [],
    "polarization": [[1, 0], [0, 1]],
    "metric": [[1, 0], [0, 1]],
}

SL2_DOC = {
    "dim": 3,
    "brackets": [
        {"i": 1, "j": 2, "coeffs": {"3": 1}},
        {"i": 1, "j": 3, "coeffs": {"1": -2}},
        {"i": 2, "j": 3, "coeffs": {"2": 2}},
    ],
    "polarization": [[1, 0, 0], [0, 1, 0]],
    "metric": [[1, 0], [0, 1]],
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc) if not isinstance(doc, str) else doc)
    return str(path)


def run_main(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# validate


def test_validate_good_group(tmp_path, capsys):
    path = write(tmp_path, "h1.json", H1_DOC)
    code, doc = run_json(capsys, ["validate", path])
    assert code == 0
    assert doc["verdict"] == "valid"
    assert doc["dim"] == 3 and doc["rank"] == 2 and doc["step"] == 2


def test_validate_flags_bad_structure_constants(tmp_path, capsys):
    # storing both orientations with non-mirrored values
    doc = dict(H1_DOC, brackets=[
        {"i": 1, "j": 2, "coeffs": {"3": 1}},
        {"i": 2, "j": 1, "coeffs": {"3": 1}},
    ])
    # duplicate pair is a file error, not an algebra error
    path = write(tmp_path, "dup.json", doc)
    code, out = run_main(capsys, ["validate", path])
    assert code == 2
    assert "duplicate" in out

    # a Jacobi violation is a negative verdict with 1-based indices
    bad = dict(H1_DOC, brackets=[
        {"i": 1, "j": 2, "coeffs": {"3": 1}},
        {"i": 1, "j": 3, "coeffs": {"1": 1}},
    ])
    path = write(tmp_path, "jacobi.json", bad)
    code, doc = run_json(capsys, ["validate", path])
    assert code == 1
    assert doc["verdict"] == "invalid"
    assert doc["jacobi_violations"] == [[1, 2, 3]]


def test_validate_checks_the_algebra_once(tmp_path, capsys, monkeypatch):
    # the report comes from the group constructor's own validate, so CLI
    # validate of a valid file checks the algebra once
    import sys
    from sublap import algebra
    original, calls = algebra.validate, []

    def counted(alg):
        calls.append(alg)
        return original(alg)

    for name, module in list(sys.modules.items()):
        if name == "sublap" or name.startswith("sublap."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    path = write(tmp_path, "h1.json", H1_DOC)
    assert run_main(capsys, ["validate", path])[0] == 0
    assert len(calls) == 1


def test_validate_flags_non_generating_polarization(tmp_path, capsys):
    doc = dict(H1_DOC, polarization=[[1, 0, 0]], metric=[[1]])
    path = write(tmp_path, "thin.json", doc)
    code, doc = run_json(capsys, ["validate", path])
    assert code == 1
    assert doc["verdict"] == "invalid"
    assert "bracket generating" in doc["reason"]


def test_validate_malformed_file(tmp_path, capsys):
    path = write(tmp_path, "broken.json", '{"dim": 3, "brackets": [}')
    code, out = run_main(capsys, ["validate", path])
    assert code == 2
    assert "verdict: error" in out
    assert "line 1" in out
    missing = {k: v for k, v in H1_DOC.items() if k != "polarization"}
    path = write(tmp_path, "missing.json", missing)
    code, out = run_main(capsys, ["validate", path])
    assert code == 2
    assert "polarization" in out


@pytest.mark.parametrize("content, message", [
    # a metric entry of 5000 digits, past Python's int-string limit
    (json.dumps(H1_DOC).replace('"metric": [[1', '"metric": [[1' + "0" * 4999).encode(),
     "integer literal too long"),
    (b'{"dim": 3, "brackets": [\xff]}', "not valid UTF-8"),
    (b"[" * 200000, "nested too deeply"),
], ids=["huge-int", "invalid-utf8", "deep-nesting"])
def test_validate_unreadable_json_is_input_error(tmp_path, capsys, content, message):
    path = tmp_path / "group.json"
    path.write_bytes(content)
    code, out = run_main(capsys, ["validate", str(path)])
    assert code == 2
    assert "verdict: error" in out
    assert "%s: " % path in out and message in out


# ---------------------------------------------------------------------------
# stratify / sublaplacian


def test_stratify(tmp_path, capsys):
    path = write(tmp_path, "engel.json", group_to_dict(engel_group()))
    code, doc = run_json(capsys, ["stratify", path])
    assert code == 0
    assert doc["verdict"] == "stratified"
    assert doc["layer_dims"] == [2, 1, 1]


def test_stratify_failure(tmp_path, capsys):
    doc = {
        "dim": 3,
        "brackets": [{"i": 1, "j": 2, "coeffs": {"3": 1}}],
        "polarization": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "metric": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    }
    path = write(tmp_path, "full.json", doc)
    code, out = run_main(capsys, ["stratify", path])
    assert code == 1
    assert "not-stratifiable" in out


def test_stratify_non_nilpotent(tmp_path, capsys):
    # sl2 has no strata, so the report carries the reason stratify gives
    path = write(tmp_path, "sl2.json", SL2_DOC)
    code, out = run_main(capsys, ["stratify", path])
    assert (code, out) == (1, "verdict: not-stratifiable\n"
                              "reason: brackets of layer 2 fold back into lower layers\n")


def test_sublaplacian_text_and_json(tmp_path, capsys):
    path = write(tmp_path, "h1.json", H1_DOC)
    code, out = run_main(capsys, ["sublaplacian", path])
    assert code == 0
    assert "d1 d1: 1" in out
    assert "d1 d3: -1/2*x2" in out
    assert "d3 d3: 1/4*x1^2 + 1/4*x2^2" in out
    code, doc = run_json(capsys, ["sublaplacian", path])
    assert code == 0
    assert doc["operator"]["second_order"][1][2] == "1/2*x1"


def test_sublaplacian_rejects_non_nilpotent(tmp_path, capsys):
    path = write(tmp_path, "sl2.json", SL2_DOC)
    code, out = run_main(capsys, ["sublaplacian", path])
    assert code == 2
    assert "nilpotent" in out


def test_sublaplacian_of_a_large_step_group_is_fast(tmp_path, capsys):
    # the 14-dimensional model filiform group has step 13; its invariant
    # fields come from a series in ad_p, not from a 28-variable BCH product
    import time
    n = 14
    doc = {"dim": n,
           "brackets": [{"i": 1, "j": k, "coeffs": {str(k + 1): 1}} for k in range(2, n)],
           "polarization": [[1 if j == i else 0 for j in range(n)] for i in range(2)],
           "metric": [[1, 0], [0, 1]]}
    path = write(tmp_path, "filiform14.json", doc)
    start = time.perf_counter()
    code, out = run_main(capsys, ["sublaplacian", path])
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert "d1 d1: 1" in out


def test_sublaplacian_of_a_large_abelian_group_is_fast(tmp_path, capsys):
    # the dim-160 abelian group's horizontal frame is the identity matrix, and
    # the rational matrix products visit only its nonzero entries
    import time
    n = 160
    eye = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    path = write(tmp_path, "abelian160.json",
                 {"dim": n, "brackets": [], "polarization": eye, "metric": eye})
    start = time.perf_counter()
    code, out = run_main(capsys, ["sublaplacian", path])
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert out == "verdict: ok\n" + "".join("d%d d%d: 1\n" % (k, k) for k in range(1, n + 1))


@pytest.mark.parametrize("command", ["validate", "stratify"])
def test_structure_of_large_groups_is_fast(tmp_path, capsys, command):
    # the dim-160 abelian group has no brackets to take, and the dim-80 model
    # filiform group has step 79: each grows its filtration once, bracketing
    # only basis directions with a table row
    import time
    n = 80
    filiform = {"dim": n,
                "brackets": [{"i": 1, "j": k, "coeffs": {str(k + 1): 1}} for k in range(2, n)],
                "polarization": [[1 if j == i else 0 for j in range(n)] for i in range(2)],
                "metric": [[1, 0], [0, 1]]}
    eye = [[1 if j == i else 0 for j in range(160)] for i in range(160)]
    abelian = {"dim": 160, "brackets": [], "polarization": eye, "metric": eye}
    expected = {"validate": ("dim 160, polarization rank 160, step 1",
                             "dim 80, polarization rank 2, step 79"),
                "stratify": ("layer dims: [160]", "layer dims: [2%s]" % (", 1" * 78))}
    for doc, line in zip((abelian, filiform), expected[command]):
        path = write(tmp_path, "group.json", doc)
        start = time.perf_counter()
        code, out = run_main(capsys, [command, path])
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert line in out.splitlines()


# ---------------------------------------------------------------------------
# frames


def test_equiv_frames_positive(tmp_path, capsys):
    path = write(tmp_path, "frames.json", {
        "dim": 3,
        "frame_x": [[1, 0, 0], [0, 1, 0]],
        "frame_y": [["3/5", "4/5", 0], ["-4/5", "3/5", 0]],
    })
    code, doc = run_json(capsys, ["equiv-frames", path])
    assert code == 0
    assert doc["verdict"] == "equivalent"
    assert doc["witness"] == [["3/5", "4/5"], ["-4/5", "3/5"]]
    code, out = run_main(capsys, ["equiv-frames", path])
    assert "witness row: (3/5, 4/5)" in out


def test_equiv_frames_negative(tmp_path, capsys):
    path = write(tmp_path, "frames.json", {
        "dim": 2,
        "frame_x": [[1, 0], [0, 1]],
        "frame_y": [[1, 0], [0, 2]],
    })
    code, doc = run_json(capsys, ["equiv-frames", path])
    assert code == 1
    assert doc["verdict"] == "not-equivalent"
    assert "witness" not in doc


def test_equiv_frames_on_different_spans_are_not_equivalent(tmp_path, capsys):
    # frames of one size that span different lines are well-formed input:
    # their cometrics differ (the range of X^T X is the row space of X)
    path = write(tmp_path, "frames.json", {
        "dim": 2,
        "frame_x": [[1, 0]],
        "frame_y": [[0, 1]],
    })
    code, out = run_main(capsys, ["equiv-frames", path])
    assert code == 1
    assert out == "verdict: not-equivalent\n"
    code, doc = run_json(capsys, ["equiv-frames", path])
    assert code == 1
    assert doc == {"verdict": "not-equivalent"}


@pytest.mark.parametrize("dim, frame", [(0, [[]]), (-1, [[1]])])
def test_equiv_frames_dim_must_be_positive(tmp_path, capsys, dim, frame):
    # as in a group file: dim 0 would admit empty frames, and -1 was
    # reported against frame_x
    path = write(tmp_path, "frames.json", {"dim": dim, "frame_x": frame, "frame_y": frame})
    code, out = run_main(capsys, ["equiv-frames", path])
    assert code == 2
    assert "field dim: dim must be positive" in out


# ---------------------------------------------------------------------------
# heisenberg commands


def test_heis_spectrum(tmp_path, capsys):
    path = write(tmp_path, "pair.json",
                 {"omega": [[0, 1], [-1, 0]], "gram": [[1, 0], [0, 4]]})
    code, doc = run_json(capsys, ["heis-spectrum", path])
    assert code == 0
    assert doc["verdict"] == "ok"
    assert len(doc["spectrum"]) == 1
    assert abs(float(doc["spectrum"][0]) - 2 ** -0.5) < 1e-9
    assert doc["tolerance"] == 1e-9


@pytest.mark.parametrize("omega, gram, spectrum", [
    ([[0, 10 ** 400], [-10 ** 400, 0]], [[1, 0], [0, 1]], "1e+200"),
    ([[0, 1], [-1, 0]], [[10 ** 400, 0], [0, 10 ** 400]], "1e-200"),
    ([[0, 10 ** 400], [-10 ** 400, 0]], [[10 ** 400, 0], [0, 10 ** 400]], "1"),
])
def test_heis_commands_on_pairs_beyond_the_float_range(tmp_path, capsys, omega, gram, spectrum):
    # the floats come from copies rescaled exactly by powers of four, so no
    # float() overflows
    doc = {"omega": [[str(x) for x in row] for row in omega],
           "gram": [[str(x) for x in row] for row in gram]}
    path = write(tmp_path, "pair.json", doc)
    code, out = run_json(capsys, ["heis-spectrum", path])
    assert (code, out["spectrum"]) == (0, [spectrum])
    code, out = run_json(capsys, ["heis-isometry", path, path])
    assert (code, out["verdict"], out["ratio"]) == (0, "isometric", "1")
    assert out["matrix"] == [["1", "0"], ["0", "1"]]


def test_heis_spectrum_outside_the_float_range_is_input_error(tmp_path, capsys):
    big = str(10 ** 400)
    path = write(tmp_path, "pair.json", {"omega": [[0, big], ["-" + big, 0]],
                                         "gram": [["1/" + big, 0], [0, "1/" + big]]})
    code, out = run_main(capsys, ["heis-spectrum", path])
    assert code == 2
    assert "outside the float range" in out


def _pair_doc(rbar, gram_scale=1):
    from sublap.heisenberg import heisenberg_pair
    omega, gram = heisenberg_pair(len(rbar), rbar)
    return {"omega": [[str(x) for x in row] for row in omega.matrix],
            "gram": [[str(x * gram_scale) for x in row] for row in gram.gram]}


@pytest.mark.parametrize("wide_first", [False, True])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_heis_isometry_names_the_file_of_the_failing_pair(tmp_path, capsys, wide_first, fmt):
    # the spectrum of (1, 200) fails the relative tolerance; the error named
    # no file, while heis-spectrum prefixed it with the path
    ok = write(tmp_path, "ok.json", _pair_doc((1, 2)))
    wide = write(tmp_path, "wide.json", _pair_doc((1, 200)))
    paths = [wide, ok] if wide_first else [ok, wide]
    code = main(["heis-isometry", *paths, "--format", fmt])
    out = capsys.readouterr().out
    error = json.loads(out)["error"] if fmt == "json" else out.splitlines()[1][len("error: "):]
    assert code == 2
    assert error == ("%s: smallest squared eigenvalue is below the tolerance relative to "
                     "the largest" % wide)
    assert main(["heis-spectrum", wide, "--format", fmt]) == 2
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("k", [50, 101])
def test_heis_isometry_verdict_does_not_depend_on_the_scale(tmp_path, capsys, k):
    # gram times 4^k divides every r_i by 2^k; the tolerances are relative,
    # so within the float window (k = 50) and beyond it (k = 101) the
    # verdicts are those of the unscaled pairs
    p13 = write(tmp_path, "p13.json", _pair_doc((1, 3), 4 ** k))
    p15 = write(tmp_path, "p15.json", _pair_doc((1, 5), 4 ** k))
    p26 = write(tmp_path, "p26.json", _pair_doc((2, 6)))
    code, out = run_json(capsys, ["heis-isometry", p13, p15])
    assert (code, out["verdict"]) == (1, "no-isometry")
    code, out = run_json(capsys, ["heis-isometry", p13, p26])
    assert (code, out["verdict"]) == (0, "isometric")
    assert float(out["ratio"]) == pytest.approx(2.0 ** -(k + 1), rel=1e-9)


@pytest.mark.parametrize("omega, gram, spectrum", [
    ([[0, 1], [-1, 0]], [[2 ** 100, 0], [0, 2 ** 100]], "8.881784197e-16"),
    ([[0, 1], [-1, 0]], [[10 ** 400, 0], [0, 10 ** 400]], "1e-200"),
    ([[0, "1/10"], ["-1/10", 0]], [[1, 0], [0, 1]], "0.316227766017"),
    ([[0, "1/" + str(10 ** 12)], ["-1/" + str(10 ** 12), 0]], [[1, 0], [0, 1]], "1e-06"),
])
def test_heis_spectrum_of_small_spectra_within_and_beyond_the_float_window(
        tmp_path, capsys, omega, gram, spectrum):
    # a small spectrum is a spectrum, not a degenerate form, whether or not
    # the pair was rescaled before the floats were taken
    doc = {"omega": [[str(x) for x in row] for row in omega],
           "gram": [[str(x) for x in row] for row in gram]}
    path = write(tmp_path, "pair.json", doc)
    code, out = run_json(capsys, ["heis-spectrum", path])
    assert (code, out["spectrum"]) == (0, [spectrum])


def test_heis_isometry_basis_outside_the_float_range_is_input_error(tmp_path, capsys):
    # G = [[1/N, 1], [1, N + 1]] has L^{-1} = [[1, 0], [-N, 1]]: the spectrum
    # (N^(1/4)) is a float, the normal-form basis has the entry -N
    n = 10 ** 400
    path = write(tmp_path, "pair.json", {"omega": [[0, 1], [-1, 0]],
                                         "gram": [["1/%d" % n, 1], [1, str(n + 1)]]})
    code, out = run_json(capsys, ["heis-spectrum", path])
    assert (code, out["spectrum"]) == (0, ["1e+100"])
    code, out = run_main(capsys, ["heis-isometry", path, path])
    assert code == 2
    assert "normal-form basis lies outside the float range" in out


def test_heis_isometry_positive(tmp_path, capsys):
    def pair_doc(n, rbar):
        omega, gram = __import__("sublap.heisenberg", fromlist=["heisenberg_pair"]) \
            .heisenberg_pair(n, rbar)
        from sublap.rational import rat_str
        return {"omega": [[rat_str(v) for v in row] for row in omega.matrix],
                "gram": [[rat_str(v) for v in row] for row in gram.gram]}

    p1 = write(tmp_path, "p1.json", pair_doc(2, (1, 2)))
    p2 = write(tmp_path, "p2.json", pair_doc(2, (2, 4)))
    code, doc = run_json(capsys, ["heis-isometry", p1, p2])
    assert code == 0
    assert doc["verdict"] == "isometric"
    assert abs(float(doc["ratio"]) - 0.5) < 1e-9
    assert len(doc["matrix"]) == 4


def test_heis_isometry_negative(tmp_path, capsys):
    p1 = write(tmp_path, "p1.json",
               {"omega": [[0, 1], [-1, 0]], "gram": [[1, 0], [0, 1]]})
    p2 = write(tmp_path, "p2.json",
               {"omega": [[0, 1], [-1, 0], ], "gram": [[1, 0], [0, 16]]})
    code, doc = run_json(capsys, ["heis-isometry", p1, p2])
    # single-mode pairs always have proportional spectra; use 2-mode pairs
    assert code == 0

    def pair_doc(rbar):
        from sublap.heisenberg import heisenberg_pair
        from sublap.rational import rat_str
        omega, gram = heisenberg_pair(2, rbar)
        return {"omega": [[rat_str(v) for v in row] for row in omega.matrix],
                "gram": [[rat_str(v) for v in row] for row in gram.gram]}

    q1 = write(tmp_path, "q1.json", pair_doc((1, 1)))
    q2 = write(tmp_path, "q2.json", pair_doc((1, 2)))
    code, doc = run_json(capsys, ["heis-isometry", q1, q2])
    assert code == 1
    assert doc["verdict"] == "no-isometry"


def _golden_pairs():
    """Named (omega, gram) documents: diagonal, congruent, rescaled by 4^101,
    with 10^400 entries and 10^-12 J."""
    from fractions import Fraction
    from sublap.heisenberg import heisenberg_pair

    def doc(omega, gram):
        return {"omega": [[str(x) for x in row] for row in omega],
                "gram": [[str(x) for x in row] for row in gram]}

    def diagonal(rbar, gram_scale=1):
        omega, gram = heisenberg_pair(len(rbar), rbar)
        return omega.matrix, [[x * gram_scale for x in row] for row in gram.gram]

    def congruent(p, m):
        return [[sum(p[k][i] * m[k][l] * p[l][j] for k in range(4) for l in range(4))
                 for j in range(4)] for i in range(4)]

    big, tiny = 10 ** 400, Fraction(1, 10 ** 12)
    omega13, gram13 = diagonal((1, 3))
    p = [[1, 2, 0, 1], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 3, 1]]
    return {
        "diagonal": doc(omega13, gram13),
        "congruent": doc(congruent(p, omega13), congruent(p, [[4 * x for x in row]
                                                               for row in gram13])),
        "rescaled": doc(*diagonal((1, 3), 4 ** 101)),
        "double": doc(*diagonal((2, 2))),
        "other": doc(*diagonal((1, 5))),
        "plane": doc(*diagonal((3,))),
        "huge": doc([[0, big], [-big, 0]], [[big, 0], [0, big]]),
        "huge_omega": doc([[0, big], [-big, 0]], [[1, 0], [0, 1]]),
        "huge_gram": doc([[0, 1], [-1, 0]], [[big, 0], [0, big]]),
        "tiny": doc([[0, tiny], [-tiny, 0]], [[1, 0], [0, 1]]),
    }


def _psi_residuals(lines, doc1, doc2):
    """Exact residuals of Psi^T G1 Psi = G2 and Psi^T omega1 Psi = rho^2 omega2
    for the printed Psi and rho, each relative to its right-hand side."""
    from fractions import Fraction

    psi = [[Fraction(x) for x in line[len("psi row: ("):-1].split(", ")]
           for line in lines if line.startswith("psi row: ")]
    rho = Fraction(next(line for line in lines if line.startswith("ratio: "))[7:])
    size = len(psi)

    def residual(lhs, rhs, factor):
        lhs = [[Fraction(x) for x in row] for row in lhs]
        rhs = [[factor * Fraction(x) for x in row] for row in rhs]
        worst = max(abs(sum(psi[k][i] * lhs[k][l] * psi[l][j]
                            for k in range(size) for l in range(size)) - rhs[i][j])
                    for i in range(size) for j in range(size))
        return worst / max(abs(x) for row in rhs for x in row)

    return (residual(doc1["gram"], doc2["gram"], 1),
            residual(doc1["omega"], doc2["omega"], rho * rho))


def test_heis_text_reports_match_the_golden_file(tmp_path, capsys):
    # the verdict, spectrum and ratio lines of heis-spectrum and of
    # heis-isometry on every ordered couple of the pairs, byte for byte; Psi
    # is checked through its two identities, not its digits
    docs = _golden_pairs()
    paths = {name: write(tmp_path, "%s.json" % name, doc) for name, doc in docs.items()}
    out = []

    def report(command, names, keep):
        code, text = run_main(capsys, [command] + [paths[name] for name in names])
        lines = text.replace(str(tmp_path), "DIR").splitlines()
        out.append("## %s (exit %d)\n" % (" ".join([command] + names), code))
        out.extend(line + "\n" for line in lines if line.startswith(keep + ("error:",)))
        return code, lines

    for name in docs:
        report("heis-spectrum", [name], ("verdict:", "spectrum:"))
    for first in docs:
        for second in docs:
            code, lines = report("heis-isometry", [first, second], ("verdict:", "ratio:"))
            if code == 0:
                assert max(_psi_residuals(lines, docs[first], docs[second])) < 1e-9
    golden = Path(__file__).resolve().parent / "golden" / "heisenberg_cli.txt"
    assert "".join(out) == golden.read_text()


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_heis_isometry_rejects_nonfinite_tolerance(tmp_path, capsys, tol):
    from sublap.heisenberg import heisenberg_pair
    from sublap.rational import rat_str

    def pair_doc(rbar):
        omega, gram = heisenberg_pair(2, rbar)
        return {"omega": [[rat_str(v) for v in row] for row in omega.matrix],
                "gram": [[rat_str(v) for v in row] for row in gram.gram]}

    q1 = write(tmp_path, "q1.json", pair_doc((1, 1)))
    q2 = write(tmp_path, "q2.json", pair_doc((1, 2)))
    assert main(["heis-isometry", q1, q2, "--tol", "1e-9"]) == 1
    capsys.readouterr()
    # the = form, since argparse would read a bare "-inf" as an option
    assert main(["heis-isometry", q1, q2, "--tol=" + tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tolerance must be finite and positive" in captured.err


# ---------------------------------------------------------------------------
# analyze-map / verify


def test_analyze_map_projection(tmp_path, capsys):
    src = write(tmp_path, "h1.json", H1_DOC)
    tgt = write(tmp_path, "r2.json", R2_DOC)
    fmap = write(tmp_path, "proj.json",
                 {"source_dim": 3, "components": ["x1", "x2"]})
    code, doc = run_json(capsys, ["analyze-map", src, tgt, fmap])
    assert code == 0
    assert doc["verdict"] == "conformal"
    assert doc["lambda_sq"] == "1"
    assert doc["b"] == ["0", "0"]
    code, out = run_main(capsys, ["analyze-map", src, tgt, fmap])
    assert "lambda_sq: 1" in out
    assert "b: (0, 0)" in out


def test_analyze_map_rejection(tmp_path, capsys):
    src = write(tmp_path, "r2.json", R2_DOC)
    fmap = write(tmp_path, "squash.json",
                 {"source_dim": 2, "components": ["x1", "2*x2"]})
    code, doc = run_json(capsys, ["analyze-map", src, src, fmap])
    assert code == 1
    assert doc["verdict"] == "not-conformal"
    assert doc["residuals"] == ["3"]
    assert "cometric" in doc["reason"]


def test_analyze_map_shape_mismatch(tmp_path, capsys):
    src = write(tmp_path, "h1.json", H1_DOC)
    tgt = write(tmp_path, "r2.json", R2_DOC)
    fmap = write(tmp_path, "id3.json",
                 {"source_dim": 3, "components": ["x1", "x2", "x3"]})
    code, out = run_main(capsys, ["analyze-map", src, tgt, fmap])
    assert code == 2
    assert "shape" in out


def test_verify_shape_mismatch(tmp_path, capsys):
    src = write(tmp_path, "h1.json", H1_DOC)
    tgt = write(tmp_path, "r2.json", R2_DOC)
    fmap = write(tmp_path, "id3.json",
                 {"source_dim": 3, "components": ["x1", "x2", "x3"]})
    ident = write(tmp_path, "ident.json", {"lambda_sq": 1, "b": ["0", "0"]})
    code, out = run_main(capsys, ["verify", src, tgt, fmap, ident])
    assert code == 2
    assert "map shape 3->3 does not match groups 3->2" in out


def test_map_shape_is_checked_before_any_component_is_parsed(tmp_path, capsys,
                                                             monkeypatch):
    # each variable of a component is an exponent tuple of source_dim
    # entries, so the declared shape is compared with the groups first: a
    # mis-shaped map never reaches the polynomial parser
    def refuse(*args):
        raise AssertionError("map component parsed")

    monkeypatch.setattr(specfiles, "_parse_poly_field", refuse)
    src = write(tmp_path, "h1.json", H1_DOC)
    tgt = write(tmp_path, "r2.json", R2_DOC)
    fmap = write(tmp_path, "map.json", {"source_dim": 4, "components": ["x1", "x2"]})
    ident = write(tmp_path, "ident.json", {"lambda_sq": 1, "b": ["0", "0"]})
    for argv in (["analyze-map", src, tgt, fmap], ["verify", src, tgt, fmap, ident]):
        code, out = run_main(capsys, argv)
        assert code == 2
        assert out == "verdict: error\nerror: %s: map shape 4->2 does not match groups 3->2\n" \
            % fmap


def test_analyze_map_gallery_reports(tmp_path, capsys):
    # the JSON reports of the twelve maps of scripts/commutation_gallery.py,
    # byte for byte
    out = []
    for name, mapping, source, target in gallery():
        paths = [write(tmp_path, "%s.json" % tag, doc)
                 for tag, doc in (("source", group_to_dict(source)),
                                  ("target", group_to_dict(target)),
                                  ("map", polymap_to_dict(mapping)))]
        code, text = run_main(capsys, ["analyze-map"] + paths + ["--format", "json"])
        out.append("## %s (exit %d)\n%s" % (name, code, text))
    golden = Path(__file__).resolve().parent / "golden" / "gallery_analyze_map.txt"
    assert "".join(out) == golden.read_text()


def test_analyze_map_term_budget(tmp_path, capsys):
    src = write(tmp_path, "h1.json", H1_DOC)
    fmap = write(tmp_path, "dense.json",
                 {"source_dim": 3, "components": ["x1", "(x1+x2+x3)^200", "x3"]})
    code, out = run_main(capsys, ["analyze-map", src, src, fmap])
    assert code == 2
    assert "field components[2]" in out
    assert "term budget of %d" % TERM_BUDGET in out


@pytest.mark.parametrize("component", ["(x1+10^100)^300", "(3*x1)^9999999"])
def test_analyze_map_coefficient_budget(tmp_path, capsys, component):
    # both powers are within the term budget; their coefficient bounds
    # (99900 and 19999998 bits) are refused before either power is computed
    import time
    src = write(tmp_path, "h1.json", H1_DOC)
    fmap = write(tmp_path, "wide.json", {"source_dim": 3, "components": ["x1", component, "x3"]})
    start = time.perf_counter()
    code, out = run_main(capsys, ["analyze-map", src, src, fmap])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "field components[2]" in out
    assert "coefficient budget of %d bits" % COEFF_BIT_BUDGET in out


def test_json_booleans_are_not_dimensions(tmp_path, capsys):
    frames = write(tmp_path, "frames.json",
                   {"dim": True, "frame_x": [[1]], "frame_y": [[1]]})
    code, out = run_main(capsys, ["equiv-frames", frames])
    assert code == 2
    assert "field dim: expected int, got bool" in out
    src = write(tmp_path, "r2.json", R2_DOC)
    fmap = write(tmp_path, "map.json", {"source_dim": True, "components": ["x1"]})
    code, out = run_main(capsys, ["analyze-map", src, src, fmap])
    assert code == 2
    assert "field source_dim: expected int, got bool" in out


def test_exponent_rationals_are_malformed(tmp_path, capsys):
    pair = write(tmp_path, "pair.json",
                 {"omega": [[0, "1e400"], ["-1e400", 0]], "gram": [[1, 0], [0, 1]]})
    code, out = run_main(capsys, ["heis-spectrum", pair])
    assert code == 2
    assert "field omega[1][2]: bad rational '1e400'" in out
    group = write(tmp_path, "h1.json", dict(H1_DOC, metric=[["1e3", 0], [0, 1]]))
    code, out = run_main(capsys, ["validate", group])
    assert code == 2
    assert "field metric[1][1]: bad rational '1e3'" in out


def test_validate_does_not_load_numpy(tmp_path):
    # numpy serves only the float spectra, so the exact commands never load it
    import subprocess
    import sys
    group = write(tmp_path, "h1.json", H1_DOC)
    script = ("import sys; import sublap.cli; code = sublap.cli.main(['validate', %r]); "
              "print(code, 'numpy' in sys.modules)" % group)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True)
    assert done.stdout.splitlines()[-1] == "0 False"


def test_verify_holds_and_fails(tmp_path, capsys):
    src = write(tmp_path, "h1.json", H1_DOC)
    tgt = write(tmp_path, "r2.json", R2_DOC)
    fmap = write(tmp_path, "proj.json",
                 {"source_dim": 3, "components": ["x1", "x2"]})
    good = write(tmp_path, "good.json", {"lambda_sq": 1, "b": ["0", "0"]})
    code, doc = run_json(capsys, ["verify", src, tgt, fmap, good])
    assert code == 0
    assert doc["verdict"] == "holds"
    assert doc["failures"] == []

    bad = write(tmp_path, "bad.json", {"lambda_sq": 2, "b": ["0", "0"]})
    code, doc = run_json(capsys, ["verify", src, tgt, fmap, bad])
    assert code == 1
    assert doc["verdict"] == "fails"
    assert doc["failures"]
    assert all("residual" in f for f in doc["failures"])


def test_verify_vertical_projection_identity(tmp_path, capsys):
    src = write(tmp_path, "h1.json", H1_DOC)
    tgt = write(tmp_path, "r1.json", {
        "dim": 1, "brackets": [], "polarization": [[1]], "metric": [[1]],
    })
    fmap = write(tmp_path, "z.json", {"source_dim": 3, "components": ["x3"]})
    ident = write(tmp_path, "ident.json",
                  {"lambda_sq": "1/4*x1^2 + 1/4*x2^2", "b": ["0"]})
    code, doc = run_json(capsys, ["verify", src, tgt, fmap, ident,
                                  "--probe-degree", "5"])
    assert code == 0
    assert doc["verdict"] == "holds"
    assert doc["probe_degree"] == 5


def test_verify_probe_budget(tmp_path, capsys):
    # h1 has C(3 + 60, 3) = 39711 probe monomials of degree <= 60, and the
    # witnesses of a left translation grow with every power of the map
    from sublap.conformal import PROBE_BUDGET
    src = write(tmp_path, "h1.json", H1_DOC)
    fmap = write(tmp_path, "translation.json",
                 {"source_dim": 3,
                  "components": ["x1 + 1", "x2 - 2", "x1 + 1/2*x2 + x3 + 1/3"]})
    good = write(tmp_path, "good.json", {"lambda_sq": 1, "b": ["0", "0", "0"]})
    bad = write(tmp_path, "bad.json", {"lambda_sq": "6/5", "b": ["0", "0", "0"]})
    # the failing identity is decided before any probe runs: the witnesses
    # are listed at degree 16, the highest with C(3 + k, k) <= PROBE_BUDGET
    # (969 probes), and the other 39711 - 969 probes are counted
    assert comb(3 + 16, 16) == 969 <= PROBE_BUDGET < comb(3 + 17, 17)
    code, doc, lines = run(RunConfig("verify", (src, src, fmap, bad), probe_degree=60))
    assert (code, doc["verdict"], doc["probe_degree"]) == (1, "fails", 60)
    assert doc["unlisted_probes"] == 39711 - 969
    degrees = [Polynomial.parse(w["probe"], 3).degree() for w in doc["failures"]]
    assert min(degrees) == 2 and max(degrees) == 16
    assert lines[:2] == ["verdict: fails", "probe degree: 60"]
    assert lines[-1] == "unlisted probes: 38742 of 39711, over the budget of %d" % PROBE_BUDGET
    # the verdict itself is exact, so a holding identity and analyze-map
    # run at any degree
    code, doc = run_json(capsys, ["verify", src, src, fmap, good, "--probe-degree", "60"])
    assert (code, doc["verdict"]) == (0, "holds")
    code, doc = run_json(capsys, ["analyze-map", src, src, fmap, "--probe-degree", "60"])
    assert (code, doc["verdict"]) == (0, "conformal")


def test_verify_rejects_bad_identity_file(tmp_path, capsys):
    src = write(tmp_path, "h1.json", H1_DOC)
    tgt = write(tmp_path, "r2.json", R2_DOC)
    fmap = write(tmp_path, "proj.json",
                 {"source_dim": 3, "components": ["x1", "x2"]})
    short = write(tmp_path, "short.json", {"lambda_sq": 1, "b": ["0"]})
    code, out = run_main(capsys, ["verify", src, tgt, fmap, short])
    assert code == 2
    assert "b must have 2" in out


def test_verify_rejects_a_drift_off_the_target_polarization(tmp_path, capsys):
    # e3 is the vertical direction of h1, so b = e3 is an identity-file error
    src = write(tmp_path, "h1.json", H1_DOC)
    fmap = write(tmp_path, "id.json", {"source_dim": 3, "components": ["x1", "x2", "x3"]})
    vertical = write(tmp_path, "vertical.json", {"lambda_sq": 1, "b": ["0", "0", "1"]})
    code, doc = run_json(capsys, ["verify", src, src, fmap, vertical])
    assert (code, doc["verdict"]) == (2, "error")
    assert doc["error"] == vertical + ": vector does not take values in the polarization"


_DEEP = "(" * 300 + "x1" + ")" * 300


@pytest.mark.parametrize("field, text, message", [
    ("components[1]", "x1 + 1/0", "cannot tokenize polynomial at '/0'"),
    ("components[2]", _DEEP, "polynomial is nested too deeply"),
    ("components[3]", "x1*" + "-" * 2000 + "x2", "polynomial is nested too deeply"),
    ("lambda_sq", "1/0", "cannot tokenize polynomial at '/0'"),
    ("lambda_sq", "(" * 400 + "1" + ")" * 400, "polynomial is nested too deeply"),
    ("b[2]", "2/0*x1", "cannot tokenize polynomial at '/0*x1'"),
], ids=["map-zero-denominator", "map-parentheses", "map-unary-minus",
        "lambda-zero-denominator", "lambda-parentheses", "b-zero-denominator"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_unparsable_polynomial_fields_are_input_errors(tmp_path, capsys, field, text, message,
                                                       fmt):
    # each of these texts raised ZeroDivisionError or RecursionError, a
    # traceback and exit 1; now exit 2, naming the file and the field
    components = ["x1", "x2", "x3"]
    identity = {"lambda_sq": "1", "b": ["0", "0", "0"]}
    if field.startswith("components"):
        components[int(field[-2]) - 1] = text
    elif field == "lambda_sq":
        identity["lambda_sq"] = text
    else:
        identity["b"][1] = text
    h1 = write(tmp_path, "h1.json", H1_DOC)
    fmap = write(tmp_path, "map.json", {"source_dim": 3, "components": components})
    ident = write(tmp_path, "ident.json", identity)
    commands = [["verify", h1, h1, fmap, ident]]
    if field.startswith("components"):
        commands.append(["analyze-map", h1, h1, fmap])
    for argv in commands:
        code = main(argv + ["--format", fmt])
        out = capsys.readouterr().out
        error = json.loads(out)["error"] if fmt == "json" else out.splitlines()[1][len("error: "):]
        assert code == 2
        path = fmap if field.startswith("components") else ident
        assert error == "%s, field %s: %s" % (path, field, message)


@pytest.mark.parametrize("command", ["analyze-map", "verify"])
@pytest.mark.parametrize("roles", [("sl2", "h1"), ("h1", "sl2"), ("sl2", "sl2")])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_map_commands_name_the_non_nilpotent_group_file(tmp_path, capsys, command, roles, fmt):
    # the source is checked first, then the target, and the error names the file
    docs = {"sl2": SL2_DOC, "h1": H1_DOC}
    src, tgt = (write(tmp_path, "%s_%s.json" % (role, tag), docs[tag])
                for role, tag in zip(("source", "target"), roles))
    files = [src, tgt, write(tmp_path, "id.json", {"source_dim": 3,
                                                   "components": ["x1", "x2", "x3"]})]
    if command == "verify":
        files.append(write(tmp_path, "ident.json", {"lambda_sq": 1, "b": ["0", "0", "0"]}))
    code = main([command, *files, "--format", fmt])
    out = capsys.readouterr().out
    error = json.loads(out)["error"] if fmt == "json" else out.splitlines()[1][len("error: "):]
    assert code == 2
    assert error == "%s: group is not nilpotent; no exponential coordinate calculus" \
        % (src if roles[0] == "sl2" else tgt)


# ---------------------------------------------------------------------------
# plumbing


def test_out_writes_file(tmp_path, capsys):
    # the file holds exactly the bytes the report prints on stdout
    path = write(tmp_path, "h1.json", H1_DOC)
    for fmt in ("text", "json"):
        printed = run_main(capsys, ["validate", path, "--format", fmt])[1]
        target = tmp_path / ("report.%s" % fmt)
        code = main(["validate", path, "--format", fmt, "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == printed.encode()
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["verdict"] == "valid"


def test_unwritable_out_is_an_input_error(tmp_path, capsys):
    # a verdict report and an error report alike: one line on stderr and
    # exit 2, as a bad flag gives, not a traceback with the exit code of a
    # negative verdict
    group = write(tmp_path, "h1.json", H1_DOC)
    broken = write(tmp_path, "broken.json", "{")
    for target, reason in ((tmp_path / "missing" / "r.txt", "No such file or directory"),
                           (tmp_path, "Is a directory")):
        for path in (group, broken):
            for fmt in ("text", "json"):
                code = main(["validate", path, "--format", fmt, "--out", str(target)])
                captured = capsys.readouterr()
                assert code == 2 and captured.out == ""
                assert captured.err == "error: cannot write %s: %s\n" % (target, reason)
    assert not (tmp_path / "missing").exists()


def test_each_polynomial_is_formatted_once(tmp_path, capsys, monkeypatch):
    # the text lines are read off the JSON document: in either format, one
    # Polynomial.__str__ call per polynomial string of the document, the
    # symmetric second-order table formatted on and above its diagonal only
    h1 = write(tmp_path, "h1.json", H1_DOC)
    dilation = write(tmp_path, "dilation.json",
                     {"source_dim": 3, "components": ["2*x1", "2*x2", "4*x3"]})
    wrong = write(tmp_path, "wrong.json", {"lambda_sq": 5, "b": ["0", "0", "0"]})
    calls = []
    original = Polynomial.__str__

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Polynomial, "__str__", counted)
    for argv, verdict, strings in (
            (["sublaplacian", h1], "ok", lambda doc: 3 * 4 // 2 + 3 + 1),
            (["analyze-map", h1, h1, dilation], "conformal", lambda doc: 1 + len(doc["b"])),
            (["verify", h1, h1, dilation, wrong], "fails",
             lambda doc: 2 * len(doc["failures"]))):
        calls.clear()
        code, doc = run_json(capsys, argv)
        assert doc["verdict"] == verdict
        assert len(calls) == strings(doc) > 0
        calls.clear()
        run_main(capsys, argv)
        assert len(calls) == strings(doc)


def test_flag_validation(tmp_path, capsys):
    path = write(tmp_path, "h1.json", H1_DOC)
    code = main(["validate", path, "--tol", "-1"])
    assert code == 2
    assert "tolerance" in capsys.readouterr().err
    code = main(["analyze-map", path, path, path, "--probe-degree", "1"])
    assert code == 2
    assert "probe degree" in capsys.readouterr().err


def test_repeated_main_calls_share_no_flags(tmp_path, capsys):
    path = write(tmp_path, "pair.json",
                 {"omega": [[0, 1], [-1, 0]], "gram": [[1, 0], [0, 4]]})
    build_parser.cache_clear()
    first = run_main(capsys, ["heis-spectrum", path])
    code, doc = run_json(capsys, ["heis-spectrum", path, "--tol", "1e-6"])
    assert (code, doc["tolerance"]) == (0, 1e-6)
    again = run_main(capsys, ["heis-spectrum", path])
    assert again == first
    assert again[0] == 0 and "tolerance: 1e-09\n" in again[1]


def test_usage_error_leaves_the_parser_usable(tmp_path, capsys):
    path = write(tmp_path, "h1.json", H1_DOC)
    expected = run_main(capsys, ["validate", path])
    with pytest.raises(SystemExit) as exc:
        main(["validate", path, "--frobnicate"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --frobnicate" in capsys.readouterr().err
    assert run_main(capsys, ["validate", path]) == expected
    assert expected[0] == 0


def test_help_text_matches_the_golden_file(capsys, monkeypatch):
    # the parser is built from the one subcommand table; argparse wraps help
    # at $COLUMNS, so the width is pinned
    monkeypatch.setenv("COLUMNS", "80")
    out = []
    for argv in [["--help"]] + [[command, "--help"] for command in COMMANDS]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out.append("$ sublap %s\n%s" % (" ".join(argv), capsys.readouterr().out))
    golden = Path(__file__).resolve().parent / "golden" / "cli_help.txt"
    assert "".join(out) == golden.read_text()


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_run_config_validation():
    with pytest.raises(ValueError, match="unknown command"):
        RunConfig(command="frobnicate", paths=())
    with pytest.raises(ValueError, match="format"):
        RunConfig(command="validate", paths=("x",), format="yaml")
    cfg = RunConfig(command="validate", paths=())
    from sublap.specfiles import SpecFileError
    with pytest.raises(SpecFileError, match="file argument"):
        run(cfg)


def test_console_entry_point():
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-m", "sublap.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "analyze-map" in proc.stdout


def test_dump_verdicts_prints_one_line_per_task(monkeypatch):
    # scripts/dump_verdicts.py on map-analysis seed 1: kind, description and
    # result of each task, in the order the workload runs them
    import subprocess
    import sys
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(root / "scripts" / "dump_verdicts.py"),
                           "map-analysis", "--seeds", "1"],
                          capture_output=True, text=True, check=True)
    monkeypatch.syspath_prepend(str(root / "bench"))
    import workloads
    tasks = workloads.map_analysis(1)
    lines = [line.split("\t") for line in proc.stdout.splitlines()]
    assert [line[:4] for line in lines] == [["map-analysis", "1", t.kind, t.desc] for t in tasks]
    assert all(len(line) == 5 for line in lines)
    assert {line[4] for line in lines if line[2] == "verify/holds"} == {"[]"}
    assert all(json.loads(line[4])["conformal"] for line in lines if line[2].startswith("analyze/"))


def test_dump_verdicts_prints_every_cli_report(monkeypatch):
    # a classify front-end call prints its verdict text and its full stdout;
    # with --cli every map-analysis task also prints the group commands on
    # its source group file, in text and in JSON
    import subprocess
    import sys
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(root / "scripts" / "dump_verdicts.py"),
                           "map-analysis", "classify", "--seeds", "1", "--cli", "2"],
                          capture_output=True, text=True, check=True)
    monkeypatch.syspath_prepend(str(root / "bench"))
    import workloads
    lines = [line.split("\t") for line in proc.stdout.splitlines()]
    frontend = [line for line in lines if line[2].startswith("frontend/")]
    assert len(frontend) == len([c for c in workloads.CLI_CALLS
                                 if c[0][0] in workloads.FRONTEND_COMMANDS])
    for line in frontend:
        _, _, verdict, out = line[4].split(" ", 3)
        fmt = line[3].split()[-1]
        assert str(workloads._verdict(json.loads(out), fmt)) == verdict
    labels = {line[4] for line in lines if line[0] == "map-analysis" and len(line) == 6}
    assert {"cli %s source %s exit 0" % (command, fmt) for command in
            ("sublaplacian", "stratify", "validate") for fmt in ("text", "json")} <= labels


@pytest.mark.parametrize("script, args", [
    ("commutation_gallery.py", ()), ("spectrum_survey.py", ()),
    ("kind_times.py", ("--workload", "map-analysis", "--rounds", "1", "--tail", "8"))],
    ids=["commutation_gallery.py", "spectrum_survey.py", "kind_times.py"])
def test_scripts_run_from_a_fresh_checkout(script, args, tmp_path):
    # with PYTHONPATH unset, from another directory and with no bytecode
    # written, each script finds the package of its own checkout
    import os
    import subprocess
    import sys
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run([sys.executable, str(root / "scripts" / script), *args], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert list(tmp_path.iterdir()) == []
