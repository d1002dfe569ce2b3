import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (bracket_jacobi, bracket_nilpotency_step, dense_bracket_generating,
                     dense_group_structure, dense_nilpotency_step, dense_stratify, identity,
                     mat_sub)

from sublap.algebra import (InvalidAlgebra, LieAlgebra, Metric, NotStratifiable, Polarization,
                            bracket_generating, nilpotency_step, stratify,
                            subriemannian_group, validate)
from sublap.catalog import abelian_group, engel_algebra, engel_group, sl2_algebra
from sublap.heisenberg import heisenberg_algebra, heisenberg_group
from sublap.linalg import mat_mul, rank
from sublap.rational import Rat


def vec(*entries):
    return tuple(Rat(e) for e in entries)


# -- construction and reads ----------------------------------------------------


def test_from_brackets_heisenberg():
    alg = heisenberg_algebra(1)
    assert alg.dim == 3
    x, y, z = alg.basis()
    assert alg.bracket(x, y) == z
    assert alg.bracket(y, x) == tuple(-c for c in z)
    assert alg.bracket(x, x) == vec(0, 0, 0)


def test_mirror_read_rule():
    alg = LieAlgebra.from_table(3, {(0, 1, 2): Rat(5)})
    assert alg.constant(0, 1, 2) == 5
    assert alg.constant(1, 0, 2) == -5
    assert alg.constant(0, 2, 1) == 0
    # explicit storage of both orders wins over the mirror
    both = LieAlgebra.from_table(3, {(0, 1, 2): Rat(5), (1, 0, 2): Rat(7)})
    assert both.constant(1, 0, 2) == 7


def test_from_table_rejects_duplicates_and_bad_indices():
    with pytest.raises(ValueError):
        LieAlgebra(2, (((0, 1, 0), Rat(1)), ((0, 1, 0), Rat(2))))
    with pytest.raises(ValueError):
        LieAlgebra.from_table(2, {(0, 1, 2): Rat(1)})
    with pytest.raises(ValueError):
        LieAlgebra.from_brackets(2, {(1, 1): {0: 1}})


def test_sl2_brackets():
    alg = sl2_algebra()
    e1, e2, e3 = alg.basis()
    assert alg.bracket(e3, e1) == vec(2, 0, 0)
    assert alg.bracket(e3, e2) == vec(0, -2, 0)
    assert alg.bracket(e1, e2) == vec(0, 0, 1)


# -- validation ----------------------------------------------------------------


def test_validate_accepts_catalog_algebras():
    for alg in (heisenberg_algebra(1), heisenberg_algebra(3), engel_algebra(),
                sl2_algebra(), abelian_group(4).algebra):
        report = validate(alg)
        assert report.valid, report.describe()
        assert report.describe() == "valid Lie algebra"


def test_ad_is_a_homomorphism_on_valid_algebras():
    # independent Jacobi cross-check: ad_[x,y] = [ad_x, ad_y]
    for alg in (heisenberg_algebra(2), engel_algebra(), sl2_algebra()):
        import random
        rng = random.Random(7)
        for _ in range(10):
            x = vec(*[rng.randint(-3, 3) for _ in range(alg.dim)])
            y = vec(*[rng.randint(-3, 3) for _ in range(alg.dim)])
            lhs = alg.ad_matrix(alg.bracket(x, y))
            ax, ay = alg.ad_matrix(x), alg.ad_matrix(y)
            rhs = mat_sub(mat_mul(ax, ay), mat_mul(ay, ax))
            assert lhs == rhs


def test_validate_flags_antisymmetry_break():
    # full table for the 3-dim Heisenberg algebra, then flip one orientation
    table = heisenberg_algebra(1).full_table()
    assert table[(1, 0, 2)] == -1
    table[(1, 0, 2)] = Rat(1)
    report = validate(LieAlgebra.from_table(3, table))
    assert not report.valid
    assert report.antisymmetry_violations == ((0, 1, 2),)
    assert "antisymmetry violated at c_12^3" in report.describe()


def test_validate_flags_diagonal_entry():
    report = validate(LieAlgebra.from_table(2, {(0, 0, 1): Rat(1)}))
    assert not report.valid
    assert report.antisymmetry_violations == ((0, 0, 1),)


def test_validate_flags_jacobi_break():
    # antisymmetric by storage, but [e1,[e2,e3]] + cyclic = e3 != 0
    alg = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}, (0, 2): {0: 1}})
    report = validate(alg)
    assert not report.valid
    assert not report.antisymmetry_violations
    assert report.jacobi_violations == ((0, 1, 2),)
    assert "Jacobi violated on basis triple (1, 2, 3)" in report.describe()


def test_every_single_entry_corruption_is_caught():
    # changing any one stored orientation of a fully expanded table to a
    # different nonzero value breaks antisymmetry
    for alg in (heisenberg_algebra(1), heisenberg_algebra(2), engel_algebra(),
                sl2_algebra()):
        base = alg.full_table()
        for key, value in base.items():
            for delta in (1, -1, Rat(1, 2)):
                mutated = dict(base)
                if value + delta == 0:
                    continue
                mutated[key] = value + delta
                report = validate(LieAlgebra.from_table(alg.dim, mutated))
                assert not report.valid, (key, delta)
                assert report.antisymmetry_violations


# -- derived linear data ---------------------------------------------------------


def test_ad_matrix_examples():
    heis = heisenberg_algebra(1)
    x = heis.basis_vector(0)
    adx = heis.ad_matrix(x)
    # ad_X maps Y to Z and kills X, Z
    assert tuple(row[1] for row in adx) == vec(0, 0, 1)
    assert tuple(row[0] for row in adx) == vec(0, 0, 0)
    assert tuple(row[2] for row in adx) == vec(0, 0, 0)

    sl2 = sl2_algebra()
    adz = sl2.ad_matrix(sl2.basis_vector(2))
    assert adz == (vec(2, 0, 0), vec(0, -2, 0), vec(0, 0, 0))


def test_modular_trace():
    heis = heisenberg_algebra(2)
    for e in heis.basis():
        assert heis.modular_trace(e) == 0
    solvable = LieAlgebra.from_brackets(2, {(0, 1): {1: 1}})
    assert solvable.modular_trace(solvable.basis_vector(0)) == 1
    assert solvable.modular_trace(solvable.basis_vector(1)) == 0
    assert solvable.modular_trace(vec(3, 5)) == 3  # linear in x
    sl2 = sl2_algebra()
    assert all(sl2.modular_trace(e) == 0 for e in sl2.basis())


# -- generation, step, stratification -------------------------------------------


def test_bracket_generating_heisenberg():
    heis = heisenberg_algebra(1)
    ok, dims = bracket_generating(heis, (heis.basis_vector(0), heis.basis_vector(1)))
    assert ok
    assert dims == (2, 3)


def test_bracket_generating_failure():
    heis = heisenberg_algebra(1)
    ok, dims = bracket_generating(heis, (heis.basis_vector(0),))
    assert not ok
    assert dims[-1] == 1


def test_bracket_generating_sl2():
    sl2 = sl2_algebra()
    ok, dims = bracket_generating(sl2, (sl2.basis_vector(0), sl2.basis_vector(1)))
    assert ok
    assert dims == (2, 3)


def test_nilpotency_step():
    assert nilpotency_step(abelian_group(3).algebra) == 1
    assert nilpotency_step(heisenberg_algebra(1)) == 2
    assert nilpotency_step(heisenberg_algebra(4)) == 2
    assert nilpotency_step(engel_algebra()) == 3
    assert nilpotency_step(sl2_algebra()) is None
    solvable = LieAlgebra.from_brackets(2, {(0, 1): {1: 1}})
    assert nilpotency_step(solvable) is None


def test_stratify_heisenberg():
    heis = heisenberg_algebra(1)
    layers = stratify(heis, (heis.basis_vector(0), heis.basis_vector(1)))
    assert tuple(len(layer) for layer in layers) == (2, 1)
    assert layers[1] == (vec(0, 0, 1),)


def test_stratify_abelian_and_engel():
    ab = abelian_group(3).algebra
    layers = stratify(ab, ab.basis())
    assert tuple(len(layer) for layer in layers) == (3,)
    eng = engel_algebra()
    layers = stratify(eng, (eng.basis_vector(0), eng.basis_vector(1)))
    assert tuple(len(layer) for layer in layers) == (2, 1, 1)


def test_stratify_rejects_non_generating_seed():
    heis = heisenberg_algebra(1)
    with pytest.raises(NotStratifiable):
        stratify(heis, (heis.basis_vector(0),))


def test_stratify_rejects_fold_back():
    solvable = LieAlgebra.from_brackets(2, {(0, 1): {1: 1}})
    with pytest.raises(NotStratifiable):
        stratify(solvable, solvable.basis())


def test_stratify_rejects_mixed_layer():
    # [e1,e2]=e4, [e1,e3]=e2: brackets of V1 hit both a new direction and V1
    alg = LieAlgebra.from_brackets(4, {(0, 1): {3: 1}, (0, 2): {1: 1}})
    assert validate(alg).valid
    assert nilpotency_step(alg) == 3
    with pytest.raises(NotStratifiable):
        stratify(alg, (alg.basis_vector(0), alg.basis_vector(1), alg.basis_vector(2)))


# -- polarization, metric, bundle -------------------------------------------------


def test_polarization_matrix_shape():
    pol = Polarization((vec(1, 0, 0), vec(0, 1, 0)))
    assert pol.rank == 2
    m = pol.matrix()
    assert len(m) == 3 and len(m[0]) == 2
    assert rank(m) == 2


def test_metric_requires_positive_definite():
    Metric(((Rat(2), Rat(1)), (Rat(1), Rat(2))))
    with pytest.raises(ValueError):
        Metric(((Rat(1), Rat(2)), (Rat(2), Rat(1))))
    with pytest.raises(ValueError):
        Metric(((Rat(1), Rat(0)), (Rat(1), Rat(1))))
    with pytest.raises(ValueError):
        Metric(((Rat(0), Rat(0)), (Rat(0), Rat(1))))


def test_subriemannian_group_factory_checks():
    heis = heisenberg_algebra(1)
    x, y = heis.basis_vector(0), heis.basis_vector(1)
    eye2 = ((Rat(1), Rat(0)), (Rat(0), Rat(1)))
    group = subriemannian_group(heis, (x, y), eye2)
    assert group.dim == 3 and group.rank == 2 and group.step == 2
    assert tuple(len(s) for s in group.strata) == (2, 1)

    with pytest.raises(ValueError, match="bracket generating"):
        subriemannian_group(heis, (x,), ((Rat(1),),))
    with pytest.raises(ValueError, match="linearly dependent"):
        subriemannian_group(heis, (x, x), eye2)
    with pytest.raises(ValueError, match="does not match"):
        subriemannian_group(heis, (x, y), ((Rat(1),),))

    bad_table = heis.full_table()
    bad_table[(1, 0, 2)] = Rat(1)
    bad = LieAlgebra.from_table(3, bad_table)
    with pytest.raises(InvalidAlgebra, match="invalid structure constants") as exc:
        subriemannian_group(bad, (x, y), eye2)
    assert isinstance(exc.value, ValueError)
    assert exc.value.report == validate(bad) and not exc.value.report.valid


def test_sl2_group_has_no_step_or_strata():
    sl2 = sl2_algebra()
    eye2 = ((Rat(1), Rat(0)), (Rat(0), Rat(1)))
    group = subriemannian_group(sl2, (sl2.basis_vector(0), sl2.basis_vector(1)), eye2)
    assert group.step is None
    assert group.strata is None


# -- validate's table-driven Jacobi check against the bracket oracle -------------

MUTATION_BASES = (heisenberg_algebra(1), heisenberg_algebra(2), engel_algebra(),
                  sl2_algebra(), abelian_group(4).algebra)
small_rationals = st.builds(Rat, st.integers(-5, 5), st.integers(1, 3))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(MUTATION_BASES), st.booleans(), st.data())
def test_validate_jacobi_matches_bracket_oracle(alg, expanded, data):
    # criterion-1 style: overwrite or add a few entries, either of the fully
    # expanded table (antisymmetry may break) or of the one-orientation
    # bracket table (antisymmetric by storage, so Jacobi is what can fail)
    n = alg.dim
    table = alg.full_table() if expanded else alg.raw_table()
    for _ in range(data.draw(st.integers(1, 3))):
        i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        if not expanded and i >= j:
            continue
        table[(i, j, k)] = data.draw(small_rationals)
    mutated = LieAlgebra.from_table(n, table)
    report = validate(mutated)
    assert report.jacobi_violations == bracket_jacobi(mutated)
    assert report.valid == (not report.jacobi_violations and not report.antisymmetry_violations)


# -- the one filtration growth against three dense passes ------------------------


def filiform_group(n):
    """The model filiform group: [e1, e_k] = e_{k+1}, polarized by (e1, e2)."""
    alg = LieAlgebra.from_brackets(n, {(0, k): {k + 1: 1} for k in range(1, n - 1)})
    return subriemannian_group(alg, (alg.basis_vector(0), alg.basis_vector(1)), identity(2))


FIXTURE_GROUPS = (
    [heisenberg_group(k, (1,) * k) for k in range(1, 6)] + [engel_group()]
    + [filiform_group(n) for n in range(4, 9)] + [abelian_group(n) for n in range(1, 7)])


def outcome(fn, *args):
    """fn(*args), or the type and message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def group_structure(algebra, basis):
    group = subriemannian_group(algebra, basis, identity(len(basis)))
    return group.step, group.strata


def changed_bases(group, rng, count=3):
    """count random changes of the polarization basis, each also with every
    vector shifted by a random multiple of the last (central) basis vector."""
    basis, size = group.polarization.basis, group.rank
    out = []
    while len(out) < 2 * count:
        a = [[Rat(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(size)]
             for _ in range(size)]
        if rank(a) != size:
            continue
        changed = mat_mul(a, basis)
        shift = [Rat(rng.randint(-3, 3)) for _ in range(size)]
        out.append(changed)
        out.append(tuple(v[:-1] + (v[-1] + s,) for v, s in zip(changed, shift)))
    return out


def engel_sl2_heis3_cases():
    """Stratifying, fold-back, mixed, non-generating and dependent bases."""
    eng, sl2, heis = engel_algebra(), sl2_algebra(), heisenberg_algebra(1)
    e, s, h = eng.basis(), sl2.basis(), heis.basis()
    zero = vec(0, 0, 0)
    return [
        (eng, (e[0], e[1])), (eng, (e[1], e[0])), (eng, (e[0], e[1], e[2])),
        (eng, (e[1], e[2])), (eng, (e[0], e[3])),
        (eng, (e[0], tuple(a + b for a, b in zip(e[1], e[2])))),
        (eng, (e[0], e[1], tuple(a + b for a, b in zip(e[0], e[1])))),
        (sl2, (s[0], s[1])), (sl2, (s[2],)), (sl2, (s[0], s[2])), (sl2, (s[0], s[0])),
        (heis, (h[0], h[1])), (heis, (h[0], h[1], h[2])), (heis, (h[0],)),
        (heis, (vec(1, 0, 1), h[1])), (heis, (h[0], h[0])), (heis, (h[0], zero)),
        (heis, (h[0], h[1], vec(1, 1, 0))), (heis, (zero, h[0], h[1])),
    ]


def growth_cases():
    rng = random.Random(14)
    cases = [(g.algebra, g.polarization.basis) for g in FIXTURE_GROUPS]
    for group in FIXTURE_GROUPS:
        cases += [(group.algebra, basis) for basis in changed_bases(group, rng)]
    return cases + engel_sl2_heis3_cases()


def test_growth_matches_the_dense_passes():
    for algebra, basis in growth_cases():
        assert bracket_generating(algebra, basis) == dense_bracket_generating(algebra, basis)
        assert outcome(stratify, algebra, basis) == outcome(dense_stratify, algebra, basis)
        assert outcome(group_structure, algebra, basis) == \
            outcome(dense_group_structure, algebra, basis)


def test_nilpotency_step_matches_the_dense_series():
    mixed = LieAlgebra.from_brackets(4, {(0, 1): {3: 1}, (0, 2): {1: 1}})
    solvable = LieAlgebra.from_brackets(2, {(0, 1): {1: 1}})
    algebras = [g.algebra for g in FIXTURE_GROUPS] + [
        engel_algebra(), sl2_algebra(), heisenberg_algebra(1), mixed, solvable]
    for algebra in algebras:
        assert nilpotency_step(algebra) == dense_nilpotency_step(algebra)


@st.composite
def bracket_tables(draw):
    """An antisymmetric table on up to six basis vectors: strictly upper
    ([e_i, e_j] has e_k components only for k > j, so the series reaches
    zero) or unrestricted (mostly not nilpotent); Jacobi is not imposed."""
    dim = draw(st.integers(1, 6))
    upper = draw(st.booleans())
    brackets = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            targets = range(j + 1, dim) if upper else range(dim)
            if targets:
                brackets[(i, j)] = draw(st.dictionaries(st.sampled_from(targets),
                                                        st.integers(-2, 2), max_size=2))
    return LieAlgebra.from_brackets(dim, brackets)


@settings(max_examples=100, deadline=None)
@given(bracket_tables())
def test_nilpotency_step_matches_the_bracket_loop(algebra):
    step = nilpotency_step(algebra)
    assert step == bracket_nilpotency_step(algebra) == dense_nilpotency_step(algebra)


def test_stratified_groups_take_their_step_from_the_strata():
    for group in FIXTURE_GROUPS:
        assert group.strata is not None
        assert group.step == len(group.strata) == nilpotency_step(group.algebra)


def test_the_constructor_grows_the_filtration_once(monkeypatch):
    import sublap.algebra as algebra_module
    calls = {"filtration": 0, "series": 0}
    filtration, series = algebra_module._filtration, algebra_module.nilpotency_step

    def counted_filtration(*args):
        calls["filtration"] += 1
        return filtration(*args)

    def counted_series(*args):
        calls["series"] += 1
        return series(*args)

    monkeypatch.setattr(algebra_module, "_filtration", counted_filtration)
    monkeypatch.setattr(algebra_module, "nilpotency_step", counted_series)
    engel_group()
    assert calls == {"filtration": 1, "series": 0}
    # (e1, e2, e3) generates the Engel algebra but does not stratify it
    eng = engel_algebra()
    group = subriemannian_group(eng, eng.basis()[:3], identity(3))
    assert (group.step, group.strata) == (3, None)
    assert calls == {"filtration": 2, "series": 1}
