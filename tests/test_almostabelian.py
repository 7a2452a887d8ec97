import json
from fractions import Fraction

import numpy as np
import pytest

from lcak.algebra import LieAlgebra
from lcak.almostabelian import (AlmostAbelianParams, build_almost_abelian, classify_4d,
                                lee_form_aa, pluricanonical_conditions_aa)
from lcak.catalogs import catalog_entry
from lcak.cli import main
from lcak.conditions import classify_metric
from lcak.errors import (Degenerate, DimensionMismatch, PreconditionFailed,
                         UnsupportedDimension)
from lcak.forms import KForm
from lcak.fuzzing import random_params_4d
from lcak.hermitian import AlmostHermitianStructure
from lcak.specfile import run_report


def zero_a():
    return ((0, 0), (0, 0))


def test_build_nilpotent_family_is_a41():
    params = AlmostAbelianParams(2, 0, (1, 0), (0, 1), zero_a())
    alg, s = build_almost_abelian(params)
    assert alg.validate().ok and alg.is_unimodular()[0]
    ad = alg.ad_basis(3)
    m = ad[:3, :3]
    assert np.any(np.array([[x != 0 for x in row] for row in m @ m]))
    assert all(v == 0 for v in (m @ m @ m).ravel())
    assert classify_4d(params).name == "A4_1"


def test_build_abelian_when_all_zero():
    params = AlmostAbelianParams(2, 0, (0, 0), (0, 0), zero_a())
    alg, s = build_almost_abelian(params)
    assert all(v == 0 for v in alg.structure_tensor.ravel())
    with pytest.raises(Degenerate):
        classify_4d(params)


def test_build_positive_pairing_family():
    params = AlmostAbelianParams(2, 0, (1, 0), (1, 0), zero_a())
    assert sum(x * y for x, y in zip(params.b, params.v)) == 1
    assert classify_4d(params).name == "A3_4_plus_A1"


def _random_params(rng, n, exact):
    """(a, b, v, A) with small rational entries, or their floats."""
    def q():
        x = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
        return x if exact else float(x)
    m = 2 * n - 2
    return AlmostAbelianParams(n, q(), [q() for _ in range(m)], [q() for _ in range(m)],
                               [[q() for _ in range(m)] for _ in range(m)])


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_params_of_the_built_structure_are_the_params(rng, n, exact):
    for _ in range(5):
        params = _random_params(rng, n, exact)
        alg, s = build_almost_abelian(params)
        assert alg.exact == exact
        assert AlmostAbelianParams.of(s) == params
        assert AlmostAbelianParams.of(s.rescaled(2)) == params


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_built_tensor_is_the_ad_block_and_its_negative(rng, n, exact):
    """[e_2n, e_j] = ad e_j and [e_j, e_2n] = -ad e_j; no other bracket."""
    params = _random_params(rng, n, exact)
    alg, _ = build_almost_abelian(params)
    c, dim = alg.structure_tensor, alg.dim
    assert alg.field.is_zero(alg.ad_basis(dim - 1)[:-1, :-1] - params.ad_matrix())
    assert alg.field.is_zero(c + c.transpose(0, 2, 1))
    assert alg.field.is_zero(c[:, :-1, :-1]) and alg.field.is_zero(c[-1])


@pytest.mark.parametrize("name", ["A4_1", "A4_8", "abelian_kahler"])
def test_params_of_a_structure_outside_the_layout_is_none(name):
    assert AlmostAbelianParams.of(catalog_entry(name)) is None


def test_params_of_is_none_in_another_basis_or_for_negative_g():
    s = catalog_entry("A3_4_plus_A1")
    p = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 1]], dtype=object)
    assert AlmostAbelianParams.of(s) is not None
    assert AlmostAbelianParams.of(s.change_basis(p)) is None
    assert AlmostAbelianParams.of(s.rescaled(-1)) is None


def _spy_constructions(monkeypatch):
    """Names of the LieAlgebra and structure constructors, one per call."""
    calls = []
    for owner, name in ((LieAlgebra, "__init__"), (LieAlgebra, "_of"),
                        (AlmostHermitianStructure, "__init__")):
        raw = owner.__dict__[name]
        func = raw.__func__ if isinstance(raw, classmethod) else raw

        def spy(*args, _func=func, _label=f"{owner.__name__}.{name}", **kwargs):
            calls.append(_label)
            return _func(*args, **kwargs)
        monkeypatch.setattr(owner, name, classmethod(spy) if isinstance(raw, classmethod) else spy)
    return calls


def test_build_makes_the_algebra_from_its_tensor(monkeypatch):
    calls = _spy_constructions(monkeypatch)
    build_almost_abelian(AlmostAbelianParams(2, 0, (1, 0), (0, 1), zero_a()))
    assert calls == ["LieAlgebra._of", "AlmostHermitianStructure.__init__"]


def test_classify_and_report_build_no_algebra_and_no_structure(monkeypatch):
    s = catalog_entry("A4_1_aa")
    calls = _spy_constructions(monkeypatch)
    assert classify_4d(AlmostAbelianParams(2, 0, (1, 0), (0, 1), zero_a())).name == "A4_1"
    assert classify_4d(AlmostAbelianParams(2, 0.0, (1.0, 0.0), (1.0, 0.0), zero_a())).name == (
        "A3_4_plus_A1")
    assert run_report(s).classification["label"]["name"] == "A4_1"
    assert calls == []


def test_build_dimension_checks():
    with pytest.raises(DimensionMismatch):
        AlmostAbelianParams(2, 0, (1,), (0, 1), zero_a())
    with pytest.raises(UnsupportedDimension):
        AlmostAbelianParams(1, 0, (), (), ())


def test_fundamental_form_layout():
    params = AlmostAbelianParams(3, 0, (0,) * 4, (0,) * 4,
                                 tuple(tuple(0 for _ in range(4)) for _ in range(4)))
    _, s = build_almost_abelian(params)
    assert s.F == KForm.from_terms(s.alg, {(1, 6): 1, (2, 5): 1, (3, 4): 1})


def test_lee_form_aa_examples():
    # A = 0, v != 0: theta = (Jv)flat
    p = AlmostAbelianParams(2, 0, (0, 0), (1, 0), zero_a())
    _, s = build_almost_abelian(p)
    assert lee_form_aa(p, s) == KForm.from_terms(s.alg, {(3,): 1})
    # v = 0, A = id, n = 2: theta = -2 e^4
    p2 = AlmostAbelianParams(2, 0, (0, 0), (0, 0), ((1, 0), (0, 1)))
    _, s2 = build_almost_abelian(p2)
    assert lee_form_aa(p2, s2) == KForm.from_terms(s2.alg, {(4,): -2})
    # all zero: theta = 0
    p3 = AlmostAbelianParams(2, 0, (0, 0), (0, 0), zero_a())
    assert lee_form_aa(p3).is_zero()


def test_lee_form_aa_agrees_with_solver_dim6():
    a_mat = tuple(tuple(Fraction(1) if i == j else Fraction(0) for j in range(4))
                  for i in range(4))
    p = AlmostAbelianParams(3, 0, (0,) * 4, (0,) * 4, a_mat)
    _, s = build_almost_abelian(p)
    assert lee_form_aa(p, s) == s.lee_form().theta


def test_condition_systems_spec_values():
    base = dict(b=(1, 0), v=(1, 0))
    all_zero = pluricanonical_conditions_aa(
        AlmostAbelianParams(2, 0, base["b"], base["v"], zero_a()))
    assert all_zero["max_residual"] == 0
    with_a = pluricanonical_conditions_aa(
        AlmostAbelianParams(2, 1, base["b"], base["v"], zero_a()))
    assert with_a["dtheta_anti_invariant"][0] == 1
    with_id = pluricanonical_conditions_aa(
        AlmostAbelianParams(2, 0, (1, 0), (1, 0), ((1, 0), (0, 1))))
    assert with_id["closed_lee"][1] == 1  # |A22 v1 - A12 v2| = 1


def test_condition_systems_need_dim4():
    p = AlmostAbelianParams(3, 0, (0,) * 4, (0,) * 4,
                            tuple(tuple(0 for _ in range(4)) for _ in range(4)))
    with pytest.raises(UnsupportedDimension):
        pluricanonical_conditions_aa(p)


def test_classification_three_cases():
    assert classify_4d(AlmostAbelianParams(2, 0, (1, 0), (0, 1), zero_a())).name == "A4_1"
    assert classify_4d(AlmostAbelianParams(2, 0, (1, 0), (1, 0), zero_a())).name == "A3_4_plus_A1"
    assert classify_4d(AlmostAbelianParams(2, 0, (1, 0), (-1, 0), zero_a())).name == "A3_6_plus_A1"


def test_classification_b_zero_is_two_step_nilpotent():
    label = classify_4d(AlmostAbelianParams(2, 0, (0, 0), (1, 0), zero_a()))
    assert label.name == "other"
    assert label.invariants["jordan_type"] == "nilpotent_j2"


def test_classification_preconditions():
    with pytest.raises(PreconditionFailed):
        classify_4d(AlmostAbelianParams(2, 1, (1, 0), (1, 0), zero_a()))
    with pytest.raises(PreconditionFailed):
        classify_4d(AlmostAbelianParams(2, 0, (1, 0), (0, 0), zero_a()))


def test_off_locus_pluricanonical_member_is_refused_as_not_unimodular(capsys):
    """(-1, (-1, 0), (1, 0), 0) is pluricanonical with a + tr A = -1; the
    condition systems do not hold off that locus, so the reason given is
    unimodularity, and the systems, which would contradict the flag, are not
    evaluated: no residual line, and ``"conditions": null``."""
    s = build_almost_abelian(AlmostAbelianParams(2, -1, (-1, 0), (1, 0), zero_a()))[1]
    report = run_report(s)
    assert report.condition_report["flags"]["pluricanonical"] is True
    assert report.classification["reason"] == "parameters are not unimodular"
    args = ["classify-aa", "--a=-1", "--b=-1,0", "--v=1,0", "--A=0,0;0,0"]
    assert main(args) == 1
    assert capsys.readouterr().out == "not classifiable: parameters are not unimodular\n"
    assert main([*args, "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "conditions": None, "label": None, "reason": "parameters are not unimodular"}


def test_classification_scale_and_rotation_invariance(rng):
    for _ in range(20):
        b = rng.uniform(-2, 2, 2)
        v = rng.uniform(-2, 2, 2)
        if abs(b @ v) < 1e-3 or np.linalg.norm(v) < 0.2:
            continue
        base = classify_4d(AlmostAbelianParams(
            2, 0.0, tuple(b), tuple(v), zero_a())).name
        lam = float(rng.uniform(0.2, 3.0))
        scaled = classify_4d(AlmostAbelianParams(
            2, 0.0, tuple(lam * b), tuple(lam * v), zero_a())).name
        assert scaled == base
        # rotations of n_1 commuting with J_1
        ang = float(rng.uniform(0, 2 * np.pi))
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        rotated = classify_4d(AlmostAbelianParams(
            2, 0.0, tuple(rot @ b), tuple(rot @ v), zero_a())).name
        assert rotated == base


def test_jordan_cross_check_consistency(rng):
    for _ in range(30):
        b = tuple(float(x) for x in rng.uniform(-2, 2, 2))
        v = tuple(float(x) for x in rng.uniform(-2, 2, 2))
        if np.linalg.norm(v) < 0.2 or np.linalg.norm(b) < 0.2:
            continue
        label = classify_4d(AlmostAbelianParams(2, 0.0, b, v, zero_a()))
        assert label.invariants["jordan_cross_check"], label


def test_dual_oracle_conditions_vs_tensors():
    # the parametrized systems vanish iff the tensor-level flags hold;
    # 1000 fuzzed parameter draws across the stratified sub-families.  The
    # pluricanonical and orthogonality systems are derived on the unimodular
    # locus a + tr A = 0 and are compared only there (test_fuzzing pins a
    # member off it where they disagree with the flags).
    compared = 0
    for trial, child in enumerate(np.random.SeedSequence(2027).spawn(1000)):
        rng = np.random.default_rng(child)
        kind = ("general", "lee_closed", "pluricanonical", "orth_not_pluri")[trial % 4]
        params = random_params_4d(rng, kind)
        s = build_almost_abelian(params)[1].as_float()
        rep = classify_metric(s)
        conds = pluricanonical_conditions_aa(params)
        closed_ok = max(abs(x) for x in conds["closed_lee"]) <= 1e-9
        assert closed_ok == rep.flags["lee_closed"], kind
        if rep.flags["is_lcs"] and rep.flags["unimodular"]:
            compared += 1
            assert (conds["max_residual"] <= 1e-9) == rep.flags["pluricanonical"], (
                kind, conds, rep.flags)
            orth_ok = max(abs(x) for x in conds["lee_orthogonal_imN"]) <= 1e-9
            assert orth_ok == rep.flags["T_orthogonal_to_imN"], kind
    assert compared >= 400


def _unimodular_members(count, seed):
    """Exact members on the unimodular locus a = -tr A, in four strata with a
    closed Lee form: a = 0 and A = 0 (pluricanonical); A = v c^T; v = 0; and
    T orthogonal to im N with a != 0 (b.v = |v|^2, A = -(a/|v|^2) v b^T)."""
    rng = np.random.default_rng(seed)

    def q():
        return Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 3)))

    for i in range(count):
        b, v, c = [q(), q()], [q(), q()], [q(), q()]
        if i % 4 == 0:
            A = [[0, 0], [0, 0]]
        elif i % 4 == 1:
            A = [[vi * cj for cj in c] for vi in v]
        elif i % 4 == 2:
            v, A = [0, 0], [[q(), q()], [q(), q()]]
        else:
            v = v if any(v) else [1, 0]
            t, a = q(), q() or 1
            b = [v[0] - t * v[1], v[1] + t * v[0]]
            A = [[-a / (v[0] ** 2 + v[1] ** 2) * vi * bj for bj in b] for vi in v]
        yield AlmostAbelianParams(2, -(A[0][0] + A[1][1]), b, v, A)


def test_condition_systems_match_the_flags_on_the_unimodular_locus():
    lcs, pluricanonical = 0, 0
    for params in _unimodular_members(240, seed=5):
        rep = classify_metric(build_almost_abelian(params)[1])
        assert rep.flags["unimodular"]
        if rep.flags["is_lcs"]:
            lcs += 1
            pluricanonical += rep.flags["pluricanonical"]
            system_says = pluricanonical_conditions_aa(params)["max_residual"] == 0
            assert system_says == rep.flags["pluricanonical"], params
    assert lcs >= 200 and 40 <= pluricanonical <= lcs - 40


def test_lee_cross_oracle_fuzz(rng):
    for trial in range(30):
        kind = ("general", "lee_closed", "pluricanonical", "orth_not_pluri")[trial % 4]
        params = random_params_4d(rng, kind)
        _, s = build_almost_abelian(params)
        diff = lee_form_aa(params, s) - s.lee_form().theta
        assert diff.max_abs() <= 1e-9
