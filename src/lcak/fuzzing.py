"""Deterministic random generators and the identity-fuzzing harness.

A family is one function ``(rng, idx)`` in ``_SAMPLERS``: it draws one sample
and yields ``(check, outcome, context)`` per check, so a new family is one
function and one entry.  ``fuzz`` has one failure rule: a float outcome is a
residual, kept in ``worst_residuals`` and failing above ``IDENTITY_TOL``; a
bool outcome is a yes/no check that fails with residual 1.0 when ``True``.

* ``almost_abelian_4d`` -- mixed (a, b, v, A) draws: fully random, Lee-closed
  (A = v c^T), pluricanonical (a = 0, A = 0), and the off-family with
  b.v = |v|^2 that is LCS with T orthogonal to im N but *not* pluricanonical.
* ``random_unimodular`` -- sparse dim-4 structure constants with traces
  projected to zero and Jacobi enforced by rejection, plus a random (J, g).
* ``random_hermitian`` -- random nilpotent/almost-abelian base algebras under
  a random change of basis with a random compatible (J, g); dimension 4
  (where dF = theta ^ F holds for every structure) and LCS samples in
  dimension 6.

Everything is driven by ``numpy.random.default_rng(seed)`` with one child
generator per sample, so summaries are byte-stable for a fixed seed.
"""
from __future__ import annotations

import json

import numpy as np

from . import conditions, identities
from .algebra import LieAlgebra
from .almostabelian import (AlmostAbelianParams, build_almost_abelian, lee_form_aa,
                           pluricanonical_conditions_aa)
from .forms import KForm
from .hermitian import AlmostHermitianStructure, preset_j

IDENTITY_TOL = 1e-8


def _well_conditioned(rng, dim, spread=0.35, cond_cap=20.0):
    while True:
        m = np.eye(dim) + spread * rng.standard_normal((dim, dim))
        if np.linalg.cond(m) < cond_cap:
            return m


def random_compatible_pair(rng, dim):
    """A random (J, g) with J^2 = -id, g J-invariant positive definite."""
    q = _well_conditioned(rng, dim)
    jm = q @ preset_j("split", dim) @ np.linalg.inv(q)
    h = 0.3 * rng.standard_normal((dim, dim))
    h = h @ h.T + np.eye(dim)
    g = 0.5 * (h + jm.T @ h @ jm)
    return jm, g


def random_params_4d(rng, kind="general") -> AlmostAbelianParams:
    """Draw (a, b, v, A) in one of the stratified sub-families."""
    b = rng.uniform(-2, 2, size=2)
    v = rng.uniform(-2, 2, size=2)
    while np.linalg.norm(v) < 0.3:
        v = rng.uniform(-2, 2, size=2)
    if kind == "general":
        a = float(rng.uniform(-2, 2))
        A = rng.uniform(-2, 2, size=(2, 2))
    elif kind == "lee_closed":
        # A = v c^T keeps d theta = 0 for any c
        a = float(rng.uniform(-2, 2))
        c = rng.uniform(-2, 2, size=2)
        A = np.outer(v, c)
    elif kind == "pluricanonical":
        a = 0.0
        A = np.zeros((2, 2))
    elif kind == "orth_not_pluri":
        # unimodular LCS with T orth im N and a != 0: b.v = |v|^2,
        # A = v c^T with c = -(a/|v|^2) b, a = -tr A
        w = rng.uniform(-2, 2, size=2)
        w = w - (w @ v) / (v @ v) * v
        b = v + w
        a = float(rng.uniform(0.4, 2.0) * rng.choice([-1.0, 1.0]))
        c = -(a / (v @ v)) * b
        A = np.outer(v, c)
    else:
        raise ValueError(f"unknown sub-family {kind!r}")
    return AlmostAbelianParams(2, a, b.tolist(), v.tolist(), A.tolist())


def random_unimodular_4d(rng) -> LieAlgebra:
    """Sparse random constants, traces projected to zero, Jacobi by rejection
    (at most 200 draws)."""
    for _ in range(200):
        br = {}
        for _ in range(int(rng.integers(2, 5))):
            i, j = sorted(rng.choice(4, size=2, replace=False) + 1)
            k = int(rng.integers(1, 5))
            br.setdefault((int(i), int(j)), {})[k] = float(rng.integers(-2, 3))
        alg = LieAlgebra(4, br, exact=False)
        for i, tr in enumerate(alg.is_unimodular()[1], start=1):
            if abs(tr) > 1e-13:
                k0 = 1 if i != 1 else 2
                comps = br.setdefault((min(i, k0), max(i, k0)), {})
                comps[k0] = comps.get(k0, 0.0) - (1 if i < k0 else -1) * tr
        alg = LieAlgebra(4, br, exact=False)
        if alg.jacobi_residual() <= 1e-12 and alg.is_unimodular()[0]:
            return alg
    raise RuntimeError("could not sample a unimodular algebra")


def random_nilpotent(rng, dim) -> LieAlgebra:
    """Two-step nilpotent: brackets of the first block land in a central tail."""
    central = 2
    br = {}
    for i in range(1, dim - central + 1):
        for j in range(i + 1, dim - central + 1):
            br[(i, j)] = {k: float(rng.integers(-2, 3))
                          for k in range(dim - central + 1, dim + 1)}
    return LieAlgebra(dim, br, exact=False)


def random_hermitian_structure(rng, dim=4) -> AlmostHermitianStructure:
    """A random valid almost Hermitian structure.

    dim 4: random base algebra (nilpotent / almost abelian / unimodular) in a
    random basis with a random (J, g).  dim 6: a conjugated LCS structure (the
    identities that need dF = theta ^ F stay testable).
    """
    if dim == 6:
        return _random_lcs_6d(rng)
    choice = rng.integers(0, 3)
    if choice == 0:
        alg = random_nilpotent(rng, dim)
    elif choice == 1:
        alg = build_almost_abelian(random_params_4d(rng, "general"))[0]
    else:
        alg = random_unimodular_4d(rng)
    alg = alg.change_basis(_well_conditioned(rng, dim))
    jm, g = random_compatible_pair(rng, dim)
    return AlmostHermitianStructure(alg, jm, g)


def _random_lcs_6d(rng) -> AlmostHermitianStructure:
    # A = lambda * id on n_1, b = v = 0 gives dF = -2 lambda e^6 ^ F exactly
    lam = float(rng.uniform(0.3, 1.5) * rng.choice([-1.0, 1.0]))
    a = float(rng.uniform(-1.5, 1.5))
    A = [[lam if i == j else 0.0 for j in range(4)] for i in range(4)]
    params = AlmostAbelianParams(3, a, (0.0,) * 4, (0.0,) * 4, A)
    s = build_almost_abelian(params)[1]
    return s.change_basis(_well_conditioned(rng, 6))


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

def _almost_abelian_4d(rng, idx):
    kind = ("general", "lee_closed", "pluricanonical", "orth_not_pluri")[idx % 4]
    params = random_params_4d(rng, kind)
    s = build_almost_abelian(params)[1]
    rep = conditions.classify_metric(s)
    eq = conditions.verify_equivalences(s, report=rep)
    context = {"kind": kind, "params": {"a": params.a, "b": list(params.b), "v": list(params.v),
                                        "A": [list(row) for row in params.A]}}
    yield "equivalences", not eq["all_consistent"], context
    # the dim-4 systems are derived on the unimodular locus a + tr A = 0
    system_says = pluricanonical_conditions_aa(params)["max_residual"] <= 1e-9
    yield "condition_system_oracle", bool(rep.flags["is_lcs"] and rep.flags["unimodular"]
                                          and system_says != rep.flags["pluricanonical"]), context
    yield "lee_cross_oracle", (lee_form_aa(params, s) - s.lee_form().theta).max_abs(), {}
    yield "implication_warnings", bool(rep.warnings), {"warnings": rep.warnings}


def _random_unimodular(rng, idx):
    alg = random_unimodular_4d(rng)
    s = AlmostHermitianStructure(alg, *random_compatible_pair(rng, 4))
    for _ in range(3):
        alpha = rng.standard_normal(4)
        delta = s.codifferential(KForm.from_vector(s.alg, alpha))
        yield "codifferential_one_form", abs(delta.coeffs.get((), 0)), {"alpha": alpha.tolist()}
    constants = {f"{i},{j}->{k}": float(v) for (i, j, k), v in alg.sparse_constants().items()}
    yield "dim4_integrand", identities.dim4_integrand_value(s), {"constants": constants}
    yield "bianchi", s.curvature.bianchi_residual(), {}


def _random_hermitian(rng, idx):
    s = random_hermitian_structure(rng, dim=6 if idx % 5 == 4 else 4)
    yield "dj_theta_expansion", identities.dj_theta_expansion_residual(s), {}
    yield "chern_ricci", identities.chern_ricci_residual(s), {}
    for _ in range(2):
        yield "bochner", identities.bochner_residual(s, rng.standard_normal(s.dim)), {}
    phi, psi = _random_j_invariant_pair(s, rng)
    yield "j_invariant_wedge", identities.j_invariant_wedge_residual(s, phi, psi), {}
    if conditions.check_lcs(s)["is_lcs"]:
        yield "covariant_f_lcs", identities.covariant_f_residual(s), {}
        yield "nijenhuis_cyclic_lcs", identities.nijenhuis_cyclic_residual(s), {}


_SAMPLERS = {"almost_abelian_4d": _almost_abelian_4d, "random_unimodular": _random_unimodular,
             "random_hermitian": _random_hermitian}
FAMILIES = tuple(_SAMPLERS)


def _sample_rng(seed, index):
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))


def fuzz(seed: int, count: int, family: str) -> dict:
    """Run the identity checks of one family; deterministic for fixed seed."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; have {FAMILIES}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    failures, worst = [], {}
    for idx in range(count):
        for check, outcome, context in _SAMPLERS[family](_sample_rng(seed, idx), idx):
            residual = float(outcome)
            if not isinstance(outcome, bool):
                worst[check] = max(worst.get(check, 0.0), abs(residual))
            if abs(residual) > IDENTITY_TOL:
                failures.append({"check": check, "sample": idx,
                                 "residual": residual, "context": context})
    return {"family": family, "seed": int(seed), "count": int(count), "samples": int(count),
            "identity_failures": failures, "worst_residuals": {k: worst[k] for k in sorted(worst)}}


def _random_j_invariant_pair(structure, rng):
    """A random J-invariant 2-form and a random 2-form."""
    dim = structure.dim
    m = rng.standard_normal((dim, dim))
    m = 0.5 * (m - m.T)
    phi_m = 0.5 * (m + structure.J.T @ m @ structure.J)
    phi = KForm.from_matrix(structure.alg, phi_m)
    p = rng.standard_normal((dim, dim))
    psi = KForm.from_matrix(structure.alg, 0.5 * (p - p.T))
    return phi, psi


def summary_to_json(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True, indent=2) + "\n"
