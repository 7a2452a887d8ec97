"""Deciders for the structural conditions of an invariant almost Hermitian pair.

The flags live in a :class:`ConditionReport`; every flag is backed by a named
residual so a report can always be audited.  Exact-mode residuals must vanish
identically; float-mode flags compare against ``tol`` scaled by the norms of
the tensors involved.  :func:`classify_metric` decides each flag once: one
:func:`check_lcs`, one :func:`automorphism_algebra` on LCS structures and one
adapted test (:func:`_adapted`, which decides only the conditions that are
not identities) on first-kind ones.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import arith, connection, identities
from .conventions import CONVENTIONS
from .forms import KForm, compound
from .hermitian import AlmostHermitianStructure


@dataclass
class AutomorphismAlgebra:
    """Solutions of L_X F = 0 with the Lee morphism evaluated on them."""
    basis: list
    lee_values: list
    kind: str  # "first" | "second"

    @property
    def dimension(self):
        return len(self.basis)


@dataclass
class ConditionReport:
    flags: dict
    residuals: dict
    kind: str
    metadata: dict
    warnings: list = field(default_factory=list)

    def as_dict(self):
        return {
            "flags": dict(sorted(self.flags.items())),
            "residuals": {k: float(v) for k, v in sorted(self.residuals.items())},
            "kind": self.kind,
            "metadata": self.metadata,
            "warnings": list(self.warnings),
        }


# ---------------------------------------------------------------------------
# LCS / first kind / adapted
# ---------------------------------------------------------------------------

def check_lcs(structure: AlmostHermitianStructure) -> dict:
    """dF = theta ^ F with d theta = 0, on a valid almost Hermitian pair."""
    val = structure.validation
    lee = structure.lee_form()
    scale, dtheta_residual = lee.theta.max_abs(), lee.dtheta.max_abs()
    is_lcs = (val.ok
              and lee.solve_residual <= structure.field.bound()
              and dtheta_residual <= structure.field.bound(scale))
    return {
        "is_lcs": bool(is_lcs),
        "theta": lee.theta,
        "structure_ok": val.ok,
        "compatibility_residual": val.compatibility_residual,
        "lee_residual": lee.solve_residual,
        "dtheta_residual": dtheta_residual,
    }


def automorphism_algebra(structure: AlmostHermitianStructure) -> AutomorphismAlgebra:
    """Basis of {X : L_X F = 0} and the Lee morphism on it."""
    basis = list(structure.automorphisms)
    theta_vec = structure.lee_form().theta.vector()
    lee_values = [x @ theta_vec for x in basis]
    scale = arith.max_abs(theta_vec)
    onto = not structure.field.is_zero(lee_values, scale)
    return AutomorphismAlgebra(basis=basis, lee_values=lee_values,
                               kind="first" if onto else "second")


def check_first_kind(structure: AlmostHermitianStructure) -> dict:
    """First kind: LCS with an infinitesimal automorphism U of F, theta(U) = 1.

    Then F = d eta - theta ^ eta for eta = -i_U F by Cartan's formula, so
    only the decision is returned: theta is nonzero on the automorphism
    algebra of F, and the structure is LCS.
    """
    aut = automorphism_algebra(structure)
    return {"first_kind": check_lcs(structure)["is_lcs"] and aut.kind == "first",
            "kind": aut.kind, "automorphism_dim": aut.dimension}


def check_adapted(structure: AlmostHermitianStructure) -> dict:
    """Is J adapted to the first-kind structure?  See :func:`_adapted`;
    ``residuals`` is empty and ``adapted`` false off the first kind, and
    ``scale_normalized`` says that the test was stated for g scaled by
    ``lee_norm_sq`` = |theta|^2 != 1."""
    c = structure.lee_form().norm_sq
    out = {"first_kind": check_first_kind(structure)["first_kind"], "adapted": False,
           "residuals": {}, "lee_norm_sq": c}
    if out["first_kind"]:
        out.update(_adapted(structure))
    out["scale_normalized"] = out["first_kind"] and c != 1
    return out


def _adapted(s) -> dict:
    """The adapted test on a first-kind structure, stated for |theta| = 1.

    With T = theta sharp = J V and eta = -i_T F = -J theta (:class:`LeeData`)
    the rest of the definition holds for every valid (J, g) with theta != 0:
    theta(T) = |theta|^2, J preserves H = ker theta  /\\  ker eta, which has
    dimension dim - 2, and H + span(T, V) is g-orthogonal with |T| = |V| =
    |theta|.  Left to decide: L_T F = 0, and d eta(., J.) restricted to H
    symmetric and positive definite.

    The scaling g -> c g with c = |theta|^2 leaves theta, eta, H, d eta and
    L_T F as they are (T and V are divided by c), so it reaches only the
    float bound.
    """
    lee, f = s.lee_form(), s.field
    c = arith.to_float(lee.norm_sq)
    h = f.array(arith.nullspace(f.array([lee.theta.vector(), lee.eta.vector()]), f))
    gram = _deta_gram(s, lee.eta.d(), h)
    pd = arith.is_positive_definite(f.scalar(1, 2) * (gram + gram.T), f)
    res = {"automorphism": s.lie_derivative_F(lee.T).max_abs(),
           "deta_metric_symmetric": arith.max_abs(gram - gram.T),
           "deta_metric_positive": 0.0 if pd else 1.0}
    bound = f.bound(max(1.0 + c, c * s.F.max_abs()))
    return {"adapted": pd and all(r <= bound for r in res.values()), "residuals": res}


def _deta_gram(structure, d_eta: KForm, h):
    """gram[a, b] = d eta(h_a, J h_b) for the rows h_a of ``h``: H M J H^T."""
    return h @ d_eta.matrix() @ structure.J @ h.T


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------

# The paper's implications, one row each: (hypothesis flags, hypothesis,
# conclusion, residual(s, lee)).  A residual above bound(10) where every
# hypothesis flag holds is an implementation bug, not a property of the input.
# The "T orth im N" statements are proved for LCS metrics only.
_ORTH = ("is_lcs", "T_orthogonal_to_imN")
IMPLIED = (
    (("pluricanonical",), "pluricanonical", "Gauduchon",
     lambda s, lee: abs(arith.to_float(s.delta_theta))),
    (("pluricanonical",), "pluricanonical", "L_T F = 0",
     lambda s, lee: s.lie_derivative_F(lee.T).max_abs()),
    (("pluricanonical",), "pluricanonical", "dJtheta = -|theta|^2 F + theta^Jtheta",
     lambda s, lee: (lee.djtheta - (-1 * lee.norm_sq * s.F
                                    + lee.theta.wedge(lee.jtheta))).max_abs()),
    (("pluricanonical",), "pluricanonical", "D_T theta = 0",
     lambda s, lee: arith.max_abs(lee.T @ s.Dtheta)),
    (("pluricanonical",), "pluricanonical", "D_JT theta = 0",
     lambda s, lee: arith.max_abs(lee.JT @ s.Dtheta)),
    (("pluricanonical",), "pluricanonical", "D_T Jtheta = 0",
     lambda s, lee: arith.max_abs(lee.T @ connection.covariant_one_form(s, lee.jtheta))),
    (("pluricanonical",), "pluricanonical", "D_JT Jtheta = 0",
     lambda s, lee: arith.max_abs(lee.JT @ connection.covariant_one_form(s, lee.jtheta))),
    (("pluricanonical",), "pluricanonical", "[T,JT] = 0",
     lambda s, lee: arith.max_abs(s.alg.bracket(lee.T, lee.JT))),
    (_ORTH, "T orth im N", "dJtheta J-invariant",
     lambda s, lee: arith.max_abs(s.split_tensor(lee.djtheta.matrix())["j_minus"])),
    (_ORTH, "T orth im N", "N(T) symmetric",
     lambda s, lee: arith.max_abs(s.split_tensor(s.nijenhuis_tensor(lee.T))["antisym"])),
    (_ORTH, "T orth im N", "D_T J = 0",
     lambda s, lee: arith.max_abs(lee.T.reshape(1, s.dim)
                                  @ s.connection.DJ.reshape(s.dim, -1))),
    (_ORTH, "T orth im N", "D_JT J = 0",
     lambda s, lee: arith.max_abs(lee.JT.reshape(1, s.dim)
                                  @ s.connection.DJ.reshape(s.dim, -1))),
    (("unimodular", "pluricanonical"), "unimodular pluricanonical", "rho*(T,JT) = 0",
     lambda s, lee: abs(arith.to_float(connection.star_ricci(s)(lee.T, lee.JT)))),
    (("unimodular", "pluricanonical"), "unimodular pluricanonical",
     "|(Dtheta)^{J,+}|^2 + 2<D_JT theta, Jtheta> = 0",
     lambda s, lee: abs(arith.to_float(identities.unimodular_pluricanonical_defect(s)))),
)

# The equivalences (a)-(c): (key, applicability flags, (lhs key, lhs flags),
# (rhs key, rhs flags)).  A side holds when all its flags do; theta_nonzero and
# bracket_vanishes are derived in verify_equivalences.
EQUIVALENT = (
    ("first_kind_adapted", ("is_lcs", "theta_nonzero"),
     ("lhs_first_kind_and_adapted", ("first_kind", "adapted")),
     ("rhs_pluricanonical", ("pluricanonical",))),
    ("unimodular_bracket", ("is_lcs", "unimodular", "T_orthogonal_to_imN"),
     ("lhs_pluricanonical", ("pluricanonical",)),
     ("rhs_bracket_vanishes", ("bracket_vanishes",))),
    ("holomorphic_lee_field", ("is_lcs",),
     ("lhs_anti_pluricanonical", ("anti_pluricanonical",)),
     ("rhs_L_T_J_zero", ("lee_field_holomorphic",))),
)


def classify_metric(structure: AlmostHermitianStructure) -> ConditionReport:
    """Populate every structural flag with its residual, plus implication warnings."""
    s = structure
    lcs, lee = check_lcs(s), s.lee_form()
    flags, warnings = {"is_lcs": lcs["is_lcs"]}, []
    residuals = {"compatibility": float(s.validation.compatibility_residual),
                 "lee_solve": float(lcs["lee_residual"])}

    nij, parts = s._nijenhuis, s.split_tensor(s.Dtheta)
    th, dth, t_max = lee.theta.max_abs(), arith.max_abs(s.Dtheta), arith.max_abs(lee.T)
    orth = max(arith.max_abs(s.field.einsum('k,kij->ij', s.g @ x, nij)) for x in (lee.T, lee.JT))
    # the flags a residual decides, next to IMPLIED and EQUIVALENT: (flag, residual
    # key, residual, scale, *needs); it holds iff all needs and residual <= bound(scale)
    rows = (
        ("structure_valid", "jacobi", s.alg.jacobi_residual(), 1.0, s.validation.ok),
        ("lee_closed", "dtheta", lcs["dtheta_residual"], th),
        ("is_gcs", "theta_norm", th, 1.0),
        ("is_gauduchon", "delta_theta", abs(arith.to_float(s.delta_theta)), th),
        ("T_orthogonal_to_imN", "imN_span_T_JT", orth, arith.max_abs(nij) * max(1.0, t_max)),
        ("Dtheta_J_anti_invariant", "dtheta_j_plus", arith.max_abs(parts["j_plus"]), dth),
        ("Dtheta_J_invariant", "dtheta_j_minus", arith.max_abs(parts["j_minus"]), dth),
        ("vaisman", "dtheta_full", dth, th, lcs["is_lcs"]),
        ("lee_field_holomorphic", "lie_T_J", arith.max_abs(s.lie_derivative_J(lee.T)), t_max),
        ("JT_killing", "lie_JT_g", arith.max_abs(s.lie_derivative_g(lee.JT)),
         arith.max_abs(lee.JT)),
    )
    for flag, key, residual, scale, *needs in rows:
        residuals[key] = float(residual)
        flags[flag] = all(needs) and residuals[key] <= s.field.bound(scale)

    lcs_orth = flags["is_lcs"] and flags["T_orthogonal_to_imN"]
    flags["pluricanonical"] = lcs_orth and flags["Dtheta_J_anti_invariant"]
    flags["anti_pluricanonical"] = lcs_orth and flags["Dtheta_J_invariant"]
    kind = automorphism_algebra(s).kind if flags["is_lcs"] else "second"
    flags["first_kind"] = kind == "first"
    flags["adapted"] = flags["first_kind"] and _adapted(s)["adapted"]
    flags["unimodular"] = bool(s.alg.is_unimodular()[0])

    for hyp, text, conclusion, residual in IMPLIED:
        if all(flags[k] for k in hyp):
            r = residual(s, lee)
            if r > s.field.bound(10.0):
                warnings.append(f"{text} should imply {conclusion}; residual {float(r):.3e}")
    if flags["vaisman"] and not (flags["pluricanonical"] and flags["anti_pluricanonical"]):
        warnings.append("vaisman flag set but pluricanonical/anti-pluricanonical "
                        "did not both follow")

    metadata = {
        "arithmetic_mode": "exact" if s.exact else "float",
        "tolerance": s.tol,
        "lee_norm_sq": arith.format_scalar(lee.norm_sq),
        "conventions": CONVENTIONS,
    }
    return ConditionReport(flags=flags, residuals=residuals, kind=kind,
                           metadata=metadata, warnings=warnings)


# ---------------------------------------------------------------------------
# theorem-level equivalences
# ---------------------------------------------------------------------------

def verify_equivalences(structure: AlmostHermitianStructure,
                        report: ConditionReport = None) -> dict:
    """Evaluate both sides of each theorem-level equivalence independently.

    (a)-(c) are the rows of :data:`EQUIVALENT`, applicable where the flags in
    brackets hold and consistent unless they apply and their sides differ:
    (a) pluricanonical <=> first kind and adapted     (LCS, theta != 0)
    (b) pluricanonical <=> g([T,JT],JT) = 0           (LCS, unimodular, T orth im N)
    (c) anti-pluricanonical <=> L_T J = 0             (LCS)
    """
    s = structure
    rep = report or classify_metric(s)
    lee = s.lee_form()
    out = {}

    bk = s.alg.bracket(lee.T, lee.JT)
    g_bk = bk @ s.g @ lee.JT
    scale_b = arith.max_abs(bk) * max(1.0, arith.max_abs(lee.JT))
    held = {**rep.flags, "theta_nonzero": not rep.flags["is_gcs"],
            "bracket_vanishes": abs(arith.to_float(g_bk)) <= s.field.bound(scale_b)}
    for key, hyp, (lhs_key, lhs_flags), (rhs_key, rhs_flags) in EQUIVALENT:
        applicable = all(held[k] for k in hyp)
        lhs, rhs = all(held[k] for k in lhs_flags), all(held[k] for k in rhs_flags)
        out[key] = {"applicable": applicable, lhs_key: lhs, rhs_key: rhs,
                    "consistent": not applicable or lhs == rhs}
    out["unimodular_bracket"]["g_T_JT_JT"] = arith.to_float(g_bk)
    out["all_consistent"] = all(v["consistent"] for v in out.values())
    return out


# ---------------------------------------------------------------------------
# compatible-form feasibility
# ---------------------------------------------------------------------------

def _feasibility_subspace(structure):
    """Basis of {omega in Lambda^2 : omega J-invariant, d omega^{n-1} = 0}.

    Exact for n = 2 (there d omega^{n-1} = d omega).  For n >= 3 the closed
    slice d omega = 0 is searched (the constraint is no longer linear);
    the report records which space was used.
    """
    s = structure
    # the J-invariance defect omega - J^T omega J is 1 - C_2(J)^T on the pair
    # basis, C_2 the second compound; then the matrix of d on 2-forms.  A
    # nullspace vector is already a 2-form's coefficients in storage order.
    c2 = compound(s.field, s.J, 2)
    mat = s.field.array([*(s.field.eye(len(c2)) - c2.T), *s.alg.d_matrix(2)])
    return [KForm._of(s.alg, 2, x) for x in arith.nullspace(mat, s.field)]


# the ascent's seed, number of restarts and iterations per restart
FEASIBILITY_SEED, FEASIBILITY_RESTARTS, FEASIBILITY_ITERATIONS = 0, 64, 250


def symplectic_feasibility(structure: AlmostHermitianStructure) -> dict:
    """Search invariant J-compatible forms with d omega^{n-1} = 0.

    n = 2 is decided by :func:`_wedge_square_test`; for n >= 3 projected
    subgradient ascent from ``FEASIBILITY_RESTARTS`` seeded starts maximizes the
    least eigenvalue of omega(., J.) on the subspace's unit sphere.  Outcomes:

    * ``feasible`` only with a witness checked positive in the structure's
      field (exact mode rounds the optimum's coefficients to small rationals
      first), scaled so that <omega, F> = n;
    * ``infeasible`` only with a certificate: an empty subspace, a negative
      definite wedge square (n = 2) or u with omega(u, Ju) = 0 on the whole
      subspace, checked in the structure's field;
    * else ``inconclusive``.
    """
    s = structure
    basis_forms = _feasibility_subspace(s)
    out = {
        "search_space": "closed_j_invariant" if s.n > 2 else "balanced_j_invariant",
        "subspace_dimension": len(basis_forms),
        "status": "inconclusive",
        "optimum": None,
        "witness": None,
        "certificate": None,
        "restarts": 0 if s.n == 2 else FEASIBILITY_RESTARTS,
    }
    if not basis_forms:
        return {**out, "status": "infeasible", "certificate": "empty_subspace"}
    if s.n == 2:
        return {**out, **_wedge_square_test(s, basis_forms)}
    J = np.asarray(s.J, dtype=float)
    G = np.stack([np.asarray(w.matrix(), dtype=float) @ J for w in basis_forms])
    G = 0.5 * (G + G.transpose(0, 2, 1))
    best_val, best_x = _ascent(G, FEASIBILITY_SEED, FEASIBILITY_RESTARTS,
                               FEASIBILITY_ITERATIONS)
    out["optimum"] = best_val
    if best_val > s.tol:
        # exact mode snaps x to small rationals: drops optimizer noise in flat
        # directions and recovers canonical witnesses like F itself
        for x in (([arith.rationalize(c, den) for c in best_x] for den in (12, 64, 4096, 10 ** 6))
                  if s.exact else [best_x]):
            witness = _scaled_witness(s, KForm._of(s.alg, 2, sum(
                c * w.vec for c, w in zip(x, basis_forms))))
            if witness is not None:
                return {**out, "status": "feasible", "witness": witness}
        return out
    cert = _isotropic_certificate(s, basis_forms, G, best_x)
    return out if cert is None else {**out, "status": "infeasible", "certificate": cert}


def _wedge_square_test(s, forms):
    """n = 2: F if closed, else the sign of omega ^ omega / F ^ F on ``forms``
    (S. K. Donaldson, 2006; the argument is in the README's scope note)."""
    f, omega = s.field, s.F
    if not f.is_zero(s.F.d().vec, s.F.max_abs()):
        q = f.array([[a.wedge(b).vec[0] for b in forms] for a in forms])
        x = _wedge_sign(q if s.F.wedge(s.F).vec[0] > 0 else -q, f)
        if x is None:  # q singular: omega_a(u, Ju) = 0 for u in ker omega_0(., J.)
            kernel = arith.nullspace(q, f)
            if not kernel:
                return {"status": "infeasible", "certificate": "wedge_square_negative_definite"}
            u = arith.nullspace(sum(c * w.matrix() for c, w in zip(kernel[0], forms)) @ s.J, f)
            fmt = arith.format_scalar if s.exact else float
            return {"status": "infeasible", "certificate": [fmt(c) for c in u[0]]} if u else {}
        omega = KForm._of(s.alg, 2, sum(c * w.vec for c, w in zip(x, forms)))
    witness = _scaled_witness(s, omega)
    return {} if witness is None else {"status": "feasible", "witness": witness}


def _wedge_sign(q, field):
    """x with x^T q x > 0, or None when ``q`` is negative semidefinite (0 within
    ``field.bound``), by symmetric elimination with diagonal pivots."""
    m, dirs = [list(r) for r in q], [list(r) for r in field.eye(len(q))]
    eps, live = field.bound(arith.max_abs(q)), list(range(len(q)))
    while live:
        i = max(live, key=lambda r: m[r][r])
        if m[i][i] > eps:
            return dirs[i]
        # a zero pivot next to e = m_ij != 0: the value e^2 (2|e| - m_jj) at a d_i + e d_j
        j = max(live, key=lambda c: (c != i, abs(m[i][c])))
        a, e = abs(m[i][j]) - m[j][j], m[i][j]
        if a * a * m[i][i] + e * e * (2 * a + m[j][j]) > eps * (a * a + e * e):
            return [a * x + e * y for x, y in zip(dirs[i], dirs[j])]
        p = min(live, key=lambda r: m[r][r])
        if m[p][p] < -eps:  # eliminate the most negative pivot
            for r in set(live) - {p}:
                t = m[r][p] / m[p][p]
                dirs[r] = [x - t * y for x, y in zip(dirs[r], dirs[p])]
                m[r] = [x - t * y for x, y in zip(m[r], m[p])]
        live.remove(p if m[p][p] < -eps else i)  # else every pivot and row i are 0
    return None


def _ascent(G, seed, restarts, iterations):
    """Maximize the least eigenvalue of sum_a x_a G[a] over the unit sphere.

    ``G`` stacks the symmetrized matrices of omega_a(., J.).  All restarts
    take each step together: one stacked ``eigh`` per iteration.  A restart
    whose step lands on 0 stays there.  Returns the best optimum (the first
    restart reaching it) and its coefficients.
    """
    X = np.random.default_rng(seed).standard_normal((restarts, len(G)))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    live = np.ones(restarts, dtype=bool)
    step = 0.5
    for it in range(iterations):
        _, V = np.linalg.eigh(np.einsum("rk,kij->rij", X, G))
        U = V[:, :, 0]
        X = X + step * np.einsum("ri,kij,rj->rk", U, G, U) * live[:, None]
        nrm = np.linalg.norm(X, axis=1)
        live &= nrm > 0
        X /= np.where(live, nrm, 1.0)[:, None]
        step = 0.5 / (1 + it / 25.0)
    vals = np.linalg.eigvalsh(np.einsum("rk,kij->rij", X, G))[:, 0]
    best = int(np.argmax(vals))
    return float(vals[best]), X[best]


def _scaled_witness(s, omega):
    """+-omega scaled so that <omega, F> = n if it is positive (checked unscaled), else None."""
    pairing = s.form_inner(omega, s.F)
    gw = (1 if pairing > 0 else -1) * (omega.matrix() @ s.J)
    if arith.is_positive_definite(s.field.scalar(1, 2) * (gw + gw.T), s.field):
        return (s.field.scalar(s.n) / pairing) * omega


def _isotropic_certificate(structure, basis_forms, G, best_x):
    """A vector u with omega(u, Ju) = 0 for every omega in the subspace,
    checked by ``field.is_zero``.

    ``G[a]`` is the symmetrized float matrix of omega_a(., J.).  Candidates are
    the coordinate axes and a basis of the near-kernel of sum_a x_a G[a] at
    the optimum.  Exact mode scales each so its largest entry is 1 and rounds
    it to small rationals; float mode scales it to unit length.
    """
    s = structure
    dim = s.dim
    w_eig, v_eig = np.linalg.eigh(np.tensordot(best_x, G, 1))
    kernel = v_eig[:, np.abs(w_eig) <= 10 * s.tol]
    candidates = list(np.eye(dim)) + list(kernel.T)
    nk = kernel.shape[1]
    if nk > 1:
        # eigh returns an arbitrary basis of a degenerate kernel; the basis
        # that is the identity on its best-conditioned nk rows is rational
        # whenever the kernel is
        rows = list(max(combinations(range(dim), nk),
                        key=lambda r: abs(np.linalg.det(kernel[list(r)]))))
        candidates += list((kernel @ np.linalg.inv(kernel[rows])).T)
    wj = [w.matrix() @ s.J for w in basis_forms]
    fmt = arith.format_scalar if s.exact else float
    for cand in candidates:
        if s.exact:
            cand = cand / cand[np.argmax(np.abs(cand))]
            us = (s.field.array([arith.rationalize(c, den) for c in cand]) for den in (64, 4096))
        else:
            us = [cand / np.linalg.norm(cand)]
        for u in us:
            if s.field.is_zero([u @ m @ u for m in wj]):
                return [fmt(c) for c in u]
    return None
