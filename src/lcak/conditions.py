"""Deciders for the structural conditions of an invariant almost Hermitian pair.

The flags live in a :class:`ConditionReport`; every flag is backed by a named
residual so a report can always be audited.  Exact-mode residuals must vanish
identically; float-mode flags compare against ``tol`` scaled by the norms of
the tensors involved.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import arith, connection, identities
from .conventions import CONVENTIONS
from .errors import NotFirstKind, NotLCS
from .forms import KForm, compound
from .hermitian import AlmostHermitianStructure, Tensor2


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
    scale, dtheta_residual = max(1.0, lee.theta.max_abs()), lee.dtheta.max_abs()
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
    scale = max(1.0, arith.max_abs(theta_vec))
    onto = not structure.field.is_zero(lee_values, scale)
    return AutomorphismAlgebra(basis=basis, lee_values=lee_values,
                               kind="first" if onto else "second")


def _first_kind_flag(structure, strict):
    """(first kind?, automorphism algebra); NotLCS on a strict non-LCS input."""
    lcs = check_lcs(structure)
    if strict and not lcs["is_lcs"]:
        raise NotLCS("structure is not locally conformally symplectic")
    aut = automorphism_algebra(structure)
    return aut.kind == "first" and lcs["is_lcs"], aut


def check_first_kind(structure: AlmostHermitianStructure, strict: bool = True) -> dict:
    """First kind: some infinitesimal automorphism T has theta(T) = 1.

    When it exists, T is normalized to the minimal g-norm solution and the
    reconstruction F = d eta - theta ^ eta with eta = -i_T F is verified.
    """
    first_kind, aut = _first_kind_flag(structure, strict)
    out = {
        "first_kind": first_kind,
        "kind": aut.kind,
        "automorphism_dim": aut.dimension,
        "T_candidate": None,
        "theta_of_T": None,
        "f_reconstruction_residual": None,
    }
    if not out["first_kind"]:
        return out
    lee = structure.lee_form()
    f = structure.field
    theta_vec = lee.theta.vector()
    n_mat = f.numerators(np.array(aut.basis).T)
    gram = f.matmul(n_mat.T, structure.g_num, n_mat)
    w = f.matmul(n_mat.T, theta_vec)
    y = arith.solve_square(gram, w, f)
    lam = w @ y
    coef = y * (f.scalar(1) / lam)
    t_vec = f.matmul(n_mat, coef)
    eta = -1 * structure.F.contract(t_vec)
    recon = eta.d() - lee.theta.wedge(eta) - structure.F
    out["T_candidate"] = t_vec
    out["theta_of_T"] = t_vec @ theta_vec
    scale = max(1.0, structure.F.max_abs())
    out["f_reconstruction_residual"] = recon.max_abs() / scale
    return out


def check_adapted(structure: AlmostHermitianStructure, strict: bool = True,
                  normalize_scale: bool = True) -> dict:
    """Is J adapted to the first-kind structure (after unit Lee-norm scaling)?

    Tests, with T = J V (forced by J theta = -eta):  L_T F = 0, theta(T) = 1,
    J theta = -eta, J preserves H = ker theta  /\\  ker eta, the splitting
    H + span(T, V) is g-orthogonal with T, V orthonormal, and d eta(., J.)
    restricted to H is positive definite.
    """
    first_kind, _ = _first_kind_flag(structure, strict)
    if strict and not first_kind:
        raise NotFirstKind("LCS structure is not of the first kind")
    lee = structure.lee_form()
    norm_sq = lee.norm_sq
    out = {"adapted": False, "lee_norm_sq": norm_sq, "scale_normalized": False,
           "residuals": {}, "first_kind": first_kind}
    if not first_kind or float(norm_sq) <= 0:
        return out
    s = structure
    if normalize_scale and norm_sq != 1:
        s = structure.rescaled(norm_sq)
        out["scale_normalized"] = True
    lee = s.lee_form()
    f = s.field
    res = out["residuals"]
    v_vec = lee.V
    t_vec = f.matmul(s.J_num, v_vec)
    theta_vec = lee.theta.vector()
    res["automorphism"] = s.lie_derivative_F(t_vec).max_abs()
    res["theta_of_T"] = abs(float(t_vec @ theta_vec - 1))
    eta = -1 * s.F.contract(t_vec)
    res["jtheta_plus_eta"] = (s.j_one_form(lee.theta) + eta).max_abs()
    # H = ker theta  /\  ker eta
    eta_vec = eta.vector()
    h_basis = arith.nullspace(np.array([theta_vec, eta_vec]), s.field)
    k = len(h_basis)
    res["h_dimension_defect"] = abs(k - (s.dim - 2))
    # the rows of h span H; (J h) . alpha = h J^T alpha
    h = f.numerators(np.array(h_basis).reshape(k, s.dim))
    res["j_preserves_h"] = arith.max_abs(f.matmul(h, s.J_num.T,
                                                  np.array([theta_vec, eta_vec]).T))
    tv = f.numerators(np.array([t_vec, v_vec]))
    res["splitting_orthogonal"] = arith.max_abs(f.matmul(h, s.g_num, tv.T))
    res["tv_orthonormal"] = arith.max_abs(f.matmul(tv, s.g_num, tv.T) - f.eye(2))
    gram = _deta_gram(s, eta.d(), h)
    sym_defect = arith.max_abs(gram - gram.T)
    res["deta_metric_symmetric"] = sym_defect
    sym = s.field.scalar(1, 2) * (gram + gram.T)
    pd = arith.is_positive_definite(sym, s.field) if k else True
    res["deta_metric_positive"] = 0.0 if pd else 1.0
    scale = max(1.0, s.F.max_abs(), 1.0 + float(abs(norm_sq)))
    bound = s.field.bound(scale)
    out["adapted"] = (pd
                      and res["h_dimension_defect"] == 0
                      and all(r <= bound for key, r in res.items()
                              if key not in ("deta_metric_positive", "h_dimension_defect")))
    return out


def _deta_gram(structure, d_eta: KForm, h):
    """gram[a, b] = d eta(h_a, J h_b) for the rows h_a of ``h``: H M J H^T."""
    return structure.field.matmul(h, d_eta.matrix(), structure.J_num, h.T)


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------

def classify_metric(structure: AlmostHermitianStructure) -> ConditionReport:
    """Populate every structural flag with its residual, plus implication warnings."""
    s = structure
    flags = {}
    residuals = {}
    warnings = []

    val = s.validation
    residuals["jacobi"] = float(s.alg.jacobi_residual())
    residuals["compatibility"] = float(val.compatibility_residual)
    flags["structure_valid"] = bool(val.ok and residuals["jacobi"] <= s.field.bound())

    lcs = check_lcs(s)
    lee = s.lee_form()
    theta = lee.theta
    residuals["lee_solve"] = float(lcs["lee_residual"])
    residuals["dtheta"] = float(lcs["dtheta_residual"])
    flags["is_lcs"] = lcs["is_lcs"]
    flags["lee_closed"] = residuals["dtheta"] <= s.field.bound(theta.max_abs())
    residuals["theta_norm"] = float(theta.max_abs())
    flags["is_gcs"] = residuals["theta_norm"] <= s.field.bound()

    residuals["delta_theta"] = abs(float(s.delta_theta))
    flags["is_gauduchon"] = residuals["delta_theta"] <= s.field.bound(theta.max_abs())

    # orthogonality of im N to span(T, JT)
    nij = s._nijenhuis
    orth = max(arith.max_abs(s.field.einsum('k,kij->ij', s.field.matmul(s.g_num, lee.T), nij)),
               arith.max_abs(s.field.einsum('k,kij->ij', s.field.matmul(s.g_num, lee.JT), nij)))
    residuals["imN_span_T_JT"] = orth
    n_scale = max(1.0, arith.max_abs(nij) * max(1.0, arith.max_abs(lee.T)))
    flags["T_orthogonal_to_imN"] = orth <= s.field.bound(n_scale)

    dth = s.Dtheta
    parts = s.split_tensor(dth)
    dth_scale = max(1.0, dth.max_abs())
    residuals["dtheta_j_plus"] = float(parts["j_plus"].max_abs())
    residuals["dtheta_j_minus"] = float(parts["j_minus"].max_abs())
    residuals["dtheta_full"] = float(dth.max_abs())
    flags["Dtheta_J_anti_invariant"] = residuals["dtheta_j_plus"] <= s.field.bound(dth_scale)
    flags["Dtheta_J_invariant"] = residuals["dtheta_j_minus"] <= s.field.bound(dth_scale)
    flags["vaisman"] = (flags["is_lcs"]
                        and residuals["dtheta_full"] <= s.field.bound(theta.max_abs()))

    flags["pluricanonical"] = (flags["is_lcs"] and flags["T_orthogonal_to_imN"]
                               and flags["Dtheta_J_anti_invariant"])
    flags["anti_pluricanonical"] = (flags["is_lcs"] and flags["T_orthogonal_to_imN"]
                                    and flags["Dtheta_J_invariant"])

    ltj = s.lie_derivative_J(lee.T)
    residuals["lie_T_J"] = float(arith.max_abs(ltj))
    flags["lee_field_holomorphic"] = (residuals["lie_T_J"]
                                      <= s.field.bound(arith.max_abs(lee.T)))
    ljt_g = s.lie_derivative_g(lee.JT)
    residuals["lie_JT_g"] = float(ljt_g.max_abs())
    flags["JT_killing"] = residuals["lie_JT_g"] <= s.field.bound(arith.max_abs(lee.JT))

    kind = "second"
    flags["first_kind"] = False
    flags["adapted"] = False
    if flags["is_lcs"]:
        fk = check_first_kind(s, strict=False)
        kind = fk["kind"]
        flags["first_kind"] = fk["first_kind"]
        if fk["first_kind"]:
            ad = check_adapted(s, strict=False)
            flags["adapted"] = ad["adapted"]
            residuals["adapted_jtheta_plus_eta"] = float(
                ad["residuals"].get("jtheta_plus_eta", 0.0))

    uni, _traces = s.alg.is_unimodular()
    flags["unimodular"] = bool(uni)

    # implication warnings: hypotheses proved in the source theory; a failure
    # here indicates an implementation bug, not a property of the input.
    def warn_if(cond, hypothesis, conclusion, residual):
        if cond and residual > s.field.bound(10.0):
            warnings.append(f"{hypothesis} should imply {conclusion}; "
                            f"residual {float(residual):.3e}")

    if flags["pluricanonical"]:
        warn_if(True, "pluricanonical", "Gauduchon", residuals["delta_theta"])
        ltf = s.lie_derivative_F(lee.T).max_abs()
        warn_if(True, "pluricanonical", "L_T F = 0", ltf)
        target = -1 * lee.norm_sq * s.F + theta.wedge(lee.jtheta)
        warn_if(True, "pluricanonical", "dJtheta = -|theta|^2 F + theta^Jtheta",
                (lee.djtheta - target).max_abs())
    if flags["is_lcs"] and flags["T_orthogonal_to_imN"]:
        # proved for LCS metrics only (dF = theta ^ F, d theta = 0)
        jminus = s.split_tensor(Tensor2(s.alg, lee.djtheta.matrix()))["j_minus"].max_abs()
        warn_if(True, "T orth im N", "dJtheta J-invariant", jminus)
        nt = s.nijenhuis_tensor(lee.T)
        warn_if(True, "T orth im N", "N(T) symmetric", nt.antisym().max_abs())
        dj = s.connection.DJ_num
        dj = arith.Numerators(dj.num.reshape(s.dim, -1), dj.den)
        warn_if(True, "T orth im N", "D_T J = 0",
                arith.max_abs(s.field.matmul(lee.T.reshape(1, s.dim), dj)))
        warn_if(True, "T orth im N", "D_JT J = 0",
                arith.max_abs(s.field.matmul(lee.JT.reshape(1, s.dim), dj)))
    if flags["vaisman"]:
        if not (flags["pluricanonical"] and flags["anti_pluricanonical"]):
            warnings.append("vaisman flag set but pluricanonical/anti-pluricanonical "
                            "did not both follow")
    if flags["unimodular"] and flags["pluricanonical"]:
        rho = connection.star_ricci(s)
        warn_if(True, "unimodular pluricanonical", "rho*(T,JT) = 0",
                abs(float(rho(lee.T, lee.JT))))
        warn_if(True, "unimodular pluricanonical",
                "|(Dtheta)^{J,+}|^2 + 2<D_JT theta, Jtheta> = 0",
                abs(float(identities.unimodular_pluricanonical_defect(s))))

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

def verify_equivalences(structure: AlmostHermitianStructure, strict: bool = True,
                        report: ConditionReport = None) -> dict:
    """Evaluate both sides of each theorem-level equivalence independently.

    (a) pluricanonical <=> first kind and adapted            (theta != 0)
    (b) on unimodular with T orth im N:
        pluricanonical <=> g([T,JT],JT) = 0                  (LCS)
    (c) anti-pluricanonical <=> L_T J = 0                    (LCS, T orth im N)
    (d) pluricanonical => D_T theta = D_JT theta = D_T Jtheta
        = D_JT Jtheta = [T,JT] = 0
    (e) dim 4 unimodular: the wedge-square integrand of dJtheta vanishes
    """
    s = structure
    rep = report or classify_metric(s)
    if strict and not rep.flags["is_lcs"]:
        raise NotLCS("equivalences need an LCS structure")
    lee = s.lee_form()
    out = {}
    bound = s.field.bound(max(1.0, float(abs(lee.norm_sq)) ** 1.5))

    pluri = rep.flags["pluricanonical"]
    nondegenerate_theta = not rep.flags["is_gcs"]
    fk = rep.flags["first_kind"]
    ad = rep.flags["adapted"]
    out["first_kind_adapted"] = {
        "applicable": bool(rep.flags["is_lcs"] and nondegenerate_theta),
        "lhs_first_kind_and_adapted": bool(fk and ad),
        "rhs_pluricanonical": bool(pluri),
        "consistent": (not (rep.flags["is_lcs"] and nondegenerate_theta))
                      or (bool(fk and ad) == bool(pluri)),
    }

    bk = s.alg.bracket(lee.T, lee.JT)
    g_bk = s.field.matmul(bk, s.g_num, lee.JT)
    scale_b = max(1.0, arith.max_abs(bk) * max(1.0, arith.max_abs(lee.JT)))
    rhs_b = abs(float(g_bk)) <= s.field.bound(scale_b)
    applicable_b = bool(rep.flags["is_lcs"] and rep.flags["unimodular"]
                        and rep.flags["T_orthogonal_to_imN"])
    out["unimodular_bracket"] = {
        "applicable": applicable_b,
        "lhs_pluricanonical": bool(pluri),
        "rhs_bracket_vanishes": bool(rhs_b),
        "g_T_JT_JT": float(g_bk),
        "consistent": (not applicable_b) or (bool(pluri) == bool(rhs_b)),
    }

    holo = rep.flags["lee_field_holomorphic"]
    anti = rep.flags["anti_pluricanonical"]
    applicable_c = bool(rep.flags["is_lcs"])
    out["holomorphic_lee_field"] = {
        "applicable": applicable_c,
        "lhs_anti_pluricanonical": bool(anti),
        "rhs_L_T_J_zero": bool(holo),
        "consistent": (not applicable_c) or (bool(anti) == bool(holo)),
    }

    if pluri:
        f = s.field
        dth = f.numerators(s.Dtheta.mat)
        djth = f.numerators(connection.covariant_one_form(s, lee.jtheta).mat)
        vals = {
            "D_T_theta": arith.max_abs(f.matmul(lee.T, dth)),
            "D_JT_theta": arith.max_abs(f.matmul(lee.JT, dth)),
            "D_T_Jtheta": arith.max_abs(f.matmul(lee.T, djth)),
            "D_JT_Jtheta": arith.max_abs(f.matmul(lee.JT, djth)),
            "bracket_T_JT": arith.max_abs(bk),
        }
        out["pluricanonical_consequences"] = {
            "applicable": True,
            "residuals": {k: float(v) for k, v in vals.items()},
            "consistent": all(v <= bound for v in vals.values()),
        }
    else:
        out["pluricanonical_consequences"] = {"applicable": False, "consistent": True}

    if s.dim == 4 and rep.flags["unimodular"]:
        integrand = identities.dim4_integrand_value(s)
        scale_e = max(1.0, float(abs(lee.norm_sq)) ** 2)
        out["dim4_integrand"] = {
            "applicable": True,
            "value": float(integrand),
            "consistent": abs(integrand) <= s.field.bound(10 * scale_e),
        }
    else:
        out["dim4_integrand"] = {"applicable": False, "consistent": True}

    out["all_consistent"] = all(v.get("consistent", True) for v in out.values()
                                if isinstance(v, dict))
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
    pairs = list(combinations(range(s.dim), 2))
    # the J-invariance defect omega - J^T omega J is 1 - C_2(J)^T on the pair
    # basis, C_2 the second compound; then the matrix of d on 2-forms
    defect = s.field.eye(len(pairs)) - s.field.fractions(*compound(s.J_num, 2)).T
    mat = np.concatenate([defect, s.field.fractions(*s.alg.d_matrix(2))])
    return [KForm(s.alg, 2, dict(zip(pairs, x))) for x in arith.nullspace(mat, s.field)]


def symplectic_feasibility(structure: AlmostHermitianStructure, seed: int = 0,
                           restarts: int = 64, iterations: int = 250) -> dict:
    """Search invariant J-compatible forms with d omega^{n-1} = 0.

    Maximizes the minimal eigenvalue of omega(., J.) over the unit sphere of
    the constraint subspace by projected subgradient ascent.  Outcomes:

    * ``feasible`` with a witness when the optimum exceeds tol;
    * ``infeasible`` when the optimum is <= -tol, or when an exact isotropic
      certificate u with omega(u, Ju) = 0 for the whole subspace exists
      (then no compatible metric can be positive definite);
    * ``inconclusive`` otherwise.
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
        "restarts": restarts,
    }
    if not basis_forms:
        out["status"] = "infeasible"
        out["certificate"] = "empty_subspace"
        return out
    W = np.stack([np.asarray(w.matrix(), dtype=float) for w in basis_forms])
    G = np.stack([w @ np.asarray(s.J, dtype=float) for w in W])
    G = 0.5 * (G + G.transpose(0, 2, 1))
    best_val, best_x = _ascent(G, seed, restarts, iterations)
    out["optimum"] = best_val
    if best_val > s.tol:
        out["status"] = "feasible"
        out["witness"] = _normalize_witness(s, W, basis_forms, best_x)
        return out
    if best_val <= -s.tol:
        out["status"] = "infeasible"
        return out
    cert = _isotropic_certificate(s, basis_forms, G, best_x)
    if cert is not None:
        out["status"] = "infeasible"
        out["certificate"] = cert
    return out


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


def _normalize_witness(structure, W, basis_forms, x):
    """The witness sum_a x_a omega_a scaled so <omega, F> = n; rationalized
    in exact mode.

    ``W`` stacks the float matrices of the basis forms.  The exact path
    rounds the optimizer's coefficients to rationals and re-verifies
    positive definiteness exactly; on failure the float witness is returned,
    on the float copy of the structure.
    """
    s = structure
    if s.exact:
        # snap to small rationals first: drops optimizer noise in flat
        # directions and recovers canonical witnesses like F itself
        for max_den in (12, 64, 4096, 10 ** 6):
            coeffs = [arith.rationalize(c, max_den) for c in x]
            cand = KForm(s.alg, 2)
            for a, w in enumerate(basis_forms):
                cand = cand + coeffs[a] * w
            pairing = s.form_inner(cand, s.F)
            if pairing <= 0:
                continue
            cand = (s.field.scalar(s.n) / pairing) * cand
            gw = s.field.matmul(cand.matrix(), s.J_num)
            sym = s.field.scalar(1, 2) * (gw + gw.T)
            if arith.is_positive_definite(sym, s.field):
                return cand
    s = s.as_float()
    witness = KForm.from_matrix(s.alg, np.tensordot(x, W, 1))
    pairing = s.form_inner(witness, s.F)
    if abs(pairing) > 1e-12:
        witness = (s.n / pairing) * witness
    return witness


def _isotropic_certificate(structure, basis_forms, G, best_x):
    """A vector u with omega(u, Ju) = 0 for every omega in the subspace.

    ``G[a]`` is the symmetrized matrix of omega_a(., J.), so u @ G[a] @ u is
    omega_a(u, Ju).  Candidates are the coordinate axes and a basis of the
    near-kernel of sum_a x_a G[a] at the optimum.  In exact mode each is
    scaled so its largest entry is 1, rounded to small rationals and checked
    exactly.
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
    if s.exact:
        wj = [s.field.matmul_num(w.matrix(), s.J_num) for w in basis_forms]
    for cand in candidates:
        if s.exact:
            cand = cand / cand[np.argmax(np.abs(cand))]
            for max_den in (64, 4096):
                u = np.array([arith.rationalize(c, max_den) for c in cand], dtype=object)
                if all(s.field.matmul_num(u, m, u).num == 0 for m in wj):
                    return [arith.format_scalar(c) for c in u]
        else:
            cand = cand / np.linalg.norm(cand)
            if np.all(np.abs(np.einsum("i,kij,j->k", cand, G, cand)) <= s.tol):
                return [float(c) for c in cand]
    return None
