"""The rescale-and-rebuild adapted test, kept as the reference for
``lcak.conditions.check_adapted``.

It builds the structure with g scaled by |theta|^2, so that |theta| = 1,
and runs every test of the adapted condition on that second structure: its
Lee data, Levi-Civita table and L_X F table are computed afresh.  The library
decides only the three conditions that are not identities of a valid (J, g)
with theta != 0, on the structure as given.
"""
from lcak import arith
from lcak.conditions import automorphism_algebra, check_lcs


def ref_check_adapted(structure):
    lcs = check_lcs(structure)
    first_kind = automorphism_algebra(structure).kind == "first" and lcs["is_lcs"]
    norm_sq = structure.lee_form().norm_sq
    out = {"adapted": False, "lee_norm_sq": norm_sq, "scale_normalized": False,
           "residuals": {}, "first_kind": first_kind}
    if not first_kind or float(norm_sq) <= 0:
        return out
    s = structure
    if norm_sq != 1:
        s = structure.rescaled(norm_sq)
        out["scale_normalized"] = True
    lee = s.lee_form()
    f = s.field
    res = out["residuals"]
    v_vec = lee.V
    t_vec = s.J @ v_vec
    theta_vec = lee.theta.vector()
    res["automorphism"] = s.lie_derivative_F(t_vec).max_abs()
    res["theta_of_T"] = abs(float(t_vec @ theta_vec - 1))
    eta = -1 * s.F.contract(t_vec)
    res["jtheta_plus_eta"] = (s.j_one_form(lee.theta) + eta).max_abs()
    eta_vec = eta.vector()
    theta_eta = f.array([theta_vec, eta_vec])
    h_basis = arith.nullspace(theta_eta, f)
    k = len(h_basis)
    res["h_dimension_defect"] = abs(k - (s.dim - 2))
    h = f.array(h_basis).reshape(k, s.dim)
    res["j_preserves_h"] = arith.max_abs(h @ s.J.T @ theta_eta.T)
    tv = f.array([t_vec, v_vec])
    res["splitting_orthogonal"] = arith.max_abs(h @ s.g @ tv.T)
    res["tv_orthonormal"] = arith.max_abs(tv @ s.g @ tv.T - f.eye(2))
    gram = h @ eta.d().matrix() @ s.J @ h.T
    res["deta_metric_symmetric"] = arith.max_abs(gram - gram.T)
    sym = f.scalar(1, 2) * (gram + gram.T)
    pd = arith.is_positive_definite(sym, f) if k else True
    res["deta_metric_positive"] = 0.0 if pd else 1.0
    scale = max(1.0, s.F.max_abs(), 1.0 + float(abs(norm_sq)))
    bound = f.bound(scale)
    out["adapted"] = (pd
                      and res["h_dimension_defect"] == 0
                      and all(r <= bound for key, r in res.items()
                              if key not in ("deta_metric_positive", "h_dimension_defect")))
    return out
