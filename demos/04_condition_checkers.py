"""The condition checkers: LCS, first kind, adapted, and the flag report.

An LCS structure is of the first kind when some automorphism U of F has
theta(U) = 1; then F = d eta - theta ^ eta with eta = -i_U F by Cartan's
formula, so the checker reports only the decision and the dimension of the
automorphism algebra.  The adapted test decides the conditions that are not
identities: L_T F = 0, and d eta(., J.) symmetric positive definite on the
common kernel of theta and eta.

Also demonstrates the compatible-form feasibility decision, which in
dimension 4 is the exact sign of omega ^ omega on the closed J-invariant
forms: both non-abelian catalog entries admit *no* closed J-compatible
positive form (certified by an exact isotropic vector), while the abelian
entry returns F itself.
"""
from lcak import (catalog, check_adapted, check_first_kind, check_lcs,
                  classify_metric, symplectic_feasibility, verify_equivalences)

for name in ("A4_1", "A4_8", "abelian_kahler"):
    s = catalog()[name]
    print(f"=== {name} ===")
    lcs = check_lcs(s)
    print("  LCS:", lcs["is_lcs"], " theta =", lcs["theta"])
    if lcs["is_lcs"] and not lcs["theta"].is_zero():
        fk = check_first_kind(s)
        print("  first kind:", fk["first_kind"],
              " dim aut(F) =", fk["automorphism_dim"])
        ad = check_adapted(s)
        print("  adapted:", ad["adapted"])
    rep = classify_metric(s)
    tags = [k for k in ("pluricanonical", "anti_pluricanonical", "vaisman",
                        "is_gauduchon", "lee_field_holomorphic") if rep.flags[k]]
    print("  flags set:", ", ".join(tags) or "(none)")
    eq = verify_equivalences(s, report=rep)
    print("  equivalences consistent:", eq["all_consistent"])
    feas = symplectic_feasibility(s)
    # dim 4 is decided exactly, with no search and so no optimum
    kind = ("witness" if feas["witness"] is not None else "isotropic vector"
            if isinstance(feas["certificate"], list) else feas["certificate"])
    print("  compatible closed form:", feas["status"], "|", kind)
    if feas["status"] == "feasible":
        print("    witness:", feas["witness"])
    elif feas["certificate"] is not None:
        print("    certificate u with omega(u, Ju) = 0 for the whole subspace:",
              feas["certificate"])
    print()

print("A scaled metric keeps the scale-invariant flags and is re-normalized")
print("inside the adapted test:")
s4 = catalog()["A4_1"].rescaled(4)
rep = classify_metric(s4)
ad = check_adapted(s4)
print("  g -> 4g: pluricanonical", rep.flags["pluricanonical"],
      "| adapted", ad["adapted"], "| lee norm^2 =", ad["lee_norm_sq"],
      "| normalized:", ad["scale_normalized"])
