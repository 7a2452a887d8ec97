"""The four workloads: seeded inputs, the timed call, and the correctness oracle.

Each workload turns a seed into a pool of items.  An item is one call into
the public entry point the workload names; ``run`` makes that call and
``check`` compares its output with an oracle: committed golden bytes, the
flags of the untransformed entry, lcak's closed-form Lee formula (a second
route to theta), an exact witness check written here, or the fuzzer's own
identity checks.  ``check`` returns ``None`` for a correct output, or
``(kind, reason)`` where kind is ``"wrong"`` (the output contradicts the
oracle) or ``"undecided"`` (the program declined to decide).
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from perfbench import exact

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

# small-denominator entries for almost abelian data and for changes of basis
# (0 twice, so a quarter of the basis entries vanish)
SMALL = tuple(Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3))
BASIS = (Fraction(0), Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
         Fraction(-1, 2), Fraction(2), Fraction(-2))


@dataclass
class Item:
    id: str
    data: dict


@dataclass
class Workload:
    name: str
    why: str
    make: object        # (lcak, seed) -> list of Item
    run: object         # (lcak, item) -> output
    check: object       # (lcak, item, output) -> None | (kind, reason)
    min_items: int      # a timed run covers at least this many items
    warmup: int         # items run untimed before timing starts
    trace_items: int    # items in each pass of a traced run
    profile_items: int  # items in the counting pass for fraction calls


def _random_basis(rng, dim):
    while True:
        p = [[rng.choice(BASIS) for _ in range(dim)] for _ in range(dim)]
        try:
            exact.inverse(p)
        except ZeroDivisionError:
            continue
        return p


def _entry_data(lcak, name):
    """Structure constants, J and g of a catalog entry as Fractions."""
    s = lcak.catalog_entry(name)
    c = exact.dense_constants(s.dim, s.alg.sparse_constants())
    j = [[Fraction(v) for v in row] for row in s.J.tolist()]
    g = [[Fraction(v) for v in row] for row in s.g.tolist()]
    return c, j, g


def _spec_text(name, c, j, g):
    dim = len(j)
    brackets = []
    for a in range(dim):
        for b in range(a + 1, dim):
            coeffs = {str(k + 1): str(c[a][b][k]) for k in range(dim) if c[a][b][k] != 0}
            if coeffs:
                brackets.append({"i": a + 1, "j": b + 1, "coefficients": coeffs})
    return json.dumps({"dim": dim, "name": name, "brackets": brackets,
                       "J": [[str(v) for v in row] for row in j],
                       "g": [[str(v) for v in row] for row in g]})


def _catalog_items(lcak, seed, count):
    """Alternate each catalog entry as it is with the entry under a seeded
    change of basis; every item carries its spec text and its own data."""
    rng = random.Random(seed)
    base = {name: _entry_data(lcak, name) for name in lcak.CATALOG_NAMES}
    items = []
    for i in range(count):
        name = lcak.CATALOG_NAMES[(i // 2) % len(lcak.CATALOG_NAMES)]
        c, j, g = base[name]
        if i % 2:
            c, j, g = exact.change_basis(c, j, g, _random_basis(rng, len(j)))
            label = f"{i}:{name}@basis"
        else:
            label = f"{i}:{name}"
        items.append(Item(label, {"name": name, "as_is": not i % 2, "c": c, "j": j,
                                  "text": _spec_text(name, c, j, g)}))
    return items


def _golden(name):
    return (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


# -- catalog_exact -------------------------------------------------------------------

def catalog_make(lcak, seed):
    items = _catalog_items(lcak, seed, 128)
    golden = {name: _golden(name) for name in lcak.CATALOG_NAMES}
    for it in items:
        it.data["golden"] = golden[it.data["name"]]
    return items


def catalog_run(lcak, item):
    return lcak.run_report(lcak.load_spec(item.data["text"])).to_json()


def catalog_check(lcak, item, text):
    golden = item.data["golden"]
    if item.data["as_is"]:
        return None if text == golden else ("wrong", "report differs from golden bytes")
    flags = json.loads(text)["condition_report"]["flags"]
    want = json.loads(golden)["condition_report"]["flags"]
    if flags != want:
        diff = sorted(k for k in set(flags) | set(want) if flags.get(k) != want.get(k))
        return ("wrong", f"flags changed under a change of basis: {diff}")
    return None


# -- almost_abelian_exact --------------------------------------------------------------

# dims of consecutive items: 4 of 7 are dim 6.  A run's 37 items hold 21 of
# dim 6 and 16 of dim 8, so the median is a dim-6 report and the tail value
# (ten items beyond it) is the sixth-fastest dim-8 report, well inside that
# group; a lower order statistic of fewer dim-8 items varies too much
AA_DIMS = (6, 8, 6, 8, 6, 8, 6)


def aa_make(lcak, seed):
    rng = random.Random(seed)
    items = []
    seen = {6: 0, 8: 0}
    for i in range(64):
        dim = AA_DIMS[i % len(AA_DIMS)]
        n, m = dim // 2, dim - 2
        lcs = seen[dim] % 2 == 1
        seen[dim] += 1
        if lcs:
            lam = rng.choice([x for x in SMALL if x != 0])
            params = lcak.AlmostAbelianParams(
                n, rng.choice(SMALL), (Fraction(0),) * m, (Fraction(0),) * m,
                [[lam if r == c else Fraction(0) for c in range(m)] for r in range(m)])
        else:
            params = lcak.AlmostAbelianParams(
                n, rng.choice(SMALL), [rng.choice(SMALL) for _ in range(m)],
                [rng.choice(SMALL) for _ in range(m)],
                [[rng.choice(SMALL) for _ in range(m)] for _ in range(m)])
        items.append(Item(f"{i}:dim{dim}:{'lcs' if lcs else 'generic'}",
                          {"params": params}))
    return items


def aa_run(lcak, item):
    _, structure = lcak.build_almost_abelian(item.data["params"])
    return structure, lcak.run_report(structure)


def aa_check(lcak, item, output):
    structure, report = output
    if not report.all_checks_pass:
        return ("wrong", f"all_checks_pass is false: {report.condition_report['warnings']}")
    closed = lcak.lee_form_aa(item.data["params"], structure)
    want = {i + 1: Fraction(v) for (i,), v in closed.coeffs.items() if v != 0}
    got = {int(k): Fraction(v) for k, v in report.extras["theta"].items()}
    if got != want:
        return ("wrong", "theta differs from lee_form_aa")
    return None


# -- fuzz_float -------------------------------------------------------------------------

FUZZ_COUNT = 12


def fuzz_make(lcak, seed):
    rng = random.Random(seed)
    return [Item(f"{i}:{lcak.FAMILIES[i % 3]}",
                 {"seed": rng.getrandbits(31), "family": lcak.FAMILIES[i % 3]})
            for i in range(1024)]


def fuzz_run(lcak, item):
    return lcak.fuzz(item.data["seed"], FUZZ_COUNT, item.data["family"])


def fuzz_check(lcak, item, summary):
    if summary["samples"] != FUZZ_COUNT:
        return ("wrong", f"{summary['samples']} samples, asked for {FUZZ_COUNT}")
    if summary["identity_failures"]:
        checks = sorted({f["check"] for f in summary["identity_failures"]})
        return ("wrong", f"identity failures: {checks}")
    return None


# -- feasibility_exact -------------------------------------------------------------------

# status of each untransformed catalog entry; a change of basis keeps it
FEASIBLE = {"abelian_kahler": "feasible"}


def feasibility_make(lcak, seed):
    return _catalog_items(lcak, seed, 64)


def feasibility_run(lcak, item):
    report = lcak.run_report(lcak.load_spec(item.data["text"]), feasibility=True)
    return report.feasibility


def feasibility_check(lcak, item, feas):
    want = FEASIBLE.get(item.data["name"], "infeasible")
    status = feas["status"]
    if status == "inconclusive":
        return ("undecided", f"inconclusive, expected {want}")
    if status != want:
        return ("wrong", f"status {status}, expected {want}")
    if status == "feasible":
        dim = len(item.data["j"])
        coeffs = {(int(k[0]) - 1, int(k[1]) - 1): Fraction(v)
                  for k, v in feas["witness"].items()}
        bad = exact.check_compatible_form(item.data["c"], item.data["j"],
                                          exact.two_form_matrix(dim, coeffs))
        if bad:
            return ("wrong", f"witness fails: {bad}")
    return None


WORKLOADS = {w.name: w for w in (
    Workload("catalog_exact",
             "dim-4 exact reports through the spec-file path; small tensors make "
             "it overhead-bound; half the items are new bases",
             catalog_make, catalog_run, catalog_check,
             min_items=30, warmup=6, trace_items=24, profile_items=12),
    Workload("almost_abelian_exact",
             "exact reports on (a, b, v, A) members in dims 6 and 8; cost grows "
             "fast with dimension, the dim-8 items set the tail",
             aa_make, aa_run, aa_check,
             min_items=37, warmup=1, trace_items=4, profile_items=2),
    Workload("fuzz_float",
             "the float identity fuzzer over its three families; never touches "
             "the exact kernel",
             fuzz_make, fuzz_run, fuzz_check,
             min_items=30, warmup=3, trace_items=24, profile_items=6),
    # 45 items (about 30 s) average out the slow drift in CPU speed of a
    # shared host, which this search of small numpy calls feels most
    Workload("feasibility_exact",
             "compatible-form feasibility search on catalog entries as they are "
             "and in new bases; the only workload reaching the search",
             feasibility_make, feasibility_run, feasibility_check,
             min_items=45, warmup=2, trace_items=12, profile_items=2),
)}
