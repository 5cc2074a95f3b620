"""End-to-end acceptance suite.

Nine numbered criteria pin the package's behavior: the quantitative shift
counterexample, norm monotonicity, witness exactness under randomized
sweeps, factorization recovery, orthogonality and grading scans, the
Toeplitz action oracle, representation identities, and the structural
invariants. Each criterion returns a verdict plus a deterministic detail
dict, so identical seeds give byte-identical reports; wall-clock time is
kept out of the details.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from .algebra import (AlgebraElement, check_grading, convolve,
                      sos_witness_coset, sos_witness_idempotent_kernel)
from .core import (FiniteInverseSemigroup, Homomorphism, close_generators,
                   idempotents, omega_coset_diagnostic,
                   omega_coset_partition, PartialBijection)
from .errors import MathAssertionError
from .families import (br_omega_coset_check, br_refined_grading, br_window,
                       br_z2_contexts, example62, tq_oracle_check, TQContext)
from .graphs import (PathPair, grading_phi, orthogonality_check,
                     semisaturation_factorize)
from .jsonio import load_fixture
from .rep import (Truncation, action_matrix, coaction_unitary_check,
                  epsilon_faithfulness_check, h_block_check, min_eig,
                  norm_lower_bound, rep_identity_check)
from .scalars import rand_qqi
from .words import word_inv


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: dict
    elapsed: float
    budget: float | None


def _rand_square(rng):
    c = rand_qqi(rng)
    return c * c


# ---------------------------------------------------------------------------
# 1. the quantitative shift counterexample
# ---------------------------------------------------------------------------

def criterion_1(seed=0):
    sb = example62(5)
    expected = AlgebraElement(sb, [(sb.e, 1), (sb.b, -1), (sb.b.inverse(), -1)])
    eps = sb.epsilon_xx_star()
    eps_exact = eps == expected

    val5 = min_eig(action_matrix(eps, sb.action_points))
    target5 = 1 - 2 * math.cos(math.pi / 7)
    ok5 = abs(val5 - target5) < 1e-9

    sb200 = example62(200)
    val200 = min_eig(action_matrix(sb200.epsilon_xx_star(), sb200.action_points))
    ok200 = abs(val200 - (-1.0)) < 1e-3

    detail = {
        "epsilon_coefficient_exact": eps_exact,
        "min_eig_window5": val5,
        "target_window5": target5,
        "window5_within_1e-9": ok5,
        "min_eig_window200": val200,
        "window200_within_1e-3_of_-1": ok200,
    }
    return eps_exact and ok5 and ok200, detail


# ---------------------------------------------------------------------------
# 2. norm lower bounds grow toward the true norm 3
# ---------------------------------------------------------------------------

def criterion_2(seed=0):
    values = {}
    for n in (10, 20, 40, 100):
        sb = example62(n)
        B = Truncation(None, sb.action_points)
        values[n] = norm_lower_bound(sb.epsilon_xx_star(), B, rep="action")
    seq = [values[n] for n in (10, 20, 40, 100)]
    monotone = all(a <= b + 1e-12 for a, b in zip(seq, seq[1:]))
    big_enough = values[100] >= 2.99
    # brute spectrum at the largest window: the bound is the spectral radius
    # of the Hermitian compression, approaching 3 from below
    m = 101
    brute = 1 + 2 * math.cos(math.pi / (m + 1))
    brute_ok = abs(values[100] - brute) < 1e-9 and values[100] < 3.0
    detail = {
        "values": {str(n): values[n] for n in (10, 20, 40, 100)},
        "nondecreasing": monotone,
        "at_100_ge_2.99": big_enough,
        "closed_form_at_100": brute,
        "matches_closed_form": brute_ok,
    }
    return monotone and big_enough and brute_ok, detail


# ---------------------------------------------------------------------------
# 3. sum-of-squares witnesses hold exactly on random fiber elements
# ---------------------------------------------------------------------------

def criterion_3(seed=0):
    rng = random.Random(seed)
    graph_failures = []
    gradings = [load_fixture(name).structure.grading()
                for name in ("bouquet1", "bouquet2")]
    graph_pools = [g.fibers(g.context.window(3, 3)) for g in gradings]
    for trial in range(500):
        grading, pools = gradings[trial % 2], graph_pools[trial % 2]
        ctx = grading.context
        degree = rng.choice(sorted(pools))
        pool = pools[degree]
        support = rng.sample(pool, min(len(pool), rng.randint(1, 4)))
        f = AlgebraElement(ctx, [(p, rand_qqi(rng)) for p in support])
        if not f:
            continue
        try:
            if trial % 2 == 0:
                sos_witness_idempotent_kernel(f, grading)
            else:
                rep = min(pool, key=lambda p: len(p.mu.edges))
                sos_witness_coset(f, rep, grading)
        except MathAssertionError as exc:
            graph_failures.append({"trial": trial, "error": str(exc)})

    br_failures = []
    br_gradings = [ctx.grading() for ctx in br_z2_contexts()]
    br_pools = [g.fibers(br_window(g.context, 3)) for g in br_gradings]
    for trial in range(500):
        grading, pools = br_gradings[trial % 2], br_pools[trial % 2]
        ctx = grading.context
        k = rng.randint(-3, 3)
        pool = pools[k]
        support = rng.sample(pool, min(len(pool), rng.randint(1, 4)))
        f = AlgebraElement(ctx, [(p, rand_qqi(rng)) for p in support])
        if not f:
            continue
        try:
            sos_witness_coset(f, ctx.coset_rep(k), grading)
        except MathAssertionError as exc:
            br_failures.append({"trial": trial, "error": str(exc)})

    detail = {
        "graph_trials": 500, "graph_failures": graph_failures[:5],
        "graph_failure_count": len(graph_failures),
        "br_trials": 500, "br_failures": br_failures[:5],
        "br_failure_count": len(br_failures),
    }
    return not graph_failures and not br_failures, detail


# ---------------------------------------------------------------------------
# 4. semi-saturation factorization recovers f exactly
# ---------------------------------------------------------------------------

def criterion_4(seed=0):
    rng = random.Random(seed)
    ctx = load_fixture("bouquet2").structure
    graph = ctx.graph
    v = graph.vertices[0]
    failures = []
    for trial in range(200):
        a_edges = tuple(rng.randrange(2) for _ in range(rng.randint(0, 3)))
        b_edges = tuple(rng.randrange(2) for _ in range(rng.randint(0, 3)))
        if a_edges and b_edges and a_edges[-1] == b_edges[-1]:
            b_edges = b_edges[:-1] + (1 - b_edges[-1],)
        s_word = tuple((e, 1) for e in a_edges)
        t_word = tuple((e, 1) for e in b_edges)
        tails = [tuple(rng.randrange(2) for _ in range(rng.randint(0, 2)))
                 for _ in range(rng.randint(1, 3))]
        f = AlgebraElement(ctx)
        for w in dict.fromkeys(tails):
            aw = graph.path(a_edges + w, base=v)
            bw = graph.path(b_edges + w, base=v)
            f = f + AlgebraElement(ctx, [(PathPair(aw, bw), _rand_square(rng))])
        if not f:
            continue
        try:
            factors = semisaturation_factorize(f, s_word, t_word)
        except MathAssertionError as exc:
            failures.append({"trial": trial, "error": str(exc)})
            continue
        total = AlgebraElement(ctx)
        fiber_ok = True
        for left, right in factors:
            total = total + convolve(left, right)
            fiber_ok &= all(grading_phi(e) == s_word for e in left.terms)
            fiber_ok &= all(grading_phi(e) == word_inv(t_word) for e in right.terms)
        if total != f or not fiber_ok:
            failures.append({"trial": trial, "error": "external recovery check"})
    detail = {"trials": 200, "failure_count": len(failures),
              "failures": failures[:5]}
    return not failures, detail


# ---------------------------------------------------------------------------
# 5. orthogonality scans find no nonzero cross products
# ---------------------------------------------------------------------------

def criterion_5(seed=0):
    reports = {}
    ok = True
    for name in ("bouquet2", "two_parallel"):
        rep = orthogonality_check(load_fixture(name).structure.graph, 3)
        reports[name] = {"checked": rep["checked"], "violations": rep["violations"],
                         "ok": rep["ok"]}
        ok = ok and rep["ok"] and rep["checked"] > 0
    return ok, reports


# ---------------------------------------------------------------------------
# 6. grading validity across the three families
# ---------------------------------------------------------------------------

def _grading_summary(rep):
    return {"ok": rep["ok"], "idempotent_pure": rep["idempotent_pure"],
            "checked": rep["checked"], "kernel_size": rep["kernel_size"]}


def criterion_6(seed=0):
    # (detail key, grading, window, whether its kernel meets the window in
    # exactly the idempotents): the Z-degree of a BR extension is a grading
    # whose kernel holds every (m, a, m), so purity is certified by the
    # refined Z x G degree instead
    untwisted, collapsed = br_z2_contexts()
    contexts = [(f"graph_{name}", load_fixture(name).structure)
                for name in ("bouquet2", "two_vertex")]
    contexts += [(f"toeplitz_n{n}", TQContext(n)) for n in (1, 2)]
    cases = [(key, ctx.grading(), ctx.window(3, 3), True) for key, ctx in contexts]
    cases += [(f"br_z2_{tag}_phi", ctx.grading(), br_window(ctx, 2), False)
              for tag, ctx in (("id", untwisted), ("collapse", collapsed))]
    cases.append(("br_z2_id_refined", br_refined_grading(untwisted),
                  br_window(untwisted, 2), True))

    detail, ok = {}, True
    for key, grading, window, pure in cases:
        rep = check_grading(grading, window)
        detail[key] = _grading_summary(rep)
        ok = ok and rep["ok"] and rep["idempotent_pure"] == pure
    return ok, detail


# ---------------------------------------------------------------------------
# 7. Toeplitz symbolic products match the windowed point action
# ---------------------------------------------------------------------------

def criterion_7(seed=0):
    detail = {}
    ok = True
    for n in (1, 2):
        rep = tq_oracle_check(n, N=8, max_len=3, trials=300, seed=seed + n)
        detail[f"n{n}"] = {"checked": rep["checked"], "ok": rep["ok"],
                           "mismatches": rep["mismatches"]}
        ok = ok and rep["ok"] and rep["checked"] > 0
    return ok, detail


# ---------------------------------------------------------------------------
# 8. representation identities on finite truncations
# ---------------------------------------------------------------------------

def criterion_8(seed=0):
    detail = {}
    ok = True

    S5 = close_generators([PartialBijection({0: 1})])
    B5 = Truncation(S5, S5.nonzero_elements())
    rep = rep_identity_check(B5, S5.nonzero_elements())
    detail["closure_identities"] = {"ok": rep["ok"], "checked": rep["checked"],
                                    "skipped": rep["skipped"]}
    ok = ok and rep["ok"] and rep["skipped"] == 0

    H5 = [e for e in idempotents(S5) if not S5.is_zero(e)]
    blocks = [h_block_check(h, H5, B5) for h in H5]
    detail["closure_h_blocks"] = {"count": len(blocks),
                                  "ok": all(b["ok"] for b in blocks)}
    ok = ok and all(b["ok"] for b in blocks)

    g5 = S5.grading()
    co = coaction_unitary_check(g5, B5, [g5.group.identity],
                                S5.nonzero_elements())
    detail["closure_coaction"] = {"ok": co["ok"], "checked": co["checked"]}
    ok = ok and co["ok"]

    faith = epsilon_faithfulness_check(g5, S5.nonzero_elements(), B5, seed=seed)
    detail["closure_faithfulness"] = {"ok": faith["ok"], "trials": faith["trials"]}
    ok = ok and faith["ok"]

    for tag, ctx in zip(("id", "collapse"), br_z2_contexts()):
        B = Truncation(ctx, br_window(ctx, 2))
        rep = rep_identity_check(B, br_window(ctx, 1))
        grading = ctx.grading()
        kernel = grading.fibers(br_window(ctx, 2))[0]
        blocks = [h_block_check(h, grading.kernel_member, B) for h in kernel]
        co = coaction_unitary_check(grading, B, range(-2, 3), br_window(ctx, 1))
        faith = epsilon_faithfulness_check(grading, br_window(ctx, 2),
                                           Truncation(ctx, br_window(ctx, 4)), 100, seed + 1)
        detail[f"br_{tag}"] = {
            "identities_ok": rep["ok"], "identities_checked": rep["checked"],
            "h_blocks_ok": all(b["ok"] for b in blocks),
            "h_block_count": len(blocks),
            "coaction_ok": co["ok"], "coaction_checked": co["checked"],
            "faithfulness_failures": len(faith["failures"]),
        }
        ok = (ok and rep["ok"] and all(b["ok"] for b in blocks)
              and co["ok"] and faith["ok"])

    return ok, detail


# ---------------------------------------------------------------------------
# 9. structural invariants
# ---------------------------------------------------------------------------

def criterion_9(seed=0):
    detail = {}
    ok = True

    # zero forces a trivial maximum group image
    S5 = close_generators([PartialBijection({0: 1})])
    G5, _ = S5.group_image
    Sg = load_fixture("two_parallel").structure.finite_semigroup()
    Gg, _ = Sg.group_image
    detail["trivial_max_images"] = {"closure": G5.n, "two_parallel": Gg.n,
                                    "two_parallel_size": Sg.n}
    ok = ok and G5.n == 1 and Gg.n == 1

    # omega-cosets of kernels partition along fibers
    cliff = load_fixture("clifford_z2").structure
    cosets = omega_coset_partition(Homomorphism(cliff, *cliff.group_image))
    fibers = {frozenset(members) for members in
              cliff.grading().fibers(cliff.elements()).values()}
    detail["clifford_partition"] = {"cosets": len(cosets),
                                    "matches_fibers": set(cosets) == fibers}
    ok = ok and set(cosets) == fibers

    chain = FiniteInverseSemigroup([[0, 1], [1, 1]])
    chain_cosets = omega_coset_partition(Homomorphism(chain, *chain.group_image))
    detail["chain_kernel_partition"] = {"cosets": len(chain_cosets)}
    ok = ok and len(chain_cosets) == 1

    windows = {}
    for tag, ctx in zip(("id", "collapse"), br_z2_contexts()):
        rep = br_omega_coset_check(ctx, 3)
        windows[tag] = rep["ok"]
        ok = ok and rep["ok"]
    detail["br_window_cosets"] = windows

    # a subsemigroup that is not a kernel fails to partition, with overlap
    diag = omega_coset_diagnostic({0}, chain)
    detail["chain_non_kernel"] = {"is_partition": diag["is_partition"],
                                  "overlap": diag["overlap"] is not None}
    ok = ok and not diag["is_partition"] and diag["overlap"] is not None

    return ok, detail


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

CRITERIA = [
    (1, "shift-counterexample", criterion_1, 5.0),
    (2, "norm-monotonicity", criterion_2, 10.0),
    (3, "sos-witness-exactness", criterion_3, 60.0),
    (4, "semisaturation-factorization", criterion_4, 60.0),
    (5, "orthogonality", criterion_5, 30.0),
    (6, "grading-validity", criterion_6, None),
    (7, "toeplitz-oracle", criterion_7, None),
    (8, "representation-identities", criterion_8, None),
    (9, "structure-suite", criterion_9, None),
]


def run_criterion(number: int, seed=0) -> CriterionResult:
    for num, name, fn, budget in CRITERIA:
        if num == number:
            start = time.perf_counter()
            passed, detail = fn(seed)
            return CriterionResult(num, name, passed, detail,
                                   time.perf_counter() - start, budget)
    raise ValueError(f"no criterion {number}")


def run_all(seed=0):
    return [run_criterion(num, seed) for num, _, _, _ in CRITERIA]


def report_dict(results) -> dict:
    """Stable report body: no timings, fully deterministic for a seed."""
    return {
        "criteria": [{"number": r.number, "name": r.name,
                      "passed": r.passed, "detail": r.detail}
                     for r in results],
        "all_passed": all(r.passed for r in results),
    }
