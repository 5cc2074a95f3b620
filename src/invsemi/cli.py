"""Command-line front end.

Reads JSON structure documents, dispatches to the library, and prints JSON
(default) or indented text reports. Identical inputs and seed produce
byte-identical stdout; timings go to stderr. Exit codes: 0 all assertions
passed, 1 a mathematical assertion failed (the report carries a witness),
2 malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

from .acceptance import report_dict, run_all
from .algebra import (bundle_fibers, check_grading, epsilon_restrict,
                      fiber_decompose, sos_witness_coset,
                      sos_witness_idempotent_kernel)
from .core import e_unitary_witness, is_e_unitary, natural_leq
from .errors import InputError, MathAssertionError
from .families import example62, quasi_lattice_check, tq_oracle_check
from .graphs import fiber_word_legs, orthogonality_check, semisaturation_factorize
from .jsonio import LoadedInput, dump_report, load_fixture, load_input
from .rep import (Truncation, action_matrix, coaction_unitary_check, min_eig,
                  norm_lower_bound, psd_refute)
from .words import word_from_json, word_to_json

_RANDOMIZED = {"toeplitz-oracle", "report"}


def _scalar_text(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, dict):
        return "{}"
    if isinstance(v, list):
        return "[]"
    return str(v)


def _text_render(obj, indent=0) -> str:
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.append(_text_render(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_scalar_text(v)}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}-")
                lines.append(_text_render(v, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar_text(v)}")
    else:
        return pad + _scalar_text(obj)
    return "\n".join(lines)


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(dump_report(report))
    else:
        sys.stdout.write(_text_render(report) + "\n")


def _load(args) -> LoadedInput:
    if not args.input:
        raise InputError("this command needs --input")
    if not os.path.exists(args.input) and "/" not in args.input \
            and not args.input.endswith(".json"):
        return load_fixture(args.input)
    return load_input(args.input)


def _payload(li: LoadedInput, key):
    if key not in li.doc:
        raise InputError(f"input document needs a {key!r} field for this command")
    return li.doc[key]


# ---------------------------------------------------------------------------
# command handlers: each returns (report, exit_code)
# ---------------------------------------------------------------------------

def cmd_product(args):
    li = _load(args)
    ctx = li.context()
    elems = [li.decode_element(d) for d in _payload(li, "elements")]
    out = elems[0]
    for e in elems[1:]:
        out = ctx.product(out, e)
    return {"command": "product",
            "factors": [li.encode_element(e) for e in elems],
            "product": li.encode_element(out)}, 0


def cmd_order(args):
    li = _load(args)
    ctx = li.context()
    docs = _payload(li, "elements")
    if len(docs) != 2:
        raise InputError("'elements' must list exactly two elements")
    u, t = (li.decode_element(d) for d in docs)

    def leq(x, y):
        # 0 <= y holds only for y = 0
        return (not ctx.is_zero(x) or ctx.is_zero(y)) and natural_leq(x, y, ctx)

    return {"command": "order",
            "u": li.encode_element(u), "t": li.encode_element(t),
            "u_leq_t": leq(u, t), "t_leq_u": leq(t, u),
            "equal": u == t}, 0


def cmd_idempotents(args):
    li = _load(args)
    ctx = li.context()
    found = [e for e in li.basis(args.window, args.length)
             if ctx.is_idempotent(e)]
    return {"command": "idempotents", "count": len(found),
            "idempotents": [li.encode_element(e) for e in found]}, 0


def cmd_max_group_image(args):
    li = _load(args)
    S, image = li.finite_semigroup()
    G, sigma = image
    return {"command": "max-group-image",
            "order": G.n,
            "group_table": G.table,
            "group_labels": G.labels,
            "sigma": [[S.labels[s], G.labels[sigma[s]]] for s in S.elements()],
            "e_unitary": is_e_unitary(S, image)}, 0


def cmd_e_unitary(args):
    li = _load(args)
    S, image = li.finite_semigroup()
    bad = e_unitary_witness(S, image)
    return {"command": "e-unitary", "e_unitary": bad is None,
            "witness": None if bad is None else S.labels[bad]}, 0


def cmd_epsilon(args):
    li = _load(args)
    f = li.decode_algebra(_payload(li, "element"))
    if "subsemigroup" in li.doc:
        member = {li.decode_element(d) for d in li.doc["subsemigroup"]}
    else:
        member = li.expectation_domain()
    restricted = epsilon_restrict(f, member)
    return {"command": "epsilon",
            "element": li.encode_algebra(f),
            "restricted": li.encode_algebra(restricted),
            "dropped_terms": len(f) - len(restricted)}, 0


def cmd_fibers(args):
    li = _load(args)
    f = li.decode_algebra(_payload(li, "element"))
    parts = fiber_decompose(f, li.grading())
    rows = sorted(
        ((li.encode_degree(d), li.encode_algebra(part))
         for d, part in parts.items()),
        key=lambda row: json.dumps(row[0], sort_keys=True, default=str))
    return {"command": "fibers", "count": len(rows),
            "fibers": [[d, part] for d, part in rows]}, 0


def cmd_sos_witness(args):
    li = _load(args)
    f = li.decode_algebra(_payload(li, "element"))
    grading = li.grading()
    mode = li.doc.get("mode", "idempotent")
    if mode == "idempotent":
        witness = sos_witness_idempotent_kernel(f, grading)
    else:
        rep = (li.decode_element(li.doc["rep"]) if "rep" in li.doc
               else li.coset_rep(f, grading))
        witness = sos_witness_coset(f, rep, grading)
    return {"command": "sos-witness", "mode": mode,
            "identity": "f'* f' = f* f",
            "witness": li.encode_algebra(witness),
            "exact": witness.is_exact()}, 0


def cmd_bundle_check(args):
    li = _load(args)
    elements = li.basis(args.window, args.length)
    _, report = bundle_fibers(elements, li.grading())
    report["command"] = "bundle-check"
    return report, 0 if report["ok"] else 1


def cmd_grading_check(args):
    li = _load(args)
    report = check_grading(li.grading(), li.basis(args.window, args.length))
    report["command"] = "grading-check"
    return report, 0 if report["ok"] else 1


def cmd_orthogonality(args):
    li = _load(args)
    if li.kind != "graph":
        raise InputError("orthogonality scans need a graph document")
    report = orthogonality_check(li.structure, args.length)
    report["command"] = "orthogonality"
    return report, 0 if report["ok"] else 1


def cmd_factorize(args):
    li = _load(args)
    if li.kind != "graph":
        raise InputError("factorization needs a graph document")
    f = li.decode_algebra(_payload(li, "element"))
    s_word = word_from_json(_payload(li, "s"))
    t_word = word_from_json(_payload(li, "t"))
    factors = semisaturation_factorize(f, s_word, t_word)
    a_edges, _, _ = fiber_word_legs(s_word, t_word)
    k_values = []
    for left, _ in factors:
        elem = next(iter(left.terms))
        k_values.append(len(elem.mu.edges) - len(a_edges))
    return {"command": "factorize",
            "s": word_to_json(s_word), "t": word_to_json(t_word),
            "factor_count": len(factors),
            "k_values": k_values,
            "factors": [[li.encode_algebra(l), li.encode_algebra(r)]
                        for l, r in factors],
            "exact": all(l.is_exact() and r.is_exact() for l, r in factors),
            "verified": True}, 0


def cmd_ql_check(args):
    li = _load(args)
    if li.kind != "toeplitz":
        raise InputError("quasi-lattice checks need a toeplitz document")
    report = quasi_lattice_check(li.structure.n, bound=args.length)
    report["command"] = "ql-check"
    return report, 0 if report["ok"] else 1


def cmd_toeplitz_oracle(args):
    li = _load(args)
    if li.kind != "toeplitz":
        raise InputError("the oracle needs a toeplitz document")
    report = tq_oracle_check(li.structure.n, N=args.window, max_len=args.length,
                             trials=300, seed=args.seed)
    report["command"] = "toeplitz-oracle"
    return report, 0 if report["ok"] else 1


def cmd_psd(args):
    li = _load(args)
    f = li.decode_algebra(_payload(li, "element"))
    B, rep = li.certificate_basis(args.window, args.length)
    cert = psd_refute(f, B, rep=rep, tol=args.tol)
    cert["command"] = "psd"
    return cert, 0


def cmd_norm_bound(args):
    li = _load(args)
    f = li.decode_algebra(_payload(li, "element"))
    B, rep = li.certificate_basis(args.window, args.length)
    value = norm_lower_bound(f, B, rep=rep)
    return {"command": "norm-bound", "rep": rep,
            "basis_size": len(B), "norm_lower_bound": value}, 0


def cmd_coaction_check(args):
    li = _load(args)
    grading = li.grading()
    basis = li.basis(args.window, args.length)
    B = Truncation(li.context(), basis)
    group_window = li.group_window(basis, grading, args.window)
    report = coaction_unitary_check(grading, B, group_window, basis)
    report["command"] = "coaction-check"
    return report, 0 if report["ok"] else 1


def cmd_example62(args):
    n = args.window
    sb = example62(n)
    eps = sb.epsilon_xx_star()
    M = action_matrix(eps, sb.action_points)
    value = min_eig(M)
    closed = 1 - 2 * math.cos(math.pi / (n + 2))
    refuted = value < -1e-9 * (n + 1)
    return {"command": "example62",
            "window": n,
            "points": n + 1,
            "epsilon_terms": len(eps),
            "epsilon_coefficient_exact": eps.is_exact(),
            "min_eig": value,
            "closed_form": closed,
            "verdict": "not positive in ℂH" if refuted
                       else "no refutation at this window"}, 0


def cmd_report(args):
    results = run_all(args.seed)
    for r in results:
        sys.stderr.write(f"criterion {r.number} ({r.name}): "
                         f"{'PASS' if r.passed else 'FAIL'} "
                         f"[{r.elapsed:.2f}s]\n")
    body = report_dict(results)
    body["command"] = "report"
    body["seed"] = args.seed
    return body, 0 if body["all_passed"] else 1


_COMMANDS = {
    "product": cmd_product,
    "order": cmd_order,
    "idempotents": cmd_idempotents,
    "max-group-image": cmd_max_group_image,
    "e-unitary": cmd_e_unitary,
    "epsilon": cmd_epsilon,
    "fibers": cmd_fibers,
    "sos-witness": cmd_sos_witness,
    "bundle-check": cmd_bundle_check,
    "grading-check": cmd_grading_check,
    "orthogonality": cmd_orthogonality,
    "factorize": cmd_factorize,
    "ql-check": cmd_ql_check,
    "toeplitz-oracle": cmd_toeplitz_oracle,
    "psd": cmd_psd,
    "norm-bound": cmd_norm_bound,
    "coaction-check": cmd_coaction_check,
    "example62": cmd_example62,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invsemi",
        description="Exact computations in truncated inverse semigroups, "
                    "their graded algebras, and regular representations.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--input", help="JSON document or bundled fixture name")
        p.add_argument("--window", type=int, default=2 if name != "example62" else 5,
                       metavar="N", help="index window for families")
        p.add_argument("--length", type=int, default=2 if name not in
                       ("ql-check", "toeplitz-oracle") else 3,
                       metavar="L", help="path/word length bound")
        p.add_argument("--seed", type=int, default=None, metavar="K",
                       help="RNG seed; mandatory for randomized checks")
        p.add_argument("--tol", type=float, default=None, metavar="X",
                       help="tolerance override for spectral certificates")
        p.add_argument("--format", choices=("json", "text"), default="json")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser is built once per process: building it costs about 6 ms."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command in _RANDOMIZED and args.seed is None:
        sys.stderr.write("input error: --seed is mandatory for randomized checks\n")
        return 2
    started = time.perf_counter()
    try:
        report, code = _COMMANDS[args.command](args)
    except MathAssertionError as exc:
        report = {"command": args.command,
                  "error": {"type": type(exc).__name__,
                            "message": str(exc),
                            "witness": repr(exc.witness)}}
        _emit(report, args.format)
        sys.stderr.write(f"elapsed: {time.perf_counter() - started:.3f}s\n")
        return 1
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        if exc.witness is not None:
            sys.stderr.write(f"witness: {exc.witness!r}\n")
        return 2
    _emit(report, args.format)
    sys.stderr.write(f"elapsed: {time.perf_counter() - started:.3f}s\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
