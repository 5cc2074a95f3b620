"""Command-line front end.

Reads JSON structure documents, dispatches to the library, and prints JSON
(default) or indented text reports. Identical inputs and seed produce
byte-identical stdout; timings go to stderr. Exit codes: 0 all assertions
passed, 1 a mathematical assertion failed (the report carries a witness),
2 malformed input.

A handler only computes its report. `main` loads the input and checks its
kind, names the command in the report, and exits 1 exactly when the report's
`ok` or `all_passed` is false.
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
from .rep import Truncation, coaction_unitary_check, norm_lower_bound, psd_refute
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
# command handlers: each takes the loaded input (None for the commands that
# read none) and the parsed flags, and returns its report
# ---------------------------------------------------------------------------

def cmd_product(li, args):
    ctx = li.structure
    elems = [li.decode_element(d) for d in _payload(li, "elements")]
    out = elems[0]
    for e in elems[1:]:
        out = ctx.product(out, e)
    return {"factors": [li.encode_element(e) for e in elems],
            "product": li.encode_element(out)}


def cmd_order(li, args):
    ctx = li.structure
    docs = _payload(li, "elements")
    if len(docs) != 2:
        raise InputError("'elements' must list exactly two elements")
    u, t = (li.decode_element(d) for d in docs)

    def leq(x, y):
        # 0 <= y holds only for y = 0
        return (not ctx.is_zero(x) or ctx.is_zero(y)) and natural_leq(x, y, ctx)

    return {"u": li.encode_element(u), "t": li.encode_element(t),
            "u_leq_t": leq(u, t), "t_leq_u": leq(t, u),
            "equal": u == t}


def cmd_idempotents(li, args):
    ctx = li.structure
    found = [e for e in ctx.window(args.window, args.length) if ctx.is_idempotent(e)]
    return {"count": len(found),
            "idempotents": [li.encode_element(e) for e in found]}


def cmd_max_group_image(li, args):
    S = li.structure.finite_semigroup()
    G, sigma = S.group_image
    return {"order": G.n,
            "group_table": G.table.tolist(),
            "group_labels": G.labels,
            "sigma": [[S.labels[s], G.labels[sigma[s]]] for s in S.elements()],
            "e_unitary": is_e_unitary(S)}


def cmd_e_unitary(li, args):
    S = li.structure.finite_semigroup()
    bad = e_unitary_witness(S)
    return {"e_unitary": bad is None,
            "witness": None if bad is None else S.labels[bad]}


def cmd_epsilon(li, args):
    f = li.decode_algebra(_payload(li, "element"))
    if "subsemigroup" in li.doc:
        member = {li.decode_element(d) for d in li.doc["subsemigroup"]}
    else:
        member = li.structure.expectation_domain()
    restricted = epsilon_restrict(f, member)
    return {"element": li.encode_algebra(f),
            "restricted": li.encode_algebra(restricted),
            "dropped_terms": len(f) - len(restricted)}


def cmd_fibers(li, args):
    f = li.decode_algebra(_payload(li, "element"))
    parts = fiber_decompose(f, li.structure.grading())
    rows = sorted(
        ((li.encode_degree(d), li.encode_algebra(part))
         for d, part in parts.items()),
        key=lambda row: json.dumps(row[0], sort_keys=True, default=str))
    return {"count": len(rows), "fibers": [[d, part] for d, part in rows]}


def cmd_sos_witness(li, args):
    f = li.decode_algebra(_payload(li, "element"))
    grading = li.structure.grading()
    mode = li.doc.get("mode", "idempotent")
    if mode == "idempotent":
        witness = sos_witness_idempotent_kernel(f, grading)
    elif "rep" in li.doc:
        witness = sos_witness_coset(f, li.decode_element(li.doc["rep"]), grading)
    else:
        degrees = list(grading.fibers(f.terms))
        if len(degrees) != 1:
            raise InputError("coset witness needs a single-fiber element")
        witness = sos_witness_coset(f, li.structure.coset_rep(degrees[0]), grading)
    return {"mode": mode,
            "identity": "f'* f' = f* f",
            "witness": li.encode_algebra(witness),
            "exact": witness.is_exact()}


def cmd_bundle_check(li, args):
    ctx = li.structure
    return bundle_fibers(ctx.window(args.window, args.length), ctx.grading())[1]


def cmd_grading_check(li, args):
    ctx = li.structure
    return check_grading(ctx.grading(), ctx.window(args.window, args.length))


def cmd_orthogonality(li, args):
    return orthogonality_check(li.structure.graph, args.length)


def cmd_factorize(li, args):
    f = li.decode_algebra(_payload(li, "element"))
    s_word = word_from_json(_payload(li, "s"))
    t_word = word_from_json(_payload(li, "t"))
    factors = semisaturation_factorize(f, s_word, t_word)
    a_edges, _, _ = fiber_word_legs(s_word, t_word)
    # the tail length k of each factor, read off one left support element
    k_values = [len(next(iter(left.terms)).mu.edges) - len(a_edges)
                for left, _ in factors]
    return {"s": word_to_json(s_word), "t": word_to_json(t_word),
            "factor_count": len(factors),
            "k_values": k_values,
            "factors": [[li.encode_algebra(l), li.encode_algebra(r)]
                        for l, r in factors],
            "exact": all(l.is_exact() and r.is_exact() for l, r in factors),
            "verified": True}


def cmd_ql_check(li, args):
    return quasi_lattice_check(li.structure.n, bound=args.length)


def cmd_toeplitz_oracle(li, args):
    return tq_oracle_check(li.structure.n, N=args.window, max_len=args.length,
                           trials=300, seed=args.seed)


def cmd_psd(li, args):
    f = li.decode_algebra(_payload(li, "element"))
    B, rep = li.certificate_basis(args.window, args.length)
    return psd_refute(f, B, rep=rep, tol=args.tol)


def cmd_norm_bound(li, args):
    f = li.decode_algebra(_payload(li, "element"))
    B, rep = li.certificate_basis(args.window, args.length)
    value = norm_lower_bound(f, B, rep=rep)     # refuses a window past a cap first
    return {"rep": rep, "basis_size": len(B), "norm_lower_bound": value}


def cmd_coaction_check(li, args):
    ctx = li.structure
    grading, basis = ctx.grading(), ctx.window(args.window, args.length)
    return coaction_unitary_check(grading, Truncation(ctx, basis),
                                  ctx.group_window(basis, grading, args.window), basis)


def cmd_example62(li, args):
    n = args.window
    sb = example62(n)
    eps = sb.epsilon_xx_star()
    cert = psd_refute(eps, Truncation(None, sb.action_points), rep="action")
    return {"window": n,
            "points": n + 1,
            "epsilon_terms": len(eps),
            "epsilon_coefficient_exact": eps.is_exact(),
            "min_eig": cert["value"],
            "closed_form": 1 - 2 * math.cos(math.pi / (n + 2)),
            "verdict": "not positive in ℂH" if cert["refuted"]
                       else "no refutation at this window"}


def cmd_report(li, args):
    results = run_all(args.seed)
    for r in results:
        sys.stderr.write(f"criterion {r.number} ({r.name}): "
                         f"{'PASS' if r.passed else 'FAIL'} "
                         f"[{r.elapsed:.2f}s]\n")
    return dict(report_dict(results), seed=args.seed)


# what each command reads: a document of one kind, a document of any kind
# (_ANY), or nothing (None; --input is ignored)
_ANY = "any"

_COMMANDS = {
    "product": (cmd_product, _ANY),
    "order": (cmd_order, _ANY),
    "idempotents": (cmd_idempotents, _ANY),
    "max-group-image": (cmd_max_group_image, _ANY),
    "e-unitary": (cmd_e_unitary, _ANY),
    "epsilon": (cmd_epsilon, _ANY),
    "fibers": (cmd_fibers, _ANY),
    "sos-witness": (cmd_sos_witness, _ANY),
    "bundle-check": (cmd_bundle_check, _ANY),
    "grading-check": (cmd_grading_check, _ANY),
    "orthogonality": (cmd_orthogonality, "graph"),
    "factorize": (cmd_factorize, "graph"),
    "ql-check": (cmd_ql_check, "toeplitz"),
    "toeplitz-oracle": (cmd_toeplitz_oracle, "toeplitz"),
    "psd": (cmd_psd, _ANY),
    "norm-bound": (cmd_norm_bound, _ANY),
    "coaction-check": (cmd_coaction_check, _ANY),
    "example62": (cmd_example62, None),
    "report": (cmd_report, None),
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
    handler, kind = _COMMANDS[args.command]
    try:
        if min(args.window, args.length) < 0:
            raise InputError("--window and --length must be >= 0")
        li = None if kind is None else _load(args)
        if kind not in (None, _ANY) and li.kind != kind:
            raise InputError(f"{args.command} needs a {kind} document")
        report = handler(li, args)
    except MathAssertionError as exc:
        report, code = {"error": {"type": type(exc).__name__,
                                  "message": str(exc),
                                  "witness": repr(exc.witness)}}, 1
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        if exc.witness is not None:
            sys.stderr.write(f"witness: {exc.witness!r}\n")
        return 2
    else:
        # a scan or check that found a violation, or a failed acceptance suite
        code = int(report.get("ok") is False or report.get("all_passed") is False)
    report["command"] = args.command
    _emit(report, args.format)
    sys.stderr.write(f"elapsed: {time.perf_counter() - started:.3f}s\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
