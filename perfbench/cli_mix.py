"""cli: in-process invsemi.cli.main(argv) over a seeded mix of commands.

The 18 non-report commands on bundled fixtures and generated documents,
plus malformed documents that must exit 2. Inputs are tiny, so the
cli/jsonio dispatch (argument parsing, schema validation, report encoding)
dominates: a change that adds fixed cost per call shows here. Loads cli and
jsonio, and every other layer lightly.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

from invsemi import cli

from common import Op, expect


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse rejects bad flags this way
            code = exc.code
    return code, out.getvalue()


def _op(label, argv, want_code, field_check=None, known_defect=None):
    command = argv[0]

    def check(out):
        code, stdout = out
        expect(code == want_code, f"exit {code}, expected {want_code}")
        if want_code == 2:
            expect(stdout == "", "stdout not empty on an input error")
        else:
            report = json.loads(stdout)
            if field_check is not None:
                expect(field_check(report), f"report fields: {stdout[:200]}")
        return {"code": code, "stdout": stdout}

    return Op(f"{command}.{label}", command, lambda: _call(argv), check, known_defect)


def _br_product(p, q):
    """Independent product in BR(Z/2, id): (m,a,n)(i,b,j) = (m-n+t, a+b, j-i+t)."""
    (m, a, n), (i, b, j) = p, q
    t = max(n, i)
    return (m - n + t, a ^ b, j - i + t)


def build(rng, workdir):
    labels = rng.choice((["1", "g"], ["e", "t"], ["id", "s"]))
    br = {"kind": "bruck_reilly",
          "group": {"table": [[0, 1], [1, 0]], "labels": labels}, "theta": [0, 1]}

    def scalar():
        return {"re": f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}",
                "im": f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"}

    def triple():
        return (rng.randint(0, 6), rng.randint(0, 1), rng.randint(0, 6))

    def enc(t):
        return [t[0], labels[t[1]], t[2]]

    def doc(name, body):
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump(body, fh)
        return ["--input", path]

    factors = [triple() for _ in range(3)]
    want = _br_product(_br_product(factors[0], factors[1]), factors[2])
    support = rng.sample([(m, a, n) for m in range(5) for a in (0, 1) for n in range(5)], 4)
    element = {"terms": [[enc(t), scalar()] for t in support]}
    off_kernel = sum(1 for m, _, n in support if m != n)
    degrees = len({m - n for m, _, n in support})
    k = rng.randint(1, 3)
    coset_elem = {"terms": [[enc((m, rng.randint(0, 1), m - k)), scalar()]
                            for m in rng.sample(range(k, k + 6), 3)]}
    loop = {"kind": "graph", "vertices": ["v"],
            "edges": [{"id": 0, "src": "v", "rng": "v"}, {"id": 1, "src": "v", "rng": "v"}]}
    roots = [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3)]
    w62 = rng.randint(5, 60)
    wsb = rng.randint(4, 12)
    b_star = [[j + 1, j] for j in range(wsb + 1)]
    length = rng.randint(1, 2)

    ops = [
        _op("br", ["product"] + doc("product", dict(br, elements=[enc(t) for t in factors])), 0,
            lambda r: r["product"] == enc(want)),
        _op("br", ["order"] + doc("order", dict(br, elements=[enc(triple()), enc(triple())])), 0,
            lambda r: isinstance(r["u_leq_t"], bool)),
        _op("bouquet2", ["idempotents", "--input", "bouquet2", "--length", str(length)], 0,
            lambda r: r["count"] == 2 ** (length + 1) - 1),
        _op("clifford_z2", ["max-group-image", "--input", "clifford_z2"], 0,
            lambda r: r["order"] == 2 and r["e_unitary"] is True),
        _op("two_parallel", ["max-group-image", "--input", "two_parallel", "--length", "2"], 0,
            lambda r: r["order"] == 1),
        _op("clifford_z2", ["e-unitary", "--input", "clifford_z2"], 0,
            lambda r: r["e_unitary"] is True),
        _op("five_element", ["e-unitary", "--input", "five_element"], 0,
            lambda r: r["e_unitary"] is False and r["witness"] == "0>1"),
        _op("br", ["epsilon"] + doc("epsilon", dict(br, element=element)), 0,
            lambda r: r["dropped_terms"] == off_kernel),
        _op("br", ["fibers"] + doc("fibers", dict(br, element=element)), 0,
            lambda r: r["count"] == degrees),
        _op("graph_idempotent", ["sos-witness"] + doc("sos_graph", dict(loop, element={"terms": [
            [{"mu": [0], "nu": []}, scalar()], [{"mu": [0, 1], "nu": [1]}, scalar()]]})), 0,
            lambda r: r["exact"] is True),
        _op("br_coset", ["sos-witness"] + doc("sos_coset", dict(br, mode="coset",
                                                              element=coset_elem)), 0,
            lambda r: r["mode"] == "coset" and r["exact"] is True),
        # the BR kernel holds (m, g, m), so the idempotent-kernel witness must fail
        _op("br_idempotent", ["sos-witness"] + doc("sos_fail", dict(br, element={"terms": [
            [[1, labels[1], 1], "1"], [[0, labels[0], 0], "1"]]})), 1,
            lambda r: r["error"]["type"] == "WitnessFailure"),
        _op("bad_rep", ["sos-witness"] + doc("sos_bad_rep", dict(
            loop, mode="coset", rep={"mu": [0, 0], "nu": [0]},
            element={"terms": [[{"mu": [0], "nu": []}, "1"]]})), 1,
            lambda r: r["error"]["type"] == "NotInCoset"),
        _op("bouquet2", ["bundle-check", "--input", "bouquet2", "--length", "2"], 0,
            lambda r: r["ok"] is True),
        _op("br_z2_id", ["grading-check", "--input", "br_z2_id", "--window", "2"], 0,
            lambda r: r["ok"] is True and r["idempotent_pure"] is False),
        _op("two_parallel", ["orthogonality", "--input", "two_parallel", "--length", "3"], 0,
            lambda r: r["ok"] is True and r["checked"] == 2),
        _op("one_loop", ["factorize"] + doc("factorize", {
            "kind": "graph", "vertices": ["v"], "edges": [{"id": 0, "src": "v", "rng": "v"}],
            "s": [[0, 1]], "t": [],
            "element": {"terms": [[{"mu": [0] * (j + 1), "nu": [0] * j, "vertex": "v"},
                                   f"{p * p}/{q * q}"] for j, (p, q) in enumerate(roots)]}}), 0,
            lambda r: r["exact"] is True and r["k_values"] == [0, 1, 2]),
        _op("toeplitz_z2", ["ql-check", "--input", "toeplitz_z2", "--length", "3"], 0,
            lambda r: r["ok"] is True and r["pairs_checked"] == 256),
        _op("toeplitz_z", ["toeplitz-oracle", "--input", "toeplitz_z", "--window", "6",
                           "--length", "3", "--seed", str(rng.randint(0, 999))], 0,
            lambda r: r["ok"] is True),
        _op("shift", ["psd"] + doc("psd", {"kind": "shift_bundle", "window": wsb, "element": {
            "terms": [["e", "1"], ["b", "-1"], [{"map": b_star}, "-1"]]}}), 0,
            lambda r: r["refuted"] is True
            and abs(r["value"] - (1 - 2 * math.cos(math.pi / (wsb + 2)))) < 1e-9),
        _op("br_lambda", ["psd"] + doc("psd_br", dict(br, rep="lambda", element={"terms": [
            [[1, labels[1], 1], "1"], [[0, labels[0], 0], "1"]]})), 0,
            lambda r: r["rep"] == "lambda"),
        _op("shift", ["norm-bound"] + doc("norm", {"kind": "shift_bundle", "window": wsb,
                                                  "element": {"terms": [["e", "1"], ["a", "-1"]]}}), 0,
            lambda r: abs(r["norm_lower_bound"] - 2 * math.cos(math.pi / (2 * wsb + 3))) < 1e-9),
        _op("bouquet1", ["coaction-check", "--input", "bouquet1", "--length", "2"], 0,
            lambda r: r["ok"] is True),
        _op("br_z2_id", ["coaction-check", "--input", "br_z2_id", "--window", "2"], 0,
            lambda r: r["ok"] is True),
        _op("window", ["example62", "--window", str(w62)], 0,
            lambda r: abs(r["min_eig"] - (1 - 2 * math.cos(math.pi / (w62 + 2)))) < 1e-9),
        # malformed input: the contract is exit 2 with nothing on stdout
        _op("no_edges", ["idempotents"] + doc("no_edges", {"kind": "graph", "vertices": ["v"]}), 2),
        _op("bad_kind", ["grading-check"] + doc("bad_kind", {"kind": "nope"}), 2),
        _op("index_range", ["product"] + doc("index_range", {
            "kind": "semigroup", "table": [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 2, 3], [1, 0, 3, 2]],
            "elements": [0, rng.randint(4, 99)]}), 2),
        _op("infinite", ["e-unitary"] + doc("infinite", br), 2),
        _op("no_seed", ["toeplitz-oracle", "--input", "toeplitz_z"], 2),
        _op("bad_flag", ["psd", "--input", "shift_window5", "--format", "xml"], 2),
        _op("mixed_fiber", ["sos-witness"] + doc("mixed_fiber", dict(br, mode="coset", element={
            "terms": [[[2, labels[1], 1], "1"], [[1, labels[0], 2], "1"]]})), 2),
        _op("junction", ["factorize"] + doc("junction", {
            "kind": "graph", "vertices": ["v"], "edges": [{"id": 0, "src": "v", "rng": "v"}],
            "s": [[0, 1], [0, 1]], "t": [[0, 1]],
            "element": {"terms": [[{"mu": [0, 0], "nu": [0]}, "1"]]}}), 2),
        # malformed payloads that escape main() as tracebacks today
        _op("bad_triple", ["product"] + doc("bad_triple", dict(
            br, elements=[["x", 0, 1], enc(triple())])), 2, known_defect="TypeError"),
        _op("bad_scalar", ["epsilon"] + doc("bad_scalar", dict(br, element={"terms": [
            [enc(triple()), {"re": "x"}]]})), 2, known_defect="ValueError"),
    ]
    # one warm-up call per command
    warmups, seen = [], set()
    for op in ops:
        if op.kind not in seen and op.known_defect is None:
            seen.add(op.kind)
            warmups.append(op)
    return ops, warmups
