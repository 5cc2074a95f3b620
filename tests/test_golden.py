"""Golden stdout corpus: every command on every bundled fixture.

`tests/golden/stdout.json` maps each invocation (command and fixture) to
its exit code and the sha256 of its stdout. The test replays every entry
in-process and asserts byte identity, so a refactor that changes any report
byte, or any exit code, on the bundled fixtures fails here. Stderr carries
timings and is not compared.

The fixtures carry no payload, so the commands that decode one (`product`,
`order`, `epsilon`, `fibers`, `sos-witness`, `psd`, `norm-bound`,
`factorize`) stop at "needs a field" on them. `PAYLOADS` adds one document
per command and structure kind, a fixture plus fixed payload fields, so the
element and degree codecs of every kind are fenced too. Their entries are
keyed `<command> --input <fixture>+<payload name>`. `FLAGGED` runs the graded
scans past the default length bound, keyed by their whole argv.

Re-record after an intended output change with

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest

from invsemi.cli import _COMMANDS, main
from invsemi.jsonio import list_fixtures

CORPUS = Path(__file__).parent / "golden" / "stdout.json"


def _terms(*pairs):
    return {"terms": list(pairs)}


# bouquet1 elements, for the loop s = edge 0 at v: p_v, s, s s s*, s s*
V = {"mu": [], "nu": [], "vertex": "v"}
S0 = {"mu": [0], "nu": []}
S00_0 = {"mu": [0, 0], "nu": [0]}
SS = {"mu": [0], "nu": [0]}
# b* in shift_window5
SHIFT_B_STAR = {"map": [[k + 1, k] for k in range(6)]}
# br_z2_id terms over the idempotents (m, 1, m) and the (m, g, m), exact
# and float
BR_REPEATS = [[[0, "1", 0], "1"], [[1, "1", 1], "-1"], [[2, "1", 2], "2"], [[3, "1", 3], "-2"],
              [[0, "g", 0], "1/2"], [[1, "g", 1], "1/4"], [[2, "g", 2], "-3/4"]]
BR_REPEATS_FLOAT = [[[0, "1", 0], 0.1], [[1, "1", 1], 0.2], [[2, "1", 2], -0.3],
                    [[3, "1", 3], 0.4], [[0, "g", 0], 0.5], [[1, "g", 1], 0.25],
                    [[2, "g", 2], -0.75]]

# (command, fixture, payload name, fields added to the fixture document):
# one fixture per structure kind
PAYLOADS = [
    # semigroup: labels and indices, the group-image grading
    ("product", "clifford_z2", "mixed", {"elements": ["0.1", "1.1", 3]}),
    ("order", "clifford_z2", "pair", {"elements": ["1.0", "0.0"]}),
    ("epsilon", "clifford_z2", "kernel", {"element": _terms(
        ["0.1", "1/2"], ["1.0", {"re": "2", "im": "-1/3"}], ["1.1", "-1"])}),
    ("epsilon", "clifford_z2", "subsemigroup", {"subsemigroup": ["1.0", "1.1"], "element": _terms(
        ["0.1", "1/2"], ["1.0", {"re": "2", "im": "-1/3"}], ["1.1", "-1"])}),
    ("fibers", "clifford_z2", "mixed", {"element": _terms(
        ["0.1", "1/2"], ["1.0", {"re": "2", "im": "-1/3"}], ["1.1", "-1"])}),
    ("sos-witness", "clifford_z2", "idempotent", {"element": _terms(["1.0", "2"], ["0.0", "-1"])}),
    ("sos-witness", "clifford_z2", "coset", {"mode": "coset", "rep": "1.1",
                                              "element": _terms(["0.1", "1"], ["1.1", "1/2"])}),
    ("psd", "clifford_z2", "lambda", {"element": _terms(["1.0", "1"], ["0.1", "-2"])}),
    ("norm-bound", "clifford_z2", "rho", {"rep": "rho",
                                          "element": _terms(["1.0", "1"], ["0.1", "-2"])}),
    # graph: path pairs, free-group degrees
    ("product", "bouquet1", "mixed", {"elements": [S0, {"mu": [], "nu": [0], "vertex": "v"},
                                                    S00_0]}),
    ("order", "bouquet1", "pair", {"elements": [SS, V]}),
    ("epsilon", "bouquet1", "kernel", {"element": _terms([SS, "1"], [S0, "-1/2"], [V, "3"])}),
    ("fibers", "bouquet1", "mixed", {"element": _terms([SS, "1"], [S0, "-1/2"], [V, "3"])}),
    ("sos-witness", "bouquet1", "idempotent", {"element": _terms([S0, "1"], [S00_0, "2"])}),
    ("sos-witness", "bouquet1", "coset", {"mode": "coset", "rep": S0,
                                          "element": _terms([S0, "1"], [S00_0, "2"])}),
    ("psd", "bouquet1", "lambda", {"element": _terms(
        [V, "2"], [S0, "-1"], [{"mu": [], "nu": [0], "vertex": "v"}, "-1"])}),
    ("norm-bound", "bouquet1", "lambda", {"element": _terms([V, "1"], [S0, "-1"])}),
    ("psd", "bouquet1", "rho", {"rep": "rho", "element": _terms(
        [V, "2"], [S0, "-1"], [{"mu": [], "nu": [0], "vertex": "v"}, "-1"])}),
    ("norm-bound", "bouquet1", "rho", {"rep": "rho", "element": _terms([V, "1"], [S0, "-1"])}),
    ("factorize", "bouquet1", "one_loop", {"s": [[0, 1]], "t": [], "element": _terms(
        [{"mu": [0], "nu": [], "vertex": "v"}, "4"], [S00_0, "1/9"])}),
    # Bruck-Reilly: [m, a, n] triples, integer degrees, the canonical coset rep
    ("product", "br_z2_id", "mixed", {"elements": [[1, "g", 0], [0, "1", 2], [2, 1, 1]]}),
    ("order", "br_z2_id", "pair", {"elements": [[1, "1", 1], [0, "1", 0]]}),
    ("epsilon", "br_z2_id", "kernel", {"element": _terms(
        [[1, "g", 1], "1"], [[2, "1", 0], "1/3"], [[0, "g", 0], {"re": "0", "im": "1"}])}),
    ("fibers", "br_z2_id", "mixed", {"element": _terms(
        [[1, "g", 1], "1"], [[2, "1", 0], "1/3"], [[0, "g", 0], {"re": "0", "im": "1"}])}),
    ("sos-witness", "br_z2_id", "idempotent", {"element": _terms(
        [[1, "g", 1], "1"], [[0, "1", 0], "1"])}),
    ("sos-witness", "br_z2_id", "coset", {"mode": "coset", "element": _terms(
        [[2, "g", 1], "1"], [[3, "1", 2], "-2"])}),
    ("psd", "br_z2_id", "lambda", {"element": _terms([[1, "g", 1], "1"], [[0, "1", 0], "1"])}),
    ("psd", "br_z2_id", "rho", {"rep": "rho", "element": _terms(
        [[1, "g", 0], "1"], [[0, "g", 1], "1"], [[0, "1", 0], "-1"])}),
    ("norm-bound", "br_z2_id", "rho", {"rep": "rho", "element": _terms(
        [[1, "g", 0], "1"], [[0, "1", 0], "-1"])}),
    # Toeplitz: [s, t] pairs, tuple degrees
    ("product", "toeplitz_z2", "mixed", {"elements": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}),
    ("order", "toeplitz_z2", "pair", {"elements": [[[1, 1], [1, 1]], [[0, 0], [0, 0]]]}),
    ("epsilon", "toeplitz_z2", "kernel", {"element": _terms(
        [[[1, 0], [1, 0]], "1"], [[[1, 0], [0, 1]], "-1"])}),
    ("fibers", "toeplitz_z2", "mixed", {"element": _terms(
        [[[1, 0], [1, 0]], "1"], [[[1, 0], [0, 1]], "-1"], [[[2, 0], [0, 0]], "1/2"])}),
    ("sos-witness", "toeplitz_z2", "idempotent", {"element": _terms(
        [[[1, 0], [0, 0]], "1"], [[[2, 1], [1, 1]], "2"])}),
    ("sos-witness", "toeplitz_z2", "coset", {"mode": "coset", "rep": [[1, 0], [0, 0]],
                                             "element": _terms([[[1, 0], [0, 0]], "1"],
                                                               [[[2, 1], [1, 1]], "2"])}),
    ("psd", "toeplitz_z2", "lambda", {"element": _terms(
        [[[0, 0], [0, 0]], "2"], [[[1, 0], [0, 0]], "-1"], [[[0, 0], [1, 0]], "-1"])}),
    ("norm-bound", "toeplitz_z2", "lambda", {"element": _terms(
        [[[0, 0], [0, 0]], "1"], [[[1, 0], [0, 0]], "-1"])}),
    ("psd", "toeplitz_z2", "rho", {"rep": "rho", "element": _terms(
        [[[0, 0], [0, 0]], "2"], [[[1, 0], [0, 0]], "-1"], [[[0, 0], [1, 0]], "-1"])}),
    ("norm-bound", "toeplitz_z2", "rho", {"rep": "rho", "element": _terms(
        [[[0, 0], [0, 0]], "1"], [[[1, 0], [0, 0]], "-1"])}),
    # shift bundle: named shifts and maps, the b-generated subsemigroup
    ("product", "shift_window5", "mixed", {"elements": ["a", "e", {"map": [[0, 1], [1, 2]]}]}),
    ("order", "shift_window5", "pair", {"elements": ["b", "a"]}),
    ("epsilon", "shift_window5", "h_member", {"element": _terms(
        ["e", "1"], ["a", "-1"], ["b", "1/2"])}),
    ("epsilon", "shift_window5", "subsemigroup", {"subsemigroup": ["e", "b"], "element": _terms(
        ["e", "1"], ["a", "-1"], ["b", "1/2"])}),
    ("fibers", "shift_window5", "mixed", {"element": _terms(
        ["e", "1"], ["a", "-1"], ["b", "1/2"], [SHIFT_B_STAR, "2"])}),
    ("sos-witness", "shift_window5", "idempotent", {"element": _terms(["a", "1"], ["b", "-1"])}),
    ("psd", "shift_window5", "action", {"element": _terms(
        ["e", "1"], ["b", "-1"], [SHIFT_B_STAR, "-1"])}),
    ("norm-bound", "shift_window5", "action", {"element": _terms(["e", "1"], ["a", "-1"])}),
    # float coefficients: repeated elements sum in input order, negative
    # values and non-square roots print as floats
    ("epsilon", "clifford_z2", "float", {"element": _terms(
        ["1.0", 0.1], ["0.1", -0.5], ["1.0", 0.2], ["1.1", -1.5], ["1.1", 1.5])}),
    ("epsilon", "br_z2_id", "float", {"element": _terms(
        [[1, "g", 1], -0.25], [[2, "1", 0], 0.1], [[1, "g", 1], 0.2],
        [[0, "g", 0], {"re": "-0.5", "im": "0.0", "float": True}])}),
    ("fibers", "bouquet1", "float", {"element": _terms(
        [SS, -0.1], [S0, 0.1], [V, 2.5], [SS, -0.2], [S0, -0.1])}),
    ("fibers", "br_z2_id", "float", {"element": _terms(
        [[1, "g", 1], 0.1], [[2, "1", 0], -0.3], [[1, "g", 1], 0.2], [[0, "g", 0], -1.0])}),
    ("sos-witness", "clifford_z2", "float", {"element": _terms(["1.0", 0.5], ["0.0", -1.5])}),
    ("sos-witness", "br_z2_id", "float", {"mode": "coset", "element": _terms(
        [[2, "g", 1], -0.5], [[3, "1", 2], 2.0], [[2, "g", 1], 0.25])}),
    ("factorize", "bouquet1", "float", {"s": [[0, 1]], "t": [], "element": _terms(
        [{"mu": [0], "nu": [], "vertex": "v"}, "2"], [S00_0, -0.5])}),
    # repeated matrix positions: (m, 1, m) fixes (i, c, j) for every m <= i,
    # and (m, g, m) moves it to (i, gc, j), so runs of up to three terms
    # share their prefixes; 1 + (-1) passes through zero, and 1/2 + 1/4 +
    # (-3/4) cancels. The norm bounds add (1, g, 0), so their matrix is not
    # Hermitian and its Gram product repeats positions too.
    ("psd", "br_z2_id", "repeats", {"element": _terms(*BR_REPEATS)}),
    ("psd", "br_z2_id", "repeats_rho", {"rep": "rho", "element": _terms(*BR_REPEATS)}),
    ("norm-bound", "br_z2_id", "repeats", {"element": _terms(
        *BR_REPEATS, [[1, "g", 0], "1"])}),
    ("psd", "br_z2_id", "repeats_float", {"element": _terms(*BR_REPEATS_FLOAT)}),
    ("norm-bound", "br_z2_id", "repeats_float", {"rep": "rho", "element": _terms(
        *BR_REPEATS_FLOAT, [[1, "g", 0], 0.5])}),
]

# the graded scans at L = 3, where most pairs multiply to zero; each one
# runs in under 0.5 s
FLAGGED = [[command, "--input", fixture, "--length", "3"]
           for command in ("grading-check", "bundle-check", "coaction-check")
           for fixture in ("bouquet2", "two_vertex")]


def invocations(workdir):
    """(key, argv) of every non-report command on every fixture at default
    flags, of the report, of the flagged scans, and of every payload
    document, written to workdir."""
    out = [(f"{command} --input {fixture}", [command, "--input", fixture])
           for command in _COMMANDS if command != "report"
           for fixture in list_fixtures()]
    out.append(("report --seed 0", ["report", "--seed", "0"]))
    out += [(" ".join(argv), argv) for argv in FLAGGED]
    fixtures = resources.files("invsemi") / "fixtures"
    for command, fixture, name, payload in PAYLOADS:
        doc = json.loads((fixtures / f"{fixture}.json").read_text(encoding="ascii"))
        doc.update(payload)
        path = Path(workdir) / f"{command}-{fixture}-{name}.json"
        path.write_text(json.dumps(doc))
        out.append((f"{command} --input {fixture}+{name}", [command, "--input", str(path)]))
    return out


def replay(argv):
    """Run the CLI once in-process; returns (exit code, sha256 of stdout)."""
    stdout = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()


def record():
    corpus = {}
    with tempfile.TemporaryDirectory() as workdir:
        for key, argv in invocations(workdir):
            code, digest = replay(argv)
            corpus[key] = {"exit": code, "sha256": digest}
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    return corpus


def test_corpus_lists_every_invocation(tmp_path):
    corpus = json.loads(CORPUS.read_text())
    assert sorted(corpus) == sorted(key for key, _ in invocations(tmp_path))


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_stdout_matches_golden_corpus(command, tmp_path):
    corpus = json.loads(CORPUS.read_text())
    mismatches = []
    for key, argv in invocations(tmp_path):
        if argv[0] != command:
            continue
        code, digest = replay(argv)
        want = corpus[key]
        if (code, digest) != (want["exit"], want["sha256"]):
            mismatches.append(key)
    assert not mismatches


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden.py --record")
    print(f"recorded {len(record())} invocations to {CORPUS}")
