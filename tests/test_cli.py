"""End-to-end checks for the command-line front end.

Every test drives invsemi.cli.main with an argv list and reads captured
stdout/stderr, so the exit-code contract (0 pass, 1 failed assertion with a
witness, 2 bad input) and the byte-stability of reports are what is asserted,
not internal call results.
"""

import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invsemi.cli import main

BOUQUET2 = {
    "kind": "graph",
    "vertices": ["v"],
    "edges": [{"id": 0, "src": "v", "rng": "v"},
              {"id": 1, "src": "v", "rng": "v"}],
}

BR_Z2_ID = {
    "kind": "bruck_reilly",
    "group": {"table": [[0, 1], [1, 0]], "labels": ["1", "g"]},
    "theta": [0, 1],
}


def run(capsys, argv, doc=None, tmp_path=None):
    """Invoke the CLI once; returns (exit code, stdout, stderr)."""
    if doc is not None:
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(doc))
        argv = argv + ["--input", str(p)]
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# structure commands
# ---------------------------------------------------------------------------

def test_product_bruck_reilly(capsys, tmp_path):
    doc = dict(BR_Z2_ID, elements=[[3, "g", 2], [1, "g", 4]])
    code, out, _ = run(capsys, ["product"], doc, tmp_path)
    assert code == 0
    report = json.loads(out)
    # t = max(2,1) = 2: (3,g,2)(1,g,4) = (3, g*theta(g), 5) = (3, 1, 5)
    assert report["product"] == [3, "1", 5]


def test_psd_on_a_term_far_past_the_window(capsys, tmp_path):
    # theta's powers repeat, so index 2^70 costs no more than index 2
    doc = dict(BR_Z2_ID, element={"terms": [[[2 ** 70, "g", 0], "1"]]})
    code, out, _ = run(capsys, ["psd", "--window", "3"], doc, tmp_path)
    assert code == 0
    report = json.loads(out)
    assert report["basis_size"] == 32 and report["refuted"] is False


def test_order_clifford(capsys, tmp_path):
    doc = {"kind": "semigroup",
           "table": [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 2, 3], [1, 0, 3, 2]],
           "labels": ["0.0", "0.1", "1.0", "1.1"],
           "elements": ["0.0", "1.0"]}
    code, out, _ = run(capsys, ["order"], doc, tmp_path)
    assert code == 0
    report = json.loads(out)
    assert report["u_leq_t"] is True      # 0.0 = 1.0 * (0.0*0.0)
    assert report["t_leq_u"] is False
    assert report["equal"] is False


def test_idempotents_graph_window(capsys):
    code, out, _ = run(capsys, ["idempotents", "--input", "bouquet2",
                                "--length", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 3           # (eps,eps) and one per loop


def test_max_group_image_collapses(capsys):
    code, out, _ = run(capsys, ["max-group-image", "--input", "two_parallel",
                                "--length", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["order"] == 1
    assert report["e_unitary"] is False


def test_e_unitary_verdicts(capsys):
    code, out, _ = run(capsys, ["e-unitary", "--input", "clifford_z2"])
    assert code == 0
    report = json.loads(out)
    assert report["e_unitary"] is True and report["witness"] is None

    code, out, _ = run(capsys, ["e-unitary", "--input", "five_element"])
    assert code == 0
    report = json.loads(out)
    assert report["e_unitary"] is False
    assert report["witness"] == "0>1"     # trivial image, a not idempotent


# ---------------------------------------------------------------------------
# algebra commands
# ---------------------------------------------------------------------------

def test_epsilon_drops_offdiagonal(capsys, tmp_path):
    doc = {"kind": "shift_bundle", "window": 4,
           "element": {"terms": [["e", "1"], ["a", "-1"]]}}
    code, out, _ = run(capsys, ["epsilon"], doc, tmp_path)
    assert code == 0
    report = json.loads(out)
    assert report["dropped_terms"] == 1
    assert len(report["restricted"]["terms"]) == 1


def test_fibers_sorted(capsys, tmp_path):
    doc = dict(BOUQUET2, element={"terms": [
        [{"mu": [0], "nu": []}, "1"],
        [{"mu": [], "nu": [], "vertex": "v"}, "2"],
        [{"mu": [1], "nu": [1]}, "-1/3"],
    ]})
    code, out, _ = run(capsys, ["fibers"], doc, tmp_path)
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 2
    degrees = [row[0] for row in report["fibers"]]
    assert [] in degrees and [[0, 1]] in degrees


def test_sos_witness_idempotent(capsys, tmp_path):
    doc = dict(BOUQUET2, element={"terms": [
        [{"mu": [0], "nu": []}, "1/2"],
        [{"mu": [0, 0], "nu": [0]}, "1/3"],
    ]})
    code, out, _ = run(capsys, ["sos-witness"], doc, tmp_path)
    assert code == 0
    report = json.loads(out)
    assert report["exact"] is True
    assert report["identity"] == "f'* f' = f* f"
    assert len(report["witness"]["terms"]) == 2


def test_sos_witness_coset_auto_rep(capsys, tmp_path):
    doc = dict(BR_Z2_ID, mode="coset", element={"terms": [
        [[2, "g", 1], "1/2"],
        [[3, "1", 2], {"re": "1/4", "im": "-2/3"}],
    ]})
    code, out, _ = run(capsys, ["sos-witness"], doc, tmp_path)
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "coset" and report["exact"] is True


def test_sos_witness_mixed_fiber_is_input_error(capsys, tmp_path):
    doc = dict(BR_Z2_ID, mode="coset", element={"terms": [
        [[2, "g", 1], "1"], [[1, "1", 2], "1"],
    ]})
    code, out, err = run(capsys, ["sos-witness"], doc, tmp_path)
    assert code == 2
    assert out == ""
    assert "single-fiber" in err


def test_sos_witness_bad_rep_exits_one_with_witness(capsys, tmp_path):
    # rep (00,0) sits in the z fiber but (0,eps) does not factor through it
    doc = dict(BOUQUET2, mode="coset", rep={"mu": [0, 0], "nu": [0]},
               element={"terms": [[{"mu": [0], "nu": []}, "1"]]})
    code, out, _ = run(capsys, ["sos-witness"], doc, tmp_path)
    assert code == 1
    report = json.loads(out)
    assert report["error"]["type"] == "NotInCoset"
    assert report["error"]["witness"]


@pytest.mark.parametrize("c, code", [(1e100, 0), (1e160, 2)])
def test_sos_witness_float_overflow_is_input_error(capsys, tmp_path, c, code):
    # f = c (0.1) - c (1.1); at c = 1e160 the coefficients of f* f pass 1e308
    doc = json.loads((resources.files("invsemi") / "fixtures" / "clifford_z2.json")
                     .read_text(encoding="ascii"))
    doc.update(mode="coset", rep="1.1", element={"terms": [["0.1", c], ["1.1", -c]]})
    got, out, err = run(capsys, ["sos-witness"], doc, tmp_path)
    assert got == code
    if code:
        assert out == "" and "overflow" in err
    else:
        assert json.loads(out)["mode"] == "coset"


# ---------------------------------------------------------------------------
# check commands
# ---------------------------------------------------------------------------

def test_bundle_check_graph(capsys):
    code, out, _ = run(capsys, ["bundle-check", "--input", "bouquet2",
                                "--length", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["checked"] > 0 and not report["star_violations"]


def test_grading_check_br_reports_impure_kernel(capsys):
    code, out, _ = run(capsys, ["grading-check", "--input", "br_z2_id",
                                "--window", "2"])
    assert code == 0                      # multiplicative, so no failure
    report = json.loads(out)
    assert report["ok"] is True
    assert report["idempotent_pure"] is False   # (m,g,m) sits in the kernel


def test_orthogonality(capsys):
    code, out, _ = run(capsys, ["orthogonality", "--input", "two_parallel",
                                "--length", "3"])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True and report["checked"] == 2


def test_factorize_one_loop(capsys, tmp_path):
    doc = {"kind": "graph", "vertices": ["v"],
           "edges": [{"id": 0, "src": "v", "rng": "v"}],
           "s": [[0, 1]], "t": [],
           "element": {"terms": [
               [{"mu": [0], "nu": [], "vertex": "v"}, "1"],
               [{"mu": [0, 0], "nu": [0]}, "1/4"],
               [{"mu": [0, 0, 0], "nu": [0, 0]}, "9"],
           ]}}
    code, out, _ = run(capsys, ["factorize"], doc, tmp_path)
    assert code == 0
    report = json.loads(out)
    assert report["exact"] is True and report["verified"] is True
    assert report["k_values"] == [0, 1, 2]
    code2, out2, _ = run(capsys, ["factorize"], doc, tmp_path)
    assert (code2, out2) == (code, out)   # byte-identical rerun


def test_factorize_rejects_junction_cancellation(capsys, tmp_path):
    doc = {"kind": "graph", "vertices": ["v"],
           "edges": [{"id": 0, "src": "v", "rng": "v"}],
           "s": [[0, 1], [0, 1]], "t": [[0, 1]],
           "element": {"terms": [[{"mu": [0, 0], "nu": [0]}, "1"]]}}
    code, out, err = run(capsys, ["factorize"], doc, tmp_path)
    assert code == 2
    assert "junction" in err


def test_factorize_string_edge_ids(capsys, tmp_path):
    doc = {"kind": "graph", "vertices": ["v"],
           "edges": [{"id": "e", "src": "v", "rng": "v"}],
           "s": [["e", 1]], "t": [],
           "element": {"terms": [[{"mu": ["e"], "nu": [], "vertex": "v"}, "4"]]}}
    code, out, _ = run(capsys, ["factorize"], doc, tmp_path)
    assert code == 0
    assert json.loads(out)["s"] == [["e", 1]]


def test_ql_check(capsys):
    code, out, _ = run(capsys, ["ql-check", "--input", "toeplitz_z2",
                                "--length", "3"])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True and report["pairs_checked"] == 256


def test_toeplitz_oracle_requires_seed(capsys):
    code, out, err = run(capsys, ["toeplitz-oracle", "--input", "toeplitz_z"])
    assert code == 2
    assert out == "" and "--seed" in err


@pytest.mark.parametrize("argv", [
    ["toeplitz-oracle", "--input", "toeplitz_z", "--seed", "1", "--length", "0"],
    ["grading-check", "--input", "toeplitz_z2", "--length", "-1"],
    ["coaction-check", "--input", "br_z2_id", "--window", "-1"],
    ["ql-check", "--input", "toeplitz_z2", "--length", "-1"],
])
def test_bounds_that_scan_nothing_are_input_errors(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == "" and err.startswith("input error:")


def test_toeplitz_oracle_deterministic(capsys):
    argv = ["toeplitz-oracle", "--input", "toeplitz_z", "--window", "6",
            "--length", "3", "--seed", "11"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["skipped"] > 0 and report["checked"] > 0
    code2, out2, _ = run(capsys, argv)
    assert (code2, out2) == (code, out)


def test_coaction_check_graph_and_br(capsys):
    code, out, _ = run(capsys, ["coaction-check", "--input", "bouquet1",
                                "--length", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True and report["zero_cases"] > 0

    code, out, _ = run(capsys, ["coaction-check", "--input", "br_z2_id",
                                "--window", "2"])
    assert code == 0
    assert json.loads(out)["ok"] is True


# ---------------------------------------------------------------------------
# spectral commands
# ---------------------------------------------------------------------------

def test_psd_refutes_restricted_square(capsys, tmp_path):
    # epsilon(x x*) = e - b - b* on the window-5 bundle, spelled out by hand
    doc = {"kind": "shift_bundle", "window": 5,
           "element": {"terms": [
               ["e", "1"], ["b", "-1"],
               [{"map": [[1, 0], [2, 1], [3, 2], [4, 3], [5, 4]]}, "-1"],
           ]}}
    code, out, _ = run(capsys, ["psd"], doc, tmp_path)
    assert code == 0                      # a certificate, not a failure
    report = json.loads(out)
    assert report["refuted"] is True
    assert report["rep"] == "action"
    assert abs(report["value"] - (1 - 2 * math.cos(math.pi / 7))) < 1e-9


def test_psd_accepts_identity(capsys, tmp_path):
    doc = {"kind": "shift_bundle", "window": 5,
           "element": {"terms": [["e", "1"]]}}
    code, out, _ = run(capsys, ["psd"], doc, tmp_path)
    assert code == 0
    assert json.loads(out)["refuted"] is False


def test_psd_names_the_entry_of_an_inexact_adjoint(capsys, tmp_path):
    # b and its mirror carry 1 and 1 + 10^-12: close as floats, not equal
    doc = {"kind": "shift_bundle", "window": 5,
           "element": {"terms": [
               ["b", "1"],
               [{"map": [[1, 0], [2, 1], [3, 2], [4, 3], [5, 4]]}, "1000000000001/1000000000000"],
           ]}}
    code, out, err = run(capsys, ["psd"], doc, tmp_path)
    assert code == 2 and out == ""
    assert re.search(r"not Hermitian near entry \(\d+, \d+\)", err), err


def test_norm_bound_shift(capsys, tmp_path):
    doc = {"kind": "shift_bundle", "window": 20,
           "element": {"terms": [["e", "1"], ["a", "-1"]]}}
    code, out, _ = run(capsys, ["norm-bound"], doc, tmp_path)
    assert code == 0
    report = json.loads(out)
    # ||1 - shift|| on 21 points: largest singular value 2cos(pi/43)
    assert abs(report["norm_lower_bound"] - 2 * math.cos(math.pi / 43)) < 1e-9
    assert report["basis_size"] == 21


def test_example62_window5(capsys):
    code, out, _ = run(capsys, ["example62", "--window", "5"])
    assert code == 0
    report = json.loads(out)
    assert abs(report["min_eig"] - (1 - 2 * math.cos(math.pi / 7))) < 1e-12
    assert report["min_eig"] < -0.8
    assert report["verdict"] == "not positive in ℂH"
    assert report["epsilon_coefficient_exact"] is True


def test_example62_above_two_thousand_points_is_byte_identical(capsys):
    first = run(capsys, ["example62", "--window", "2100"])
    second = run(capsys, ["example62", "--window", "2100"])
    assert first[0] == 0
    assert first[1] == second[1]
    assert abs(json.loads(first[1])["min_eig"] - (1 - 2 * math.cos(math.pi / 2102))) < 1e-9


def test_example62_large_window_approaches_minus_one(capsys):
    code, out, _ = run(capsys, ["example62", "--window", "200"])
    assert code == 0
    report = json.loads(out)
    assert report["min_eig"] < -0.99
    assert report["verdict"] == "not positive in ℂH"


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------

def test_report_runs_every_criterion(capsys):
    code, out, err = run(capsys, ["report", "--seed", "7"])
    assert code == 0
    report = json.loads(out)
    assert report["all_passed"] is True
    assert len(report["criteria"]) == 9
    assert report["seed"] == 7
    assert "criterion 1" in err           # progress lines stay on stderr
    assert "elapsed" not in out           # timings never pollute the report


def test_report_requires_seed(capsys):
    code, out, err = run(capsys, ["report"])
    assert code == 2
    assert out == "" and "--seed" in err


def test_report_byte_identical(capsys):
    _, out1, _ = run(capsys, ["report", "--seed", "3"])
    _, out2, _ = run(capsys, ["report", "--seed", "3"])
    assert out1 == out2


# ---------------------------------------------------------------------------
# input handling
# ---------------------------------------------------------------------------

def test_schema_violation_points_into_document(capsys, tmp_path):
    doc = {"kind": "graph", "vertices": ["v"], "edges": [{"id": 0, "src": "v"}]}
    code, out, err = run(capsys, ["idempotents"], doc, tmp_path)
    assert code == 2
    assert out == ""
    assert "$.edges[0]" in err and "rng" in err


def test_bruck_reilly_triple_with_string_index_is_input_error(capsys, tmp_path):
    doc = dict(BR_Z2_ID, elements=[["x", 0, 1], [1, "g", 2]])
    code, out, err = run(capsys, ["product"], doc, tmp_path)
    assert code == 2
    assert out == ""
    assert "input error" in err and "Traceback" not in err


def test_unparseable_scalar_is_input_error(capsys, tmp_path):
    doc = dict(BR_Z2_ID, element={"terms": [[[1, "g", 2], {"re": "x"}]]})
    code, out, err = run(capsys, ["epsilon"], doc, tmp_path)
    assert code == 2
    assert out == ""
    assert "bad scalar" in err



@pytest.mark.parametrize("scalar", [{"re": True}, {"re": "1", "im": False},
                                    {"re": "1e4301"}, {"re": "1", "im": "1e-4301"}])
def test_boolean_or_huge_exponent_scalar_is_input_error(capsys, tmp_path, scalar):
    doc = dict(BR_Z2_ID, element={"terms": [[[1, 0, 0], scalar]]})
    code, out, err = run(capsys, ["epsilon"], doc, tmp_path)
    assert code == 2
    assert out == ""
    assert "bad scalar" in err


@pytest.mark.parametrize("text", ["1e4300", "-1e-4300"])
def test_scalar_past_the_print_limit_is_input_error(capsys, tmp_path, text):
    doc = dict(BR_Z2_ID, element={"terms": [[[1, 0, 0], {"re": text}]]})
    code, out, err = run(capsys, ["epsilon"], doc, tmp_path)
    assert code == 2
    assert out == ""
    assert "bad scalar" in err and "Traceback" not in err


def test_scalar_at_the_print_limit_is_accepted(capsys, tmp_path):
    doc = dict(BR_Z2_ID, element={"terms": [[[1, 0, 1], {"re": "9e4299"}]]})
    code, out, _ = run(capsys, ["epsilon"], doc, tmp_path)
    assert code == 0
    assert json.loads(out)["restricted"]["terms"][0][1]["re"] == str(9 * 10 ** 4299)


def test_computed_scalar_past_the_print_limit_is_input_error(capsys, tmp_path):
    # each term is within the digit cap, and their sum 1.8e4300 is not
    term = [[1, 0, 1], {"re": "9e4299"}]
    doc = dict(BR_Z2_ID, element={"terms": [term, term]})
    code, out, err = run(capsys, ["epsilon"], doc, tmp_path)
    assert code == 2
    assert out == ""
    assert "4300 digits" in err and "Traceback" not in err


def test_missing_input(capsys):
    code, _, err = run(capsys, ["idempotents"])
    assert code == 2
    assert "--input" in err


def test_unknown_fixture_lists_names(capsys):
    code, _, err = run(capsys, ["idempotents", "--input", "no_such_fixture"])
    assert code == 2
    assert "bouquet1" in err and "toeplitz_z2" in err


def test_toeplitz_window_of_high_rank(capsys, tmp_path):
    # building the window recursed once per coordinate, past the stack at n = 500
    code, out, _ = run(capsys, ["idempotents", "--length", "0"],
                       {"kind": "toeplitz", "n": 600}, tmp_path)
    assert code == 0
    assert json.loads(out)["idempotents"] == [[[0] * 600, [0] * 600]]


def test_infinite_structure_rejected(capsys):
    code, _, err = run(capsys, ["max-group-image", "--input", "toeplitz_z"])
    assert code == 2
    assert "infinite" in err


@pytest.mark.parametrize("command", ["max-group-image", "e-unitary"])
def test_cyclic_graph_group_image_names_the_cycle(capsys, command):
    for length in ("0", "2"):
        code, out, err = run(capsys, [command, "--input", "bouquet1", "--length", length])
        assert code == 2
        assert out == ""
        assert "cycle through edges [0]" in err


@pytest.mark.parametrize("command", ["max-group-image", "e-unitary"])
def test_acyclic_graph_group_image_ignores_length(capsys, command):
    # the whole semigroup is enumerated, whatever the length bound
    outs = {run(capsys, [command, "--input", "two_parallel", "--length", length])[:2]
            for length in ("0", "1", "5")}
    assert len(outs) == 1 and outs.pop()[0] == 0


def test_text_format(capsys):
    code, out, _ = run(capsys, ["e-unitary", "--input", "clifford_z2",
                                "--format", "text"])
    assert code == 0
    assert "e_unitary: true" in out
    assert not out.lstrip().startswith("{")


def test_graph_element_with_non_list_leg_is_input_error(capsys, tmp_path):
    doc = dict(BOUQUET2, element={"mu": 5, "nu": []})
    code, out, err = run(capsys, ["psd"], doc, tmp_path)
    assert code == 2
    assert out == ""
    assert "mu and nu" in err and "Traceback" not in err


def test_graph_element_vertex_must_be_the_legs_source(capsys, tmp_path):
    # edge 0 runs u -> v, so a pair of nonempty legs sits at u, never at v
    elem = {"mu": [0], "nu": [0], "vertex": "v"}
    doc = {"kind": "graph", "vertices": ["u", "v"],
           "edges": [{"id": 0, "src": "u", "rng": "v"}], "elements": [elem, elem]}
    code, out, err = run(capsys, ["product"], doc, tmp_path)
    assert code == 2
    assert out == ""
    assert "'v'" in err and "Traceback" not in err
    doc["elements"] = [dict(elem, vertex="u")] * 2
    code, out, _ = run(capsys, ["product"], doc, tmp_path)
    assert code == 0
    assert json.loads(out)["product"]["vertex"] == "u"


def test_shift_map_with_short_pair_is_input_error(capsys, tmp_path):
    doc = {"kind": "shift_bundle", "window": 5, "element": {"map": [[1]]}}
    code, out, err = run(capsys, ["psd"], doc, tmp_path)
    assert code == 2
    assert out == ""
    assert "[x, y] pairs" in err and "Traceback" not in err


@pytest.mark.parametrize("command, field, element", [
    ("fibers", "element", {"map": [[0, "x"]]}),
    ("sos-witness", "element", {"map": [[0, "x"]]}),
    ("epsilon", "element", {"terms": [[{"map": [[0, "x"]]}, "1"]]}),
    ("fibers", "element", {"map": [[1.0, 2]]}),
    ("fibers", "element", {"map": [[True, 2]]}),
    ("product", "elements", [{"map": [[100, 200]]}, {"map": [[200, 300]]}]),
    ("product", "elements", [{"map": [[0, 1]]}, {"map": [[6, 7]]}]),
])
def test_shift_map_off_the_integer_window_is_input_error(capsys, tmp_path, command,
                                                         field, element):
    doc = {"kind": "shift_bundle", "window": 5, field: element}
    code, out, err = run(capsys, [command], doc, tmp_path)
    assert code == 2
    assert out == ""
    assert "is not an integer in [-5, 6]" in err and "Traceback" not in err


@pytest.mark.parametrize("element, message", [
    # the bundle a, e and b generate holds constant shifts on intervals only
    ({"map": [[0, 0], [2, 2]]}, "not a constant shift on an interval"),    # a gap
    ({"map": [[0, 1], [1, 3]]}, "not a constant shift on an interval"),    # uneven
    ({"map": [[0, 1], [1, 1]]}, "not injective"),
])
def test_shift_map_that_is_no_interval_shift_is_input_error(capsys, tmp_path, element,
                                                            message):
    doc = {"kind": "shift_bundle", "window": 2, "element": element}
    code, out, err = run(capsys, ["fibers"], doc, tmp_path)
    assert code == 2
    assert out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("argv, doc", [
    (["example62", "--window", "10000001"], None),
    (["psd"], {"kind": "shift_bundle", "window": 10000001,
               "element": {"terms": [["e", "1"], ["b", "-1"]]}}),
    # the window's point range is longer than any machine int can count
    (["norm-bound"], {"kind": "shift_bundle", "window": 2 ** 64,
                      "element": {"terms": [["e", "1"], ["b", "-1"]]}}),
    (["example62", "--window", str(2 ** 64)], None),
])
def test_action_window_past_the_cap_is_input_error(capsys, tmp_path, argv, doc):
    # one past the cap: refused before a single point is listed
    code, out, err = run(capsys, argv, doc, tmp_path)
    assert code == 2
    assert out == ""
    assert "action cap 10000000" in err and "Traceback" not in err


@pytest.mark.parametrize("doc, message", [
    ({"table": [[0]], "star": [0, 0]}, "$.star: 2 entries for 1 elements"),
    # a left-zero band: every element is an inverse of every other
    ({"table": [[0, 0], [1, 1]], "star": [1, 1]}, "star not involutive at 0"),
    ({"table": [[0, 1], [1, 0]], "zero": 0}, "declared zero is not absorbing"),
    # a zero that star moves fails the inverse check: 1 = 1 0 1 would be 0
    ({"table": [[0, 0], [0, 1]], "star": [1, 1], "zero": 0}, "star table wrong at 0"),
])
def test_table_that_fails_validation_is_input_error(capsys, tmp_path, doc, message):
    code, out, err = run(capsys, ["idempotents"], dict(doc, kind="semigroup"), tmp_path)
    assert code == 2
    assert out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["idempotents", "fibers", "product"])
def test_generators_with_mixed_point_types_are_input_error(capsys, tmp_path, command):
    doc = {"kind": "semigroup", "generators": [[["a", 1], [0, 2]]],
           "element": 0, "elements": [0, 0]}
    code, out, err = run(capsys, [command], doc, tmp_path)
    assert code == 2
    assert out == ""
    assert "must be comparable" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["idempotents", "order"])
@pytest.mark.parametrize("generators, label", [
    ([[[1, 1]], [["1", "1"]]], "id{1}"),
    ([[["1,2", "1,2"]], [[1, 1], [2, 2]]], "id{1,2}"),
])
def test_generators_whose_maps_print_alike_are_input_error(capsys, tmp_path, command,
                                                          generators, label):
    doc = {"kind": "semigroup", "generators": generators, "elements": [label, label]}
    code, out, err = run(capsys, [command], doc, tmp_path)
    assert code == 2
    assert out == ""
    assert f"label {label!r} names two maps: PartialBijection(" in err
    assert "Traceback" not in err


def test_generators_over_a_mixed_carrier_that_prints_apart(capsys, tmp_path):
    doc = {"kind": "semigroup", "generators": [[[1, 1]], [["a", "a"]]]}
    code, out, _ = run(capsys, ["idempotents"], doc, tmp_path)
    assert code == 0
    assert json.loads(out)["idempotents"] == ["id{1}", "id{a}"]


@pytest.mark.parametrize("cell", ["x", 1.5, True, 1.0])
def test_non_index_table_cell_is_input_error(capsys, tmp_path, cell):
    doc = {"kind": "semigroup", "table": [[0, 1], [1, cell]]}
    code, out, err = run(capsys, ["idempotents"], doc, tmp_path)
    assert code == 2
    assert out == ""
    assert "$.table[1][1]" in err and "Traceback" not in err


@pytest.mark.parametrize("table", [
    [[0, 0], [1, 1]],                     # left-zero band: 0 has two inverses
    [[0, 0], [0, 0]],                     # null semigroup: 1 has no inverse
    [[0, 1, 2], [1, 1, 1], [2, 2, 2]],    # {1, 2} a left-zero band plus an identity
])
def test_table_without_star_that_is_not_inverse_is_input_error(capsys, tmp_path, table):
    code, out, err = run(capsys, ["idempotents"], {"kind": "semigroup", "table": table},
                         tmp_path)
    assert code == 2
    assert out == "" and "Traceback" not in err


@pytest.mark.parametrize("field, value, path", [
    ("zero", 5, "$.zero"), ("zero", -1, "$.zero"), ("star", [0, 1.0], "$.star[1]"),
    ("labels", ["e"], "$.labels")])
def test_out_of_range_zero_star_or_labels_is_input_error(capsys, tmp_path, field, value, path):
    doc = {"kind": "semigroup", "table": [[0, 1], [1, 1]], field: value}
    code, out, err = run(capsys, ["idempotents"], doc, tmp_path)
    assert code == 2
    assert out == ""
    assert path in err and "Traceback" not in err


@pytest.mark.parametrize("command, payload, path", [
    ("factorize", {"s": [[0, "x"]], "t": []}, "$.s[0][1]"),
    ("factorize", {"s": [[0, 1.7]], "t": []}, "$.s[0][1]"),
    ("factorize", {"s": [], "t": [[[0], 1]]}, "$.t[0][0]"),
    ("epsilon", {"subsemigroup": 5}, "$.subsemigroup"),
    ("sos-witness", {"mode": "cos"}, "$.mode"),
    ("product", {"elements": [{"mu": [0], "nu": []}]}, "$.elements"),
])
def test_malformed_payload_is_input_error(capsys, tmp_path, command, payload, path):
    doc = dict(BOUQUET2, element={"terms": [[{"mu": [0], "nu": []}, "1"]]}, **payload)
    code, out, err = run(capsys, [command], doc, tmp_path)
    assert code == 2
    assert out == ""
    assert path in err and "Traceback" not in err


def test_unhashable_kind_is_input_error(capsys, tmp_path):
    code, out, err = run(capsys, ["idempotents"], {"kind": ["graph"]}, tmp_path)
    assert code == 2
    assert out == ""
    assert "$.kind" in err


def test_float_group_table_cell_is_input_error(capsys, tmp_path):
    doc = dict(BR_Z2_ID, group={"table": [[0, 1.0], [1, 0]]})
    code, out, err = run(capsys, ["idempotents"], doc, tmp_path)
    assert code == 2
    assert out == ""
    assert "$.group.table[0][1]" in err and "Traceback" not in err


# rows, star entries and labels reach core unchecked by the schema; core
# names each JSON path
@pytest.mark.parametrize("doc, path", [
    ({"kind": "semigroup", "table": [[0, 1], 5]}, "$.table[1]: expected an array"),
    ({"kind": "semigroup", "table": [[0, 1], [1, 1]], "star": [0, True]}, "$.star[1]"),
    ({"kind": "semigroup", "table": [[0, 1], [1, 1]], "star": [0.0, 1]}, "$.star[0]"),
    ({"kind": "semigroup", "table": [[0, 1], [1, 1]], "labels": ["e", 7]},
     "$.labels[1]: expected a string label"),
    ({"kind": "semigroup", "table": [[0, 1], [1, 1]], "labels": [["e"], "f"]},
     "$.labels[0]: expected a string label"),
    (dict(BR_Z2_ID, group={"table": [[0, 1], "10"]}),
     "$.group.table[1]: expected an array"),
    (dict(BR_Z2_ID, group={"table": [[0, 1], [1, 0]], "labels": ["1", None]}),
     "$.group.labels[1]: expected a string label"),
])
def test_malformed_table_document_names_its_path(capsys, tmp_path, doc, path):
    code, out, err = run(capsys, ["idempotents"], doc, tmp_path)
    assert code == 2
    assert out == ""
    assert path in err and "Traceback" not in err


@pytest.mark.parametrize("command, doc, message", [
    ("idempotents", {"kind": "semigroup", "table": [[0, 1], [1, 1]], "labels": ["a", "a"]},
     "$.labels[1]: label 'a' already names element 0"),
    ("epsilon", dict(BR_Z2_ID, group={"table": [[0, 1], [1, 0]], "labels": ["g", "g"]},
                     element={"terms": [[[0, "g", 0], "1"]]}),
     "$.group.labels[1]: label 'g' already names element 0"),
])
def test_repeated_label_is_input_error(capsys, tmp_path, command, doc, message):
    code, out, err = run(capsys, [command], doc, tmp_path)
    assert code == 2
    assert out == ""
    assert message in err and "Traceback" not in err


def test_graph_names_that_print_alike_are_not_labels(capsys, tmp_path):
    # edge ids 1 and "1" are two edges whose element names coincide; the
    # names only print, so the repeated-label check does not reject them
    doc = {"kind": "graph", "vertices": ["u", "v"],
           "edges": [{"id": 1, "src": "u", "rng": "v"}, {"id": "1", "src": "u", "rng": "v"}]}
    code, out, _ = run(capsys, ["max-group-image"], doc, tmp_path)
    assert code == 0
    names = [s for s, _ in json.loads(out)["sigma"]]
    assert len(names) == 11 and names.count("(@u|1)") == 2


@pytest.mark.parametrize("command, fixture, kind", [
    ("orthogonality", "br_z2_id", "graph"),
    ("factorize", "toeplitz_z2", "graph"),
    ("ql-check", "bouquet2", "toeplitz"),
    ("toeplitz-oracle", "clifford_z2", "toeplitz"),
])
def test_kind_mismatch_names_command_and_kind(capsys, command, fixture, kind):
    code, out, err = run(capsys, [command, "--input", fixture, "--seed", "0"])
    assert code == 2
    assert out == ""
    assert err == f"input error: {command} needs a {kind} document\n"


# NaN, Infinity and 1e999 parse to non-finite floats unless the loader
# refuses them; a report carrying one is not JSON
@pytest.mark.parametrize("scalar", [
    "NaN", "Infinity", "1e999", '{"re": "nan", "im": "0", "float": true}'])
def test_non_finite_float_is_input_error(capsys, tmp_path, scalar):
    p = tmp_path / "doc.json"
    p.write_text('{"kind": "semigroup", "table": [[0]], '
                 '"element": {"terms": [[0, %s]]}}' % scalar)
    code, out, err = run(capsys, ["psd", "--input", str(p)])
    assert code == 2
    assert out == ""
    assert "input error" in err


@pytest.mark.parametrize("command", ["psd", "norm-bound"])
@pytest.mark.parametrize("terms", [
    [[0, "1e400"]],                   # exact, past the float range
    [[0, 1e308], [1, 1e308]],         # finite floats whose sum overflows
])
def test_coefficient_past_float_range_is_input_error(capsys, tmp_path, command, terms):
    doc = {"kind": "semigroup", "table": [[0, 1], [1, 1]], "element": {"terms": terms}}
    code, out, err = run(capsys, [command], doc, tmp_path)
    assert code == 2
    assert out == ""
    assert "float range" in err or "overflowed" in err


def test_eigenvalue_past_float_range_is_input_error(capsys, tmp_path):
    # every entry is finite, but the norm 1e308 (1 + 2 cos(pi/7)) is not
    b_star = {"map": [[k + 1, k] for k in range(6)]}
    doc = {"kind": "shift_bundle", "window": 5,
           "element": {"terms": [["e", 1e308], ["b", 1e308], [b_star, 1e308]]}}
    code, out, err = run(capsys, ["norm-bound"], doc, tmp_path)
    assert code == 2
    assert out == ""
    assert "eigenvalue is out of the float range" in err


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tolerance_is_input_error(capsys, tmp_path, tol):
    doc = {"kind": "shift_bundle", "window": 5, "element": {"terms": [["e", "1"]]}}
    code, out, err = run(capsys, ["psd", "--tol", tol], doc, tmp_path)
    assert code == 2
    assert out == ""
    assert "not finite" in err


@pytest.mark.parametrize("tol", ["-1", "-1e-12"])
def test_negative_tolerance_is_input_error(capsys, tmp_path, tol):
    # f = (0, 1, 0)/2 is a positive idempotent: a tolerance below 0 would refute it
    doc = dict(BR_Z2_ID, element={"terms": [[[0, "1", 0], "1/2"]]})
    code, out, err = run(capsys, ["psd", f"--tol={tol}"], doc, tmp_path)
    assert code == 2
    assert out == ""
    assert "must be >= 0" in err and "Traceback" not in err


def _refuse_constant(name):
    raise ValueError(f"{name} in a report")


# a few elements of one fixture of each kind
FLOAT_POOLS = {
    "clifford_z2": ["0.0", "0.1", "1.0", "1.1"],
    "bouquet1": [{"mu": [], "nu": [], "vertex": "v"}, {"mu": [0], "nu": []},
                 {"mu": [0], "nu": [0]}, {"mu": [0, 0], "nu": [0]}],
    "br_z2_id": [[1, "g", 1], [2, "1", 0], [0, "g", 0], [0, "1", 0]],
    "toeplitz_z2": [[[0, 0], [0, 0]], [[1, 0], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, 1]]],
    "shift_window5": ["a", "e", "b"],
}
FINITE = st.floats(allow_nan=False, allow_infinity=False)
FLOAT_SCALAR = FINITE | st.builds(
    lambda re, im: {"re": repr(re), "im": repr(im), "float": True}, FINITE, FINITE)


@settings(max_examples=40)
@given(fixture=st.sampled_from(sorted(FLOAT_POOLS)),
       command=st.sampled_from(["epsilon", "fibers", "sos-witness", "psd",
                                "norm-bound", "factorize"]),
       data=st.data())
def test_float_coefficients_give_json_or_input_error(tmp_path_factory, fixture, command, data):
    terms = data.draw(st.lists(st.tuples(st.sampled_from(FLOAT_POOLS[fixture]), FLOAT_SCALAR),
                               min_size=1, max_size=4))
    doc = json.loads((resources.files("invsemi") / "fixtures" / f"{fixture}.json")
                     .read_text(encoding="ascii"))
    doc.update(element={"terms": [list(t) for t in terms]}, s=[[0, 1]], t=[])
    p = tmp_path_factory.mktemp("floats") / "doc.json"
    p.write_text(json.dumps(doc, allow_nan=False))
    stdout = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        code = main([command, "--input", str(p)])
    assert code in (0, 1, 2)
    if code == 2:
        assert stdout.getvalue() == ""
    else:
        json.loads(stdout.getvalue(), parse_constant=_refuse_constant)


def test_e_unitary_and_group_image_agree_on_witness(capsys):
    _, out, _ = run(capsys, ["max-group-image", "--input", "five_element"])
    image = json.loads(out)
    _, out, _ = run(capsys, ["e-unitary", "--input", "five_element"])
    verdict = json.loads(out)
    assert image["e_unitary"] is verdict["e_unitary"] is False
    # the group is trivial, so the witness is the first non-idempotent
    assert image["order"] == 1
    assert verdict["witness"] == "0>1"
