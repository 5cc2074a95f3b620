"""Document validation, element codecs, and the bundled fixture corpus."""

import pytest

from invsemi.errors import InputError
from invsemi.jsonio import (
    dump_report,
    list_fixtures,
    load_fixture,
    load_input,
    validate_document,
)


def test_fixture_corpus_all_load():
    names = list_fixtures()
    assert {"bouquet1", "bouquet2", "two_vertex", "two_parallel",
            "five_element", "clifford_z2", "br_z2_id", "br_z2_collapse",
            "toeplitz_z", "toeplitz_z2", "shift_window5"} <= set(names)
    for name in names:
        li = load_fixture(name)
        ctx = li.structure
        basis = ctx.window(1, 1)
        assert basis, name
        for e in basis:
            assert ctx.product(e, ctx.star(e)) is not None


def test_validate_rejects_unknown_kind():
    with pytest.raises(InputError):
        validate_document({"kind": "mystery"})
    with pytest.raises(InputError):
        validate_document({"vertices": []})   # no kind at all


def test_validate_pointer_paths():
    with pytest.raises(InputError) as exc:
        validate_document({"kind": "graph", "vertices": ["v"],
                           "edges": [{"id": 0, "src": 3.5, "rng": "v"}]})
    assert "$.edges[0].src" in str(exc.value)


def test_scalar_decoding_fraction_and_float():
    li = load_fixture("bouquet1")
    f = li.decode_algebra({"terms": [
        [{"mu": [0], "nu": []}, "3/7"],
        [{"mu": [], "nu": [], "vertex": "v"}, {"re": "0", "im": "-2/5"}],
    ]})
    coeffs = sorted(str(c) for c in f.terms.values())
    assert any("3/7" in c for c in coeffs)
    assert f.is_exact()
    g = li.decode_algebra({"terms": [
        [{"mu": [0], "nu": []}, {"re": "0.5", "im": "0", "float": True}],
    ]})
    assert not g.is_exact()


def test_algebra_roundtrip_graph():
    li = load_fixture("bouquet2")
    doc = {"terms": [
        [{"mu": [0, 1], "nu": [1]}, "1/2"],
        [{"zero": True}, "5"],
        [{"mu": [], "nu": [], "vertex": "v"}, {"re": "-1", "im": "2/3"}],
    ]}
    f = li.decode_algebra(doc)
    assert li.decode_algebra(li.encode_algebra(f)) == f


def test_element_roundtrip_per_kind():
    cases = [
        ("br_z2_id", [2, "g", 0]),
        ("toeplitz_z2", [[1, 0], [0, 2]]),
        ("five_element", "0>1"),
        ("shift_window5", "b"),
    ]
    for name, doc in cases:
        li = load_fixture(name)
        e = li.decode_element(doc)
        assert li.decode_element(li.encode_element(e)) == e, name


def test_shift_map_literal_matches_named():
    li = load_fixture("shift_window5")
    sb = li.structure
    named = li.decode_element("a")
    literal = li.decode_element({"map": [[k, k + 1] for k in range(-sb.n, sb.n + 1)]})
    assert named == literal


def test_semigroup_table_star_inferred():
    li = load_input({"kind": "semigroup",
                     "table": [[0, 1, 0, 1], [1, 0, 1, 0],
                               [0, 1, 2, 3], [1, 0, 3, 2]]})
    S = li.structure
    for s in S.elements():
        assert S.product(s, S.product(S.star(s), s)) == s


def test_load_input_bad_path_and_bad_json(tmp_path):
    with pytest.raises(InputError):
        load_input(str(tmp_path / "missing.json"))
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(InputError):
        load_input(str(broken))


def test_dump_report_canonical():
    out = dump_report({"b": 1, "a": {"d": 2, "c": 3}})
    assert out.endswith("\n")
    assert out.index('"a"') < out.index('"b"')
    assert out == dump_report({"a": {"c": 3, "d": 2}, "b": 1})


def test_payload_keys_ignored_by_schema():
    # job payloads ride along with the structure document
    li = load_input({"kind": "shift_bundle", "window": 3,
                     "element": {"terms": [["e", "1"]]},
                     "mode": "idempotent"})
    assert li.kind == "shift_bundle"
