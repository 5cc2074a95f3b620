"""JSON input documents, schema validation, codecs, and bundled fixtures.

Every structure the command line accepts is a JSON object with a "kind"
discriminator. Scalars travel as {"re": "p/q", "im": "p/q"} so exact
rational-complex coefficients survive a round trip; floats are flagged
explicitly and never silently promoted back to rationals.
"""

from __future__ import annotations

import json
from importlib import resources

import jsonschema

from .algebra import AlgebraElement, Grading, TableGroupOps
from .core import (FiniteInverseSemigroup, GroupTable, PartialBijection,
                   close_generators, max_group_image)
from .errors import InputError
from .families import (BRContext, ShiftBundle, TQContext, br_grading,
                       br_window, tq_grading, tq_window)
from .graphs import (DirectedGraph, GraphContext, ZERO_PAIR, enumerate_pairs,
                     graph_grading, pair)
from .scalars import scalar_from_json, scalar_to_json

_SCALAR = {
    "oneOf": [
        {"type": "number"},
        {"type": "string"},
        {"type": "object",
         "properties": {"re": {"type": ["string", "number"]},
                        "im": {"type": ["string", "number"]},
                        "float": {"type": "boolean"}},
         "required": ["re"],
         "additionalProperties": False},
    ]
}

_WORD = {
    "type": "array",
    "items": {"type": "array",
              "prefixItems": [{"type": "integer"}, {"enum": [1, -1]}],
              "minItems": 2, "maxItems": 2},
}

_VERTEX = {"type": ["string", "integer"]}

SCHEMAS = {
    "semigroup": {
        "type": "object",
        "properties": {
            "kind": {"const": "semigroup"},
            "carrier": {"type": "array", "items": {"type": ["string", "integer"]}},
            "generators": {
                "type": "array",
                "items": {"type": "array",
                          "items": {"type": "array", "minItems": 2, "maxItems": 2}},
            },
            # cells are checked by FiniteInverseSemigroup.validate, which
            # names the JSON path; one schema descent per cell costs more
            # than the whole table check
            "table": {"type": "array", "items": {"type": "array"}},
            "star": {"type": "array", "items": {"type": "integer"}},
            "zero": {"type": ["integer", "null"]},
            "labels": {"type": "array", "items": {"type": "string"}},
        },
        "required": ["kind"],
        "oneOf": [{"required": ["generators"]}, {"required": ["table"]}],
    },
    "graph": {
        "type": "object",
        "properties": {
            "kind": {"const": "graph"},
            "vertices": {"type": "array", "items": _VERTEX, "minItems": 1},
            "edges": {"type": "array",
                      "items": {"type": "object",
                                "properties": {"id": {"type": ["string", "integer"]},
                                               "src": _VERTEX,
                                               "rng": _VERTEX},
                                "required": ["id", "src", "rng"],
                                "additionalProperties": False}},
        },
        "required": ["kind", "vertices", "edges"],
    },
    "bruck_reilly": {
        "type": "object",
        "properties": {
            "kind": {"const": "bruck_reilly"},
            "group": {"type": "object",
                      "properties": {"table": {"type": "array",
                                               "items": {"type": "array",
                                                         "items": {"type": "integer"}}},
                                     "labels": {"type": "array",
                                                "items": {"type": "string"}}},
                      "required": ["table"]},
            "theta": {"type": "array", "items": {"type": "integer"}},
        },
        "required": ["kind", "group", "theta"],
    },
    "toeplitz": {
        "type": "object",
        "properties": {
            "kind": {"const": "toeplitz"},
            "n": {"type": "integer", "minimum": 1},
        },
        "required": ["kind", "n"],
    },
    "shift_bundle": {
        "type": "object",
        "properties": {
            "kind": {"const": "shift_bundle"},
            "window": {"type": "integer", "minimum": 1},
        },
        "required": ["kind", "window"],
    },
}

# payload fields any document may carry for specific commands; they are
# interpreted per kind by the decoders below
_PAYLOAD_KEYS = ("element", "elements", "s", "t", "rep", "mode", "subsemigroup")


def validate_document(doc) -> str:
    """Schema-check an input document; returns its kind."""
    if not isinstance(doc, dict):
        raise InputError("$: input document must be a JSON object")
    kind = doc.get("kind")
    if kind not in SCHEMAS:
        raise InputError(f"$.kind: expected one of {sorted(SCHEMAS)}, got {kind!r}")
    structural = {k: v for k, v in doc.items() if k not in _PAYLOAD_KEYS}
    validator = jsonschema.Draft202012Validator(SCHEMAS[kind])
    errors = sorted(validator.iter_errors(structural), key=lambda e: e.json_path)
    if errors:
        best = jsonschema.exceptions.best_match(errors)
        raise InputError(f"{best.json_path}: {best.message}")
    return kind


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _point(v):
    """A map point: JSON lists become tuples; the result must be hashable."""
    v = tuple(v) if isinstance(v, list) else v
    try:
        hash(v)
    except TypeError:
        raise InputError(f"map points must be numbers, strings or flat lists, got {v!r}") from None
    return v


def _pairs_to_map(pairs):
    if not isinstance(pairs, (list, tuple)):
        raise InputError(f"a map must list [x, y] pairs, got {pairs!r}")
    m = {}
    for xy in pairs:
        if not (isinstance(xy, (list, tuple)) and len(xy) == 2):
            raise InputError(f"a map must list [x, y] pairs, got {xy!r}")
        x, y = _point(xy[0]), _point(xy[1])
        if x in m:
            raise InputError(f"generator maps {x!r} twice")
        m[x] = y
    return m


class LoadedInput:
    """A parsed input document plus the live structure it describes."""

    def __init__(self, doc):
        self.doc = doc
        self.kind = validate_document(doc)
        self._image = None
        if self.kind == "semigroup":
            if "generators" in doc:
                gens = [PartialBijection(_pairs_to_map(g)) for g in doc["generators"]]
                carrier = doc.get("carrier")
                self.structure = close_generators(
                    gens, carrier=None if carrier is None else list(carrier))
            else:
                self.structure = FiniteInverseSemigroup(
                    doc["table"], star_table=doc.get("star"),
                    zero=doc.get("zero"), labels=doc.get("labels"))
        elif self.kind == "graph":
            self.structure = DirectedGraph(
                doc["vertices"],
                [(e["id"], e["src"], e["rng"]) for e in doc["edges"]])
        elif self.kind == "bruck_reilly":
            g = doc["group"]
            self.structure = BRContext(GroupTable(g["table"], labels=g.get("labels")),
                                       doc["theta"])
        elif self.kind == "toeplitz":
            self.structure = TQContext(doc["n"])
        else:
            self.structure = ShiftBundle(doc["window"])

    # -- live objects -------------------------------------------------------

    def context(self):
        if self.kind == "semigroup":
            return self.structure
        if self.kind == "graph":
            return GraphContext(self.structure)
        if self.kind == "shift_bundle":
            return self.structure.context
        return self.structure

    def group_image(self):
        """(G, sigma) of a semigroup document, computed once per input."""
        if self._image is None:
            self._image = max_group_image(self.structure)
        return self._image

    def grading(self) -> Grading:
        if self.kind == "semigroup":
            G, sigma = self.group_image()
            return Grading(self.structure, TableGroupOps(G), sigma.__getitem__)
        if self.kind == "graph":
            return graph_grading(self.structure)
        if self.kind == "bruck_reilly":
            return br_grading(self.structure)
        if self.kind == "toeplitz":
            return tq_grading(self.structure)
        return self.structure.grading()

    def basis(self, window=2, length=2):
        """Deterministic element list for truncation-sized checks."""
        if self.kind == "semigroup":
            return list(self.structure.nonzero_elements())
        if self.kind == "graph":
            return enumerate_pairs(self.structure, length)
        if self.kind == "bruck_reilly":
            return br_window(self.structure, window)
        if self.kind == "toeplitz":
            return tq_window(self.structure, length)
        sb = self.structure
        named = [sb.e, sb.b, sb.a]
        seen = []
        for w in named:
            if w not in seen:
                seen.append(w)
        return seen

    # -- element codecs -----------------------------------------------------

    def decode_element(self, doc):
        if self.kind == "semigroup":
            S = self.structure
            if isinstance(doc, bool) or not isinstance(doc, (int, str)):
                raise InputError(f"element must be an index or label, got {doc!r}")
            if isinstance(doc, str):
                return S.label_index(doc)
            if not 0 <= doc < S.n:
                raise InputError(f"element index {doc} out of range")
            return doc
        if self.kind == "graph":
            return self._decode_pair(doc)
        if self.kind == "bruck_reilly":
            ctx = self.structure
            if not (isinstance(doc, list) and len(doc) == 3):
                raise InputError(f"element must be [m, a, n], got {doc!r}")
            m, a, n = doc
            if not (_is_int(m) and _is_int(n) and (_is_int(a) or isinstance(a, str))):
                raise InputError(f"element must be [m, a, n] with integer m, n, got {doc!r}")
            if isinstance(a, str):
                a = ctx.group.label_index(a)
            return ctx.element(m, a, n)
        if self.kind == "toeplitz":
            ctx = self.structure
            if not (isinstance(doc, list) and len(doc) == 2 and all(
                    isinstance(v, list) and all(map(_is_int, v)) for v in doc)):
                raise InputError(f"element must be [s, t] of integer lists, got {doc!r}")
            return ctx.element(tuple(doc[0]), tuple(doc[1]))
        return self._decode_shift(doc)

    def _decode_pair(self, doc):
        g = self.structure
        if doc == {"zero": True}:
            return ZERO_PAIR
        if not isinstance(doc, dict) or "mu" not in doc or "nu" not in doc:
            raise InputError(f"element must carry mu and nu edge lists, got {doc!r}")
        mu, nu = doc["mu"], doc["nu"]
        if not all(isinstance(leg, (list, tuple)) and all(
                isinstance(e, str) or _is_int(e) for e in leg) for leg in (mu, nu)):
            raise InputError(f"mu and nu must be lists of edge ids, got {doc!r}")
        base = doc.get("vertex")
        if base is not None and not (isinstance(base, str) or _is_int(base)):
            raise InputError(f"vertex must be a vertex id, got {base!r}")
        if base is None:
            for leg in (mu, nu):
                if leg:
                    base = g.src[leg[-1]] if leg[-1] in g.src else None
                    break
            if base is None and (mu or nu):
                raise InputError("unknown edge in mu/nu")
            if base is None:
                raise InputError("empty legs need a vertex field")
        return pair(g, g.path(mu, base=base), g.path(nu, base=base))

    def _decode_shift(self, doc):
        sb = self.structure
        named = {"a": sb.a, "e": sb.e, "b": sb.b}
        if isinstance(doc, str):
            if doc not in named:
                raise InputError(f"unknown shift-bundle element {doc!r}; "
                                 f"use one of {sorted(named)} or a map")
            return named[doc]
        if isinstance(doc, dict) and "map" in doc:
            return PartialBijection(_pairs_to_map(doc["map"]))
        raise InputError(f"cannot decode shift-bundle element {doc!r}")

    def encode_element(self, e):
        ctx = self.context()
        if ctx.is_zero(e):
            return {"zero": True}
        if self.kind == "semigroup":
            return self.structure.labels[e]
        if self.kind == "graph":
            return {"mu": list(e.mu.edges), "nu": list(e.nu.edges),
                    "vertex": e.mu.base}
        if self.kind == "bruck_reilly":
            return [e[0], self.structure.group.labels[e[1]], e[2]]
        if self.kind == "toeplitz":
            return [list(e[0]), list(e[1])]
        return {"map": [[p, q] for p, q in sorted(e.map.items())]}

    # -- algebra element codecs ---------------------------------------------

    def decode_algebra(self, doc) -> AlgebraElement:
        ctx = self.context()
        if isinstance(doc, dict) and "terms" in doc:
            if not (isinstance(doc["terms"], list) and all(
                    isinstance(t, list) and len(t) == 2 for t in doc["terms"])):
                raise InputError(f"'terms' must list [element, scalar] pairs, got {doc['terms']!r}")
            terms = [(self.decode_element(ed), scalar_from_json(sd)
                      if isinstance(sd, dict) else sd)
                     for ed, sd in doc["terms"]]
            return AlgebraElement(ctx, terms)
        return AlgebraElement(ctx, [(self.decode_element(doc), 1)])

    def encode_algebra(self, f: AlgebraElement) -> dict:
        items = [(self.encode_element(e), scalar_to_json(c))
                 for e, c in f.terms.items()]
        items.sort(key=lambda t: json.dumps(t[0], sort_keys=True, default=str))
        return {"terms": [[ed, sd] for ed, sd in items]}

    def encode_degree(self, d):
        if isinstance(d, tuple) and d and all(isinstance(x, tuple) for x in d):
            from .words import word_to_json
            return word_to_json(d)
        if isinstance(d, tuple):
            return list(d)
        if self.kind == "semigroup":
            return self.group_image()[0].labels[d]
        return d


def load_input(path_or_doc) -> LoadedInput:
    if isinstance(path_or_doc, dict):
        return LoadedInput(path_or_doc)
    try:
        with open(path_or_doc, "r", encoding="ascii") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read input: {exc}") from None
    except (ValueError, UnicodeDecodeError) as exc:
        raise InputError(f"input is not valid JSON: {exc}") from None
    return LoadedInput(doc)


# ---------------------------------------------------------------------------
# fixture corpus
# ---------------------------------------------------------------------------

def list_fixtures():
    base = resources.files("invsemi") / "fixtures"
    return sorted(p.name[:-5] for p in base.iterdir() if p.name.endswith(".json"))


def load_fixture(name: str) -> LoadedInput:
    base = resources.files("invsemi") / "fixtures"
    target = base / f"{name}.json"
    try:
        text = target.read_text(encoding="ascii")
    except (FileNotFoundError, OSError):
        raise InputError(f"no fixture named {name!r}; "
                         f"available: {', '.join(list_fixtures())}") from None
    return LoadedInput(json.loads(text))


def dump_report(obj) -> str:
    """Canonical JSON for reports: sorted keys, ASCII, trailing newline."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=True, indent=2) + "\n"
