"""JSON input documents, schema validation, codecs, and bundled fixtures.

Every structure the command line accepts is a JSON object with a "kind"
discriminator. Scalars travel as {"re": "p/q", "im": "p/q"} so exact
rational-complex coefficients survive a round trip; floats are flagged
explicitly and never silently promoted back to rationals.
"""

from __future__ import annotations

import json
import math
from importlib import resources

from .algebra import AlgebraElement
from .core import FiniteInverseSemigroup, GroupTable, PartialBijection, close_generators
from .errors import InputError
from .families import BRContext, Shift, ShiftBundle, TQContext
from .graphs import DirectedGraph, GraphContext, ZERO_PAIR, PathPair
from .rep import Truncation
from .scalars import scalar_from_json, scalar_to_json
from .words import word_to_json

_WORD = {
    "type": "array",
    "items": {"type": "array",
              "prefixItems": [{"type": ["string", "integer"]}, {"enum": [1, -1]}],
              "minItems": 2, "maxItems": 2},
}

_VERTEX = {"type": ["string", "integer"]}

# payload fields any document may carry for specific commands; elements
# themselves are checked by each kind's decode_element
_PAYLOAD = {
    "elements": {"type": "array", "minItems": 2},
    "subsemigroup": {"type": "array"},
    "mode": {"enum": ["idempotent", "coset"]},
    "s": _WORD,
    "t": _WORD,
}


def _schema(kind, required=(), **fields):
    return {"type": "object",
            "properties": {**_PAYLOAD, "kind": {"const": kind}, **fields},
            "required": ["kind", *required]}


def validate_document(doc):
    """Schema-check an input document; returns the input class of its kind."""
    if not isinstance(doc, dict):
        raise InputError("$: input document must be a JSON object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise InputError(f"$.kind: expected one of {sorted(KINDS)}, got {kind!r}")
    import jsonschema   # loaded on the first document, not with the package

    validator = jsonschema.Draft202012Validator(KINDS[kind].schema)
    errors = sorted(validator.iter_errors(doc), key=lambda e: e.json_path)
    if errors:
        best = jsonschema.exceptions.best_match(errors)
        raise InputError(f"{best.json_path}: {best.message}")
    return KINDS[kind]


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
    """A parsed input document plus the context it describes.

    One subclass per document kind holds the JSON format of its kind:
    `schema`, `build`, which returns the context, `decode_element`,
    `encode_nonzero` and, where degrees are not plain JSON, `encode_degree`.
    Everything else about the family is asked of the context, `structure`.
    Build one with `load_input`, which checks the schema first.
    """

    def __init__(self, doc):
        self.doc = doc
        self.structure = self.build(doc)

    def certificate_basis(self, window, length):
        """(truncation, representation) the spectral certificates use."""
        ctx = self.structure
        return Truncation(ctx, ctx.window(window, length)), self.doc.get("rep", "lambda")

    def encode_element(self, e):
        if self.structure.is_zero(e):
            return {"zero": True}
        return self.encode_nonzero(e)

    def encode_degree(self, d):
        return d

    def decode_algebra(self, doc) -> AlgebraElement:
        ctx = self.structure
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


class SemigroupInput(LoadedInput):
    """A finite inverse semigroup, given by a table or by generating maps."""

    kind = "semigroup"
    schema = {
        **_schema(
            "semigroup",
            carrier={"type": "array", "items": {"type": ["string", "integer"]}},
            generators={"type": "array",
                        "items": {"type": "array",
                                  "items": {"type": "array", "minItems": 2, "maxItems": 2}}},
            # rows, cells, star entries and labels are checked by
            # FiniteInverseSemigroup.validate, which names each JSON path; a
            # schema descent per row or entry costs more than that check
            table={"type": "array"},
            star={"type": "array"},
            zero={"type": ["integer", "null"]},
            labels={"type": "array"}),
        "oneOf": [{"required": ["generators"]}, {"required": ["table"]}],
    }

    def build(self, doc):
        if "generators" in doc:
            gens = [PartialBijection(_pairs_to_map(g)) for g in doc["generators"]]
            carrier = doc.get("carrier")
            return close_generators(gens, carrier=None if carrier is None else list(carrier))
        return FiniteInverseSemigroup(doc["table"], star_table=doc.get("star"),
                                      zero=doc.get("zero"), labels=doc.get("labels"))

    def decode_element(self, doc):
        S = self.structure
        if isinstance(doc, bool) or not isinstance(doc, (int, str)):
            raise InputError(f"element must be an index or label, got {doc!r}")
        if isinstance(doc, str):
            return S.label_index(doc)
        if not 0 <= doc < S.n:
            raise InputError(f"element index {doc} out of range")
        return doc

    def encode_nonzero(self, e):
        return self.structure.labels[e]

    def encode_degree(self, d):
        return self.structure.group_image[0].labels[d]


class GraphInput(LoadedInput):
    """The graph inverse semigroup of a finite directed graph."""

    kind = "graph"
    schema = _schema(
        "graph", ("vertices", "edges"),
        vertices={"type": "array", "items": _VERTEX, "minItems": 1},
        edges={"type": "array",
               "items": {"type": "object",
                         "properties": {"id": {"type": ["string", "integer"]},
                                        "src": _VERTEX, "rng": _VERTEX},
                         "required": ["id", "src", "rng"],
                         "additionalProperties": False}})

    def build(self, doc):
        return GraphContext(DirectedGraph(
            doc["vertices"], [(e["id"], e["src"], e["rng"]) for e in doc["edges"]]))

    def decode_element(self, doc):
        g = self.structure.graph
        if doc == {"zero": True}:
            return ZERO_PAIR
        if not isinstance(doc, dict) or "mu" not in doc or "nu" not in doc:
            raise InputError(f"element must carry mu and nu edge lists, got {doc!r}")
        mu, nu = doc["mu"], doc["nu"]
        if not all(isinstance(leg, (list, tuple)) and all(
                isinstance(e, str) or _is_int(e) for e in leg) for leg in (mu, nu)):
            raise InputError(f"mu and nu must be lists of edge ids, got {doc!r}")
        base = doc.get("vertex")
        if base is None:
            base = g.path(mu or nu).base
        elif not (isinstance(base, str) or _is_int(base)):
            raise InputError(f"vertex must be a vertex id, got {base!r}")
        return PathPair(g.path(mu, base=base), g.path(nu, base=base))

    def encode_nonzero(self, e):
        return {"mu": list(e.mu.edges), "nu": list(e.nu.edges), "vertex": e.mu.base}

    def encode_degree(self, d):
        return word_to_json(d)


class BruckReillyInput(LoadedInput):
    """The Bruck-Reilly extension BR(G, theta) of a finite group."""

    kind = "bruck_reilly"
    schema = _schema(
        "bruck_reilly", ("group", "theta"),
        # the group table and labels are checked by GroupTable, as above
        group={"type": "object",
               "properties": {"table": {"type": "array"}, "labels": {"type": "array"}},
               "required": ["table"]},
        theta={"type": "array", "items": {"type": "integer"}})

    def build(self, doc):
        g = doc["group"]
        return BRContext(GroupTable(g["table"], labels=g.get("labels")), doc["theta"])

    def decode_element(self, doc):
        if not (isinstance(doc, list) and len(doc) == 3):
            raise InputError(f"element must be [m, a, n], got {doc!r}")
        m, a, n = doc
        if not (_is_int(m) and _is_int(n) and (_is_int(a) or isinstance(a, str))):
            raise InputError(f"element must be [m, a, n] with integer m, n, got {doc!r}")
        if isinstance(a, str):
            a = self.structure.group.label_index(a)
        return self.structure.element(m, a, n)

    def encode_nonzero(self, e):
        return [e[0], self.structure.group.labels[e[1]], e[2]]


class ToeplitzInput(LoadedInput):
    """Nica's Toeplitz inverse semigroup of (Z^n, N^n)."""

    kind = "toeplitz"
    schema = _schema("toeplitz", ("n",), n={"type": "integer", "minimum": 1})

    def build(self, doc):
        return TQContext(doc["n"])

    def decode_element(self, doc):
        if not (isinstance(doc, list) and len(doc) == 2 and all(
                isinstance(v, list) and all(map(_is_int, v)) for v in doc)):
            raise InputError(f"element must be [s, t] of integer lists, got {doc!r}")
        return self.structure.element(tuple(doc[0]), tuple(doc[1]))

    def encode_nonzero(self, e):
        return [list(e[0]), list(e[1])]

    def encode_degree(self, d):
        return list(d)


class ShiftBundleInput(LoadedInput):
    """The truncated shift bundle of Example 6.2."""

    kind = "shift_bundle"
    schema = _schema("shift_bundle", ("window",), window={"type": "integer", "minimum": 1})

    def build(self, doc):
        return ShiftBundle(doc["window"])

    def certificate_basis(self, window, length):
        return Truncation(None, self.structure.action_points), "action"

    def decode_element(self, doc):
        sb = self.structure
        named = {"a": sb.a, "e": sb.e, "b": sb.b}
        if isinstance(doc, str):
            if doc not in named:
                raise InputError(f"unknown shift-bundle element {doc!r}; "
                                 f"use one of {sorted(named)} or a map")
            return named[doc]
        if isinstance(doc, dict) and "map" in doc:
            m = _pairs_to_map(doc["map"])
            for p in (*m, *m.values()):
                if not (_is_int(p) and -sb.n <= p <= sb.n + 1):
                    raise InputError(f"shift map point {p!r} is not an integer "
                                     f"in [{-sb.n}, {sb.n + 1}]")
            pb = PartialBijection(m)    # rejects a map that is not injective
            if not m:
                return sb.zero
            p, q = min(m), max(m)
            d = m[p] - p
            if q - p + 1 != len(m) or any(y - x != d for x, y in m.items()):
                raise InputError(f"not a constant shift on an interval, so not in "
                                 f"the bundle: {pb!r}")
            return Shift(d, p, q)
        raise InputError(f"cannot decode shift-bundle element {doc!r}")

    def encode_nonzero(self, e):
        d, p, q = e
        return {"map": [[k, k + d] for k in range(p, q + 1)]}


KINDS = {cls.kind: cls for cls in (SemigroupInput, GraphInput, BruckReillyInput,
                                   ToeplitzInput, ShiftBundleInput)}


def _finite_float(text):
    x = float(text)
    if not math.isfinite(x):
        raise InputError(f"number {text} is out of the float range")
    return x


def _no_constant(name):
    raise InputError(f"{name} is not a JSON number")


# the JSON decoder reads NaN, Infinity and overflowing numbers as non-finite
# floats, which no report may carry: refuse them as they are parsed
_FINITE = {"parse_float": _finite_float, "parse_constant": _no_constant}


def load_input(path_or_doc) -> LoadedInput:
    if isinstance(path_or_doc, dict):
        return validate_document(path_or_doc)(path_or_doc)
    try:
        with open(path_or_doc, "r", encoding="ascii") as fh:
            doc = json.load(fh, **_FINITE)
    except OSError as exc:
        raise InputError(f"cannot read input: {exc}") from None
    except (ValueError, UnicodeDecodeError) as exc:
        raise InputError(f"input is not valid JSON: {exc}") from None
    return validate_document(doc)(doc)


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
    doc = json.loads(text, **_FINITE)
    return validate_document(doc)(doc)


def dump_report(obj) -> str:
    """Canonical JSON for reports: sorted keys, ASCII, trailing newline."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=True, indent=2) + "\n"
