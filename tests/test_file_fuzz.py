"""Fuzz of the file readers: a broken document is an input error.

Each base document is what the builders write for ``gma-context``,
``gma-map`` and ``gma-algebra``.  One mutation makes it invalid: a
required field dropped, a value of the wrong JSON type, ``true`` where an
int belongs, an index, dimension or modulus out of range, or a record,
shape or dense list of the wrong length.  The command that reads the
document must exit 2 with one ``error:`` line on stderr, whatever the
mutation; an exception escaping ``main`` fails the test.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from gmalg.cli import main
from gmalg.exact import RATIONAL, prime_field
from gmalg.io import (
    MapDocument,
    _DOC_TENSORS,
    _tensor_shape,
    context_to_json,
    map_to_json,
)
from gmalg.maps import BilinearMapRep, LinearMapRep
from gmalg.structure import (
    assemble_gma,
    build_full_matrix,
    build_upper_triangular,
    make_matrix_algebra,
)
from support import algebra_to_json

F5 = prime_field(5)

# values of every JSON type; a mutation picks one whose type the slot refuses
JSON_VALUES = (None, True, 7, 1.5, "x", [], [0], {}, {"x": 0})
ACCEPTS = {
    "str": lambda v: isinstance(v, str),
    "dict": lambda v: isinstance(v, dict),
    "list": lambda v: isinstance(v, list),
    "bool": lambda v: isinstance(v, bool),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
}
# the JSON type of each kind of slot; a scalar is an int (or an "a/b"
# string over Q, but "x" is none)
SLOT_TYPE = {
    "str": "str", "dict": "dict", "bool": "bool", "records": "list", "record": "list",
    "dense": "list", "shape": "list", "size": "int", "count": "int", "index": "int", "p": "int",
    "seed": "int", "scalar": "int",
}
OUT_OF_RANGE = {
    # a dimension this large is refused before anything is allocated
    "size": st.integers(max_value=-1) | st.integers(min_value=1000, max_value=2**70),
    # meta.n and meta.k of a triangular context are only read as counts
    "count": st.integers(max_value=-1),
    "p": st.sampled_from([-7, 0, 1, 2, 3, 4, 9, 1 << 20, (1 << 20) + 7, 2**61 - 1]),
}


def _ring_sites(doc):
    yield ("ring",), "dict", True
    yield ("ring", "kind"), "str", True
    if "p" in doc["ring"]:
        yield ("ring", "p"), "p", True


def _tensor_sites(path, data, shape):
    """A sparse tensor's records, or a dense one's entries, and what is in them."""
    if len(shape) == 1 and path[-1] != "entries":
        yield path, "dense", len(data)
        for i in range(len(data)):
            yield path + (i,), "scalar", None
        return
    yield path, "records", None
    for k, rec in enumerate(data):
        yield path + (k,), "record", len(rec)
        for axis, bound in enumerate(shape):
            yield path + (k, axis), "index", bound
        yield path + (k, len(shape)), "scalar", None


def context_sites(doc):
    """(path, slot, required) and, for records, indices and dense lists,
    (path, slot, length or bound) of every place a mutation can hit."""
    yield ("format",), "str", True
    yield from _ring_sites(doc)
    yield ("meta",), "dict", False
    for key in doc["meta"]:
        slot = {"builder": "str", "prime_certified": "bool"}.get(key, "count")
        yield ("meta", key), slot, False
    dims = {}
    for x, block in (("A", "algebra_A"), ("B", "algebra_B"), ("M", "module_M"), ("N", "module_N")):
        yield (block,), "dict", True
        yield (block, "dim"), "size", True
        dims[x] = doc[block]["dim"]
    for key, (block, field) in _DOC_TENSORS.items():
        path = (field,) if block is None else (block, field)
        # a missing pairing reads as zero
        yield path, "records" if len(key) == 2 else "dense", block is not None
        data = doc[field] if block is None else doc[block][field]
        shape = _tensor_shape(dims, key)
        for site in _tensor_sites(path, data, shape):
            if site[0] != path:
                yield site


def map_sites(doc):
    yield ("format",), "str", True
    yield from _ring_sites(doc)
    yield ("kind",), "str", True
    yield ("shape",), "shape", True
    for i in range(len(doc["shape"])):
        yield ("shape", i), "size", True
    field = "entries_dense" if "entries_dense" in doc else "entries"
    yield (field,), "records" if field == "entries" else "dense", True
    data = doc[field]
    shape = tuple(doc["shape"]) if field == "entries" else (len(data),)
    for site in _tensor_sites((field,), data, shape):
        if site[0] != (field,):
            yield site
    for key, slot in (("seed", "seed"), ("provenance", "str")):
        if key in doc:
            yield (key,), slot, False


def algebra_sites(doc):
    yield ("format",), "str", True
    yield from _ring_sites(doc)
    yield ("dim",), "size", True
    dim = doc["dim"]
    yield ("mul",), "records", True
    yield from (s for s in _tensor_sites(("mul",), doc["mul"], (dim,) * 3) if s[0] != ("mul",))
    for field in ("unit", "idempotent"):  # gen --kind peirce needs the idempotent
        yield (field,), "dense", True
        yield from (s for s in _tensor_sites((field,), doc[field], (dim,)) if s[0] != (field,))


def _documents():
    m2 = assemble_gma(build_full_matrix(2, 1, F5))
    return {
        "context-m2-f5": (context_to_json(m2.ctx), context_sites, ["check", "{doc}"]),
        "context-t2-q": (
            context_to_json(build_upper_triangular(2, 1, RATIONAL)),
            context_sites,
            ["check", "{doc}"],
        ),
        "linear-map": (
            map_to_json(MapDocument("linear", LinearMapRep.identity(F5, 4), 3, "identity")),
            map_sites,
            ["verify-map", "{ctx}", "{doc}", "--predicate", "commuting-linear"],
        ),
        "bilinear-map": (
            map_to_json(MapDocument("bilinear", BilinearMapRep(F5, m2.mul))),
            map_sites,
            ["verify-map", "{ctx}", "{doc}", "--predicate", "commuting-trace"],
        ),
        **{
            f"algebra-{name}": (
                algebra_to_json(make_matrix_algebra(2, ring), ring.array([1, 0, 0, 0])),
                algebra_sites,
                ["gen", "--kind", "peirce", "--algebra-file", "{doc}", "-o", "{out}"],
            )
            for name, ring in (("f5", F5), ("q", RATIONAL))
        },
    }


DOCUMENTS = _documents()


@st.composite
def broken_documents(draw):
    """(name, document) with one mutation that makes the document invalid."""
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    doc, sites, _ = DOCUMENTS[name]
    doc = json.loads(json.dumps(doc))
    path, slot, extra = draw(st.sampled_from(list(sites(doc))))
    *parents, last = path
    holder = doc
    for key in parents:
        holder = holder[key]
    kinds = ["type"]
    if extra is True and isinstance(last, str):
        kinds.append("drop")
    if SLOT_TYPE[slot] == "int":
        kinds.append("bool")
    if slot in ("size", "count", "p", "index"):
        kinds.append("range")
    if slot in ("record", "dense", "shape"):
        kinds.append("length")
    kind = draw(st.sampled_from(kinds))
    if kind == "drop":
        del holder[last]
    elif kind == "type":
        accepts = ACCEPTS[SLOT_TYPE[slot]]
        # an absent seed or provenance may also be written as null
        wrong = [v for v in JSON_VALUES if not accepts(v) and not (v is None and extra is False)]
        holder[last] = draw(st.sampled_from(wrong))
    elif kind == "bool":
        holder[last] = draw(st.booleans())
    elif kind == "range":
        if slot == "index":
            values = st.integers(max_value=-1) | st.integers(min_value=extra, max_value=2**70)
        else:
            values = OUT_OF_RANGE[slot]
        holder[last] = draw(values)
    else:
        if draw(st.booleans()) or not holder[last]:
            holder[last].append(0)
        else:
            holder[last].pop()
    return name, doc


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(broken_documents())
def test_a_broken_document_is_an_input_error(tmp_path, case):
    name, doc = case
    paths = {key: tmp_path / f"{key}.json" for key in ("doc", "ctx", "out")}
    paths["doc"].write_text(json.dumps(doc))
    # the context the map commands read: the unbroken M2(F5) document
    paths["ctx"].write_text(json.dumps(DOCUMENTS["context-m2-f5"][0]))
    argv = [a.format(**{k: str(v) for k, v in paths.items()}) for a in DOCUMENTS[name][2]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert (rc, out.getvalue()) == (2, "")
    assert err.getvalue().startswith("error: ")
    assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue()


def test_every_site_of_the_base_documents_is_reachable():
    """The sites cover every field of the base documents."""
    for name, (doc, sites, _) in DOCUMENTS.items():
        top = {path[0] for path, _, _ in sites(doc)}
        assert top == set(doc), name


def test_a_huge_prime_modulus_is_refused_at_once(capsys):
    """The size check runs before the primality test, whose trial division
    of 2^61 - 1 would not end."""
    argv = ["gen", "--kind", "diagonal", "--ring", f"fp:{2**61 - 1}"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: p too large for the int64 kernels\n"
