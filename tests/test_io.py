"""Serialization: canonical JSON bytes, context/algebra/map documents,
and the proper-form document that decompose-trace writes."""

import json
from fractions import Fraction

import numpy as np
import pytest

from gmalg.exact import RATIONAL, prime_field
from gmalg.io import (
    IOFormatError,
    MapDocument,
    algebra_from_json,
    canonical_dumps,
    context_from_json,
    context_to_json,
    dense_from_json,
    dense_to_json,
    load_context,
    load_map,
    map_from_json,
    map_to_json,
    proper_form_to_json,
    save_context,
    save_map,
    scalar_from_json,
    sparse_from_json,
    sparse_to_json,
)
from gmalg.maps import BilinearMapRep, LinearMapRep
from gmalg.structure import (
    assemble_gma,
    build_diagonal_pair,
    build_full_matrix,
    build_inflated,
    build_peirce,
    build_upper_triangular,
    make_matrix_algebra,
)
from gmalg.decompose import ProperTraceForm, decompose_trace_generic, random_proper_trace
from support import algebra_to_json

F5 = prime_field(5)


# ---------------------------------------------------------------------------
# scalars and arrays
# ---------------------------------------------------------------------------


def test_scalar_parsing():
    assert scalar_from_json(F5, 7) == 2
    assert scalar_from_json(RATIONAL, "3/6") == Fraction(1, 2)
    assert scalar_from_json(RATIONAL, 4) == Fraction(4)
    with pytest.raises(IOFormatError):
        scalar_from_json(F5, True)  # bools are not residues
    with pytest.raises(IOFormatError):
        scalar_from_json(RATIONAL, "not-a-number")
    with pytest.raises(IOFormatError):
        scalar_from_json(F5, "1/2")


def test_dense_roundtrip_both_rings():
    a5 = F5.array([[0, 1], [4, 2]])
    assert F5.equal(dense_from_json(F5, (2, 2), dense_to_json(F5, a5)), a5)
    aq = RATIONAL.array([[Fraction(1, 3), 2], [0, Fraction(-5, 7)]])
    back = dense_from_json(RATIONAL, (2, 2), dense_to_json(RATIONAL, aq))
    assert RATIONAL.equal(back, aq)


def test_dense_shape_mismatch():
    with pytest.raises(IOFormatError):
        dense_from_json(F5, (2, 2), [[1, 2, 3], [4, 5, 6]])


def test_sparse_roundtrip_skips_zeros():
    t = F5.zeros((2, 2, 2))
    t[0, 1, 1] = 3
    records = sparse_to_json(F5, t)
    assert records == [[0, 1, 1, 3]]
    assert F5.equal(sparse_from_json(F5, (2, 2, 2), records), t)


def slow_sparse_to_json(ring, arr):
    """Every cell visited in row-major order, the nonzero ones recorded."""
    arr = np.asarray(arr)
    records = []
    for idx in np.ndindex(arr.shape):
        if arr[idx] != ring.zero:
            records.append([*map(int, idx), ring.scalar_to_json(arr[idx])])
    return records


@pytest.mark.parametrize("ring", [F5, RATIONAL], ids=["f5", "q"])
def test_sparse_records_match_the_cell_loop(ring):
    gma = assemble_gma(build_full_matrix(3, 1, ring))
    q = random_proper_trace(gma, 3).tensor
    tensors = [
        gma.mul,
        q,
        q[:, :, :1],
        ring.zeros((3, 4, 2)),
        ring.zeros((0, 3, 3)),
        ring.zeros((3, 0)),
        ring.array([ring.one, ring.zero, ring.neg(ring.one)]),
    ]
    if ring is RATIONAL:
        tensors.append(RATIONAL.array([[Fraction(1, 3), 0], [0, Fraction(-5, 7)]]))
    for t in tensors:
        records = sparse_to_json(ring, t)
        assert records == slow_sparse_to_json(ring, t)
        assert json.dumps(records) == json.dumps(slow_sparse_to_json(ring, t))
    assert sparse_to_json(ring, ring.zeros((2, 2))) == []
    assert sparse_to_json(ring, ring.zeros((0, 3, 3))) == []


def test_sparse_validates_records():
    with pytest.raises(IOFormatError):
        sparse_from_json(F5, (2, 2), [[0, 1]])  # arity: needs i, j, value
    with pytest.raises(IOFormatError):
        sparse_from_json(F5, (2, 2), [[0, 5, 1]])  # index out of range


def test_canonical_dumps_is_stable_and_sorted():
    doc = {"b": 1, "a": [1, 2]}
    s1 = canonical_dumps(doc)
    s2 = canonical_dumps({"a": [1, 2], "b": 1})
    assert s1 == s2
    assert s1.endswith("\n")
    assert s1.index('"a"') < s1.index('"b"')


# ---------------------------------------------------------------------------
# context documents
# ---------------------------------------------------------------------------

BUILDERS = [
    lambda ring: build_full_matrix(3, 1, ring),
    lambda ring: build_full_matrix(4, 2, ring),
    lambda ring: build_upper_triangular(3, 1, ring),
    lambda ring: build_inflated(ring, 1, ring.eye(1)),
    lambda ring: build_diagonal_pair(ring),
]


def structure_tensors(c):
    return (c.A.mul, c.A.unit, c.B.mul, c.B.unit, c.M.left, c.M.right,
            c.N.left, c.N.right, c.pairing_MN, c.pairing_NM)


def contexts_equal(a, b) -> bool:
    """Same ring, block dimensions and structure tensors."""
    if a.ring != b.ring or any(getattr(a, x).dim != getattr(b, x).dim for x in "ABMN"):
        return False
    return all(a.ring.equal(x, y) for x, y in zip(structure_tensors(a), structure_tensors(b)))


@pytest.mark.parametrize("ring", [F5, RATIONAL], ids=["f5", "q"])
@pytest.mark.parametrize("build", BUILDERS, ids=["m3", "m4", "t3", "infl", "diag"])
def test_context_roundtrip(ring, build):
    ctx = build(ring)
    doc = context_to_json(ctx)
    assert doc["format"] == "gma-context"
    back = context_from_json(doc)
    assert contexts_equal(ctx, back)
    # canonical byte stability through a full cycle
    assert canonical_dumps(doc) == canonical_dumps(context_to_json(back))


def test_context_file_roundtrip(tmp_path):
    ctx = build_full_matrix(3, 1, F5)
    path = tmp_path / "ctx.json"
    save_context(path, ctx)
    assert contexts_equal(ctx, load_context(path))


def test_context_rejects_malformed_documents():
    good = context_to_json(build_full_matrix(2, 1, F5))
    wrong_tag = dict(good)
    wrong_tag["format"] = "gma-something"
    with pytest.raises(IOFormatError):
        context_from_json(wrong_tag)
    missing = dict(good)
    del missing["algebra_A"]
    with pytest.raises(IOFormatError):
        context_from_json(missing)
    bad_ring = dict(good)
    bad_ring["ring"] = {"kind": "prime_field", "p": 4}
    with pytest.raises(IOFormatError):
        context_from_json(bad_ring)


# ---------------------------------------------------------------------------
# algebra documents
# ---------------------------------------------------------------------------


def test_algebra_roundtrip_with_idempotent():
    alg = make_matrix_algebra(2, F5)
    e = F5.array([1, 0, 0, 0])
    doc = algebra_to_json(alg, idempotent=e)
    assert doc["format"] == "gma-algebra"
    alg2, e2 = algebra_from_json(doc)
    assert alg2.dim == alg.dim
    assert F5.equal(alg2.mul, alg.mul)
    assert F5.equal(e2, e)
    # idempotent is optional
    alg3, e3 = algebra_from_json(algebra_to_json(alg))
    assert e3 is None and alg3.dim == 4
    # and the document feeds the peirce builder
    ctx, _ = build_peirce(alg2, e2)
    assert assemble_gma(ctx).dim == 4


# ---------------------------------------------------------------------------
# map documents
# ---------------------------------------------------------------------------


def test_linear_map_document_roundtrip():
    rep = LinearMapRep(F5, F5.array([[1, 2], [0, 4]]))
    doc = MapDocument("linear", rep, seed=9, provenance="unit-test")
    d = map_to_json(doc)
    assert d["kind"] == "linear"
    assert "entries_dense" in d
    back = map_from_json(d)
    assert back.kind == "linear"
    assert back.seed == 9 and back.provenance == "unit-test"
    assert back.rep.equal(rep)


def test_bilinear_map_document_roundtrip(t2):
    rep = BilinearMapRep(F5, t2.mul)
    doc = MapDocument("bilinear", rep)
    d = map_to_json(doc)
    assert d["kind"] == "bilinear"
    back = map_from_json(d)
    assert back.seed is None
    assert F5.equal(back.rep.tensor, rep.tensor)
    assert (back.kind, back.seed, back.provenance) == (doc.kind, doc.seed, doc.provenance)


def test_map_file_roundtrip(tmp_path):
    rep = LinearMapRep(RATIONAL, RATIONAL.array([[Fraction(1, 2), 0], [0, 1]]))
    path = tmp_path / "map.json"
    save_map(path, MapDocument("linear", rep))
    assert load_map(path).rep.equal(rep)


def test_map_document_rejects_mismatches():
    rep = LinearMapRep(F5, F5.eye(2))
    d = map_to_json(MapDocument("linear", rep))
    d["kind"] = "bilinear"
    with pytest.raises(IOFormatError):
        map_from_json(d)
    # shapes too large to hold are rejected before anything is allocated;
    # 2**32 x 2**32 cells once wrapped to an empty int64 product
    huge = {"format": "gma-map", "ring": {"kind": "prime_field", "p": 5}}
    with pytest.raises(IOFormatError, match="cells, more than"):
        map_from_json({**huge, "kind": "bilinear", "shape": [10**10] * 3, "entries": []})
    with pytest.raises(IOFormatError, match="expected a list of 18446744073709551616"):
        map_from_json({**huge, "kind": "linear", "shape": [2**32] * 2, "entries_dense": []})


# ---------------------------------------------------------------------------
# proper-form documents
# ---------------------------------------------------------------------------


def proper_form_from_doc(gma, doc):
    """The proper form of a document proper_form_to_json wrote: its stored
    G coordinates read back in center coordinates, each of them central."""
    ring, d, C = gma.ring, gma.dim, gma.center
    z, z_central = C.center_rows(dense_from_json(ring, (d,), doc["z"]))
    mu, mu_central = C.center_rows(dense_from_json(ring, (d, d), doc["mu_columns"]).T)
    nu, nu_central = C.center_rows(sparse_from_json(ring, (d, d, d), doc["nu"]))
    assert z_central and mu_central.all() and nu_central.all()
    return ProperTraceForm(z.copy(), mu.T.copy(), nu)


def test_proper_form_roundtrip(t3):
    q = random_proper_trace(t3, seed=5)
    form = decompose_trace_generic(q, t3).form
    doc = proper_form_to_json(t3, form)
    back = proper_form_from_doc(t3, doc)
    assert F5.equal(back.sym_tensor(t3), form.sym_tensor(t3))
    assert canonical_dumps(doc) == canonical_dumps(proper_form_to_json(t3, back))
