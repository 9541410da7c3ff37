"""JSON file formats for contexts, maps, and decomposition results.

Conventions: scalars are plain ints over a prime field and "a/b" strings
over the rationals; three-index tensors are sparse arrays of [i, j, k,
value] records sorted by index; linear maps are dense row-major lists.
Serialization is canonical (sorted keys, fixed indentation), so equal
objects produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .exact import ExactError, RingDescriptor, ring_from_json, ring_to_json
from .maps import BilinearMapRep, LinearMapRep
from .structure import (
    GMA,
    AlgebraSpec,
    AxiomError,
    BimoduleSpec,
    MoritaContext,
    _context_tensors,
    _product_block,
)


class IOFormatError(ExactError):
    pass


def scalar_from_json(ring: RingDescriptor, v):
    if ring.is_prime_field:
        if isinstance(v, bool) or not isinstance(v, int):
            raise IOFormatError(f"expected an integer scalar, got {v!r}")
        return v % ring.p
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise IOFormatError(f"expected an int or 'a/b' string scalar, got {v!r}")
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError) as e:
        raise IOFormatError(f"bad rational scalar {v!r}: {e}") from None


def dense_to_json(ring: RingDescriptor, arr) -> list:
    flat = np.asarray(arr).reshape(-1)
    return [ring.scalar_to_json(v) for v in flat]


def dense_from_json(ring: RingDescriptor, shape, data) -> np.ndarray:
    n = math.prod(shape)
    if not isinstance(data, list) or len(data) != n:
        raise IOFormatError(f"dense entries: expected a list of {n} scalars")
    out = ring.zeros(n)
    for i, v in enumerate(data):
        out[i] = scalar_from_json(ring, v)
    return ring.normalize(out.reshape(shape))


def sparse_to_json(ring: RingDescriptor, arr) -> list:
    arr = np.asarray(arr)
    return [
        [*idx, ring.scalar_to_json(arr[tuple(idx)])]
        for idx in np.argwhere(arr != ring.zero).tolist()
    ]


def sparse_from_json(ring: RingDescriptor, shape, records) -> np.ndarray:
    _require_cells(math.prod(shape), f"a tensor of shape {list(shape)}")
    out = ring.zeros(tuple(shape))
    if not isinstance(records, list):
        raise IOFormatError("sparse entries must be a list of index/value records")
    for rec in records:
        if not isinstance(rec, list) or len(rec) != len(shape) + 1:
            raise IOFormatError(f"bad sparse record {rec!r}")
        idx = rec[:-1]
        for ax, i in enumerate(idx):
            # a boolean is an int to python, but numpy reads it as a mask
            if not _is_size(i) or i >= shape[ax]:
                raise IOFormatError(f"index out of range in record {rec!r}")
        out[tuple(idx)] = scalar_from_json(ring, rec[-1])
    return ring.normalize(out)


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1, ensure_ascii=False) + "\n"


def _require(cond, msg):
    if not cond:
        raise IOFormatError(msg)


# Tensors are dense: a document is read only if each tensor it describes,
# and for a context the assembled product's d^3 cells, fit in 2^27 cells
# (1 GiB as int64), so an absurd dimension is rejected before any allocation.
_MAX_CELLS = 2**27


def _require_cells(cells: int, what: str):
    _require(cells <= _MAX_CELLS, f"{what} has {cells} cells, more than {_MAX_CELLS}")


def _require_context_dim(d: int):
    """A context of dimension d is read, or built, only if its product
    tensor's d^3 cells fit the bound."""
    _require_cells(d**3, f"the product tensor of a context of dimension {d}")


def _is_size(v, least: int = 0) -> bool:
    """v is a JSON integer, not a boolean, and at least `least`."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= least


# the meta entries the builders write and the package reads back
_META_FIELDS = {
    "builder": (lambda v: isinstance(v, str), "a string"),
    "n": (_is_size, "a nonnegative int"),
    "k": (_is_size, "a nonnegative int"),
    "dim_v": (_is_size, "a nonnegative int"),
    "prime_certified": (lambda v: isinstance(v, bool), "a boolean"),
}


def _check_full_matrix_meta(meta, dims):
    """A full_matrix context is M_n split at k: 1 <= k <= n - 1, and the
    blocks A, M, N, B have dimensions k^2, k(n-k), (n-k)k, (n-k)^2."""
    for key in ("n", "k"):
        _require(key in meta, f"meta.{key} is missing for a full_matrix context")
    n, k = meta["n"], meta["k"]
    _require(n >= 2, f"meta.n must be at least 2 for a full_matrix context, got {n}")
    _require(1 <= k <= n - 1, f"meta.k must lie in 1..{n - 1} for n = {n}, got {k}")
    want = (k * k, k * (n - k), (n - k) * k, (n - k) ** 2)
    _require(
        dims == want,
        f"meta.n = {n} and meta.k = {k} need block dimensions (A, M, N, B) = {want}, "
        f"the context has {dims}",
    )


def _get_dim(block, name):
    d = block.get("dim")
    _require(_is_size(d), f"{name}.dim must be a nonnegative int")
    return d


# ---------------------------------------------------------------------------
# contexts
# ---------------------------------------------------------------------------


# The document block of each part of a context, and the place of each
# tensor of MoritaContext.lifted in the document: (block, field), the
# pairings at the top level.  A block product "xy" has shape (dim x, dim y,
# dim of the block _product_block(x, y)) and is written sparse; a unit "x"
# has shape (dim x,) and is written dense.  A missing pairing reads as zero.
_DOC_BLOCKS = {"A": "algebra_A", "B": "algebra_B", "M": "module_M", "N": "module_N"}
_DOC_TENSORS = {
    "AA": ("algebra_A", "mul"),
    "A": ("algebra_A", "unit"),
    "BB": ("algebra_B", "mul"),
    "B": ("algebra_B", "unit"),
    "AM": ("module_M", "left"),
    "MB": ("module_M", "right"),
    "BN": ("module_N", "left"),
    "NA": ("module_N", "right"),
    "MN": (None, "pairing_MN"),
    "NM": (None, "pairing_NM"),
}


def _tensor_shape(dims: dict, key: str) -> tuple:
    if len(key) == 1:
        return (dims[key],)
    x, y = key
    return (dims[x], dims[y], dims[_product_block(x, y)])


def context_to_json(ctx: MoritaContext) -> dict:
    ring = ctx.ring
    doc = {
        "format": "gma-context",
        "ring": ring_to_json(ring),
        "meta": {k: v for k, v in ctx.meta.items() if isinstance(k, str)},
    }
    for x, block in _DOC_BLOCKS.items():
        doc[block] = {"dim": getattr(ctx, x).dim}
    tensors = _context_tensors(ctx)
    for key, (block, field) in _DOC_TENSORS.items():
        write = dense_to_json if len(key) == 1 else sparse_to_json
        (doc if block is None else doc[block])[field] = write(ring, tensors[key])
    return doc


def context_from_json(doc: dict) -> MoritaContext:
    _require(isinstance(doc, dict), "context file must be a JSON object")
    _require(doc.get("format") == "gma-context", "not a gma-context file")
    try:
        ring = ring_from_json(doc["ring"])
    except KeyError:
        raise IOFormatError("context file is missing its ring") from None
    except ExactError as e:
        raise IOFormatError(f"bad ring descriptor: {e}") from None
    for block in _DOC_BLOCKS.values():
        _require(isinstance(doc.get(block), dict), f"missing block {block}")
    dims = {x: _get_dim(doc[block], block) for x, block in _DOC_BLOCKS.items()}
    _require_context_dim(sum(dims.values()))
    meta = doc.get("meta", {})
    _require(isinstance(meta, dict), "meta must be a JSON object")
    for key, (ok, what) in _META_FIELDS.items():
        _require(key not in meta or ok(meta[key]), f"meta.{key} must be {what}")
    if meta.get("builder") == "full_matrix":
        _check_full_matrix_meta(meta, tuple(dims[x] for x in "AMNB"))
    try:
        T = {}
        for key, (block, field) in _DOC_TENSORS.items():
            data = doc.get(field, []) if block is None else doc[block][field]
            read = dense_from_json if len(key) == 1 else sparse_from_json
            T[key] = read(ring, _tensor_shape(dims, key), data)
        ctx = MoritaContext(
            AlgebraSpec(ring, dims["A"], T["AA"], T["A"]),
            AlgebraSpec(ring, dims["B"], T["BB"], T["B"]),
            BimoduleSpec(ring, dims["M"], T["AM"], T["MB"]),
            BimoduleSpec(ring, dims["N"], T["BN"], T["NA"]),
            T["MN"],
            T["NM"],
            meta=dict(meta),
        )
    except KeyError as e:
        raise IOFormatError(f"context file is missing field {e}") from None
    except ExactError as e:
        raise IOFormatError(f"context does not assemble: {e}") from None
    return ctx


def save_context(path, ctx: MoritaContext):
    Path(path).write_text(canonical_dumps(context_to_json(ctx)))


def load_context(path) -> MoritaContext:
    return context_from_json(_load_json(path))


# ---------------------------------------------------------------------------
# standalone algebras (input format for the Peirce-split generator)
# ---------------------------------------------------------------------------


def algebra_from_json(doc: dict):
    """Returns (AlgebraSpec, idempotent-or-None); the algebra must be
    associative and unital (``AlgebraSpec.validate``)."""
    _require(isinstance(doc, dict), "algebra file must be a JSON object")
    _require(doc.get("format") == "gma-algebra", "not a gma-algebra file")
    try:
        ring = ring_from_json(doc["ring"])
        dim = doc["dim"]
        _require(_is_size(dim, 1), "dim must be a positive int")
        alg = AlgebraSpec(
            ring,
            dim,
            sparse_from_json(ring, (dim, dim, dim), doc["mul"]),
            dense_from_json(ring, (dim,), doc["unit"]),
        )
        alg.validate()
    except KeyError as e:
        raise IOFormatError(f"algebra file is missing field {e}") from None
    except (ExactError, AxiomError) as e:
        raise IOFormatError(f"algebra does not assemble: {e}") from None
    idem = None
    if "idempotent" in doc:
        idem = dense_from_json(ring, (dim,), doc["idempotent"])
    return alg, idem


def load_algebra(path):
    return algebra_from_json(_load_json(path))


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class MapDocument:
    kind: str  # "linear" | "bilinear"
    rep: object  # LinearMapRep | BilinearMapRep
    seed: int | None = None
    provenance: str | None = None


def map_to_json(doc: MapDocument) -> dict:
    rep = doc.rep
    ring = rep.ring
    out = {"format": "gma-map", "ring": ring_to_json(ring), "kind": doc.kind}
    if doc.kind == "linear":
        out["shape"] = list(rep.matrix.shape)
        out["entries_dense"] = dense_to_json(ring, rep.matrix)
    elif doc.kind == "bilinear":
        out["shape"] = list(rep.tensor.shape)
        out["entries"] = sparse_to_json(ring, rep.tensor)
    else:
        raise IOFormatError(f"unknown map kind {doc.kind!r}")
    if doc.seed is not None:
        out["seed"] = doc.seed
    if doc.provenance is not None:
        out["provenance"] = doc.provenance
    return out


def map_from_json(doc: dict) -> MapDocument:
    _require(isinstance(doc, dict), "map file must be a JSON object")
    _require(doc.get("format") == "gma-map", "not a gma-map file")
    try:
        ring = ring_from_json(doc["ring"])
        kind = doc["kind"]
        shape = doc["shape"]
    except KeyError as e:
        raise IOFormatError(f"map file is missing field {e}") from None
    except ExactError as e:
        raise IOFormatError(f"bad ring descriptor: {e}") from None
    _require(
        isinstance(shape, list) and all(_is_size(s) for s in shape),
        "map shape must be a list of nonnegative ints",
    )
    expected = {"linear": 2, "bilinear": 3}.get(kind) if isinstance(kind, str) else None
    _require(expected is not None, f"unknown map kind {kind!r}")
    _require(len(shape) == expected, f"{kind} map needs a rank-{expected} shape")
    if "entries_dense" in doc:
        tensor = dense_from_json(ring, tuple(shape), doc["entries_dense"])
    elif "entries" in doc:
        tensor = sparse_from_json(ring, tuple(shape), doc["entries"])
    else:
        raise IOFormatError("map file has neither 'entries' nor 'entries_dense'")
    rep = LinearMapRep(ring, tensor) if kind == "linear" else BilinearMapRep(ring, tensor)
    seed = doc.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise IOFormatError("seed must be an integer")
    prov = doc.get("provenance")
    if prov is not None and not isinstance(prov, str):
        raise IOFormatError("provenance must be a string")
    return MapDocument(kind, rep, seed, prov)


def save_map(path, doc: MapDocument):
    Path(path).write_text(canonical_dumps(map_to_json(doc)))


def load_map(path) -> MapDocument:
    return map_from_json(_load_json(path))


# ---------------------------------------------------------------------------
# decomposition results (stored in plain algebra coordinates)
# ---------------------------------------------------------------------------


def proper_form_to_json(gma: GMA, form) -> dict:
    ring = gma.ring
    z_g = gma.center.z_g
    return {
        "z": dense_to_json(ring, form.z_vec(gma)),
        # column i is mu(e_i) = z_g^T mu[:, i]
        "mu_columns": dense_to_json(ring, ring.tensordot(z_g, form.mu, axes=([0], [0]))),
        "nu": sparse_to_json(ring, ring.tensordot(form.nu, z_g, axes=([2], [0]))),
    }


def linear_rep_to_json(rep: LinearMapRep) -> dict:
    return {
        "shape": list(rep.matrix.shape),
        "entries_dense": dense_to_json(rep.ring, rep.matrix),
    }


def _load_json(path):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise IOFormatError(f"cannot read {path}: {e}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise IOFormatError(f"{path} is not valid JSON: {e}") from None


def save_json(path, obj):
    Path(path).write_text(canonical_dumps(obj))
