"""Helpers that only the tests need, written against the package's API.

The package keeps no public definition that nothing in it calls; what a
test wants on top of that (an element's blocks, a corner isomorphism on
one vector, a gma-algebra writer) lives here.
"""

import json
from pathlib import Path

import numpy as np

from gmalg.exact import _lift, _unlift, ring_to_json
from gmalg.io import canonical_dumps, dense_to_json, sparse_to_json


def read_json(path):
    return json.loads(Path(path).read_text())


def algebra_to_json(alg, idempotent=None) -> dict:
    """The gma-algebra document of alg, with an optional idempotent."""
    ring = alg.ring
    out = {
        "format": "gma-algebra",
        "ring": ring_to_json(ring),
        "dim": alg.dim,
        "unit": dense_to_json(ring, alg.unit),
        "mul": sparse_to_json(ring, alg.mul),
    }
    if idempotent is not None:
        out["idempotent"] = dense_to_json(ring, np.asarray(idempotent))
    return out


def save_algebra(path, alg, idempotent=None):
    Path(path).write_text(canonical_dumps(algebra_to_json(alg, idempotent)))


def center_coords(C, v):
    """Coefficients of v over the canonical basis of Z(G), or None if v is
    not central."""
    coords, central = C.center_rows(v)
    return coords.copy() if central else None


def corner_map(C, forward: bool, v):
    """phi (forward, on an A-corner vector) or phi^-1 (on a B-corner
    vector), or None off the projected center."""
    image, inside = C.corner_rows_lifted(forward, _lift(C.ring, C.ring.normalize(v)))
    return _unlift(C.ring, *image) if inside else None


def pair_mn(ctx, m, n):
    """The pairing of m in M and n in N, an element of A."""
    t = ctx.ring.tensordot(m, ctx.pairing_MN, axes=([0], [0]))
    return ctx.ring.tensordot(n, t, axes=([0], [0]))


def pair_nm(ctx, n, m):
    """The pairing of n in N and m in M, an element of B."""
    t = ctx.ring.tensordot(n, ctx.pairing_NM, axes=([0], [0]))
    return ctx.ring.tensordot(m, t, axes=([0], [0]))


def blocks(gma, x):
    """The A, M, N and B coordinates of x."""
    x = gma.ring.normalize(np.asarray(x))
    return tuple(x[gma.block_slice(i)].copy() for i in range(4))


def embed_diag(gma, a, b):
    """The element with A-corner a and B-corner b, zero elsewhere, built as
    a sum: over Q each of its cells is a Fraction of its own."""
    ring = gma.ring
    pa, pb = ring.zeros(gma.dim), ring.zeros(gma.dim)
    pa[gma.block_slice(0)] = ring.normalize(np.asarray(a))
    pb[gma.block_slice(3)] = ring.normalize(np.asarray(b))
    return ring.normalize(pa + pb)


def jordan(alg, x, y):
    """x o y = xy + yx (no 1/2)."""
    return alg.ring.normalize(alg.multiply(x, y) + alg.multiply(y, x))


def symmetrized(q):
    """The symmetric part (q + q^T) / 2 of a bilinear map's tensor."""
    ring = q.ring
    return ring.normalize((q.tensor + np.transpose(q.tensor, (1, 0, 2))) * ring.half)


def mu_vec(gma, form, x):
    """mu(x) of a proper form, in G coordinates."""
    return gma.center.expand(gma.ring.tensordot(form.mu, np.asarray(x), axes=([1], [0])))


def nu_vec(gma, form, x, y):
    """nu(x, y) of a proper form, in G coordinates."""
    ring = gma.ring
    t = ring.tensordot(np.asarray(x), form.nu, axes=([0], [0]))
    return gma.center.expand(ring.tensordot(np.asarray(y), t, axes=([0], [0])))


def factored_solve(factored, rhs):
    """The canonical solution of a FactoredMatrix's mat @ x = rhs, or None."""
    ring = factored.ring
    x, L, ok = factored.solve_lifted(*_lift(ring, ring.normalize(np.asarray(rhs))))
    return _unlift(ring, x, L) if ok else None
