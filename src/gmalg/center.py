"""Centers, the cross-corner center isomorphism, and structural hypothesis checks.

Every center here is one commutant: the nullspace of x |-> [x, e_i] over
the basis, read as canonical rows (``compute_center_algebra``).  The block
algebra's center Z(G) and the centers of its corners A and B all come from
it.  Membership in the span of any of these canonical rows is decided by
one test: the span's annihilator ``nullspace_array(rows)`` kills the
vector, and its coordinates are the vector read at the rows' pivots.

``phi`` is the isomorphism between the two corner projections of the center
(a |-> the unique b with a*m = m*b and n*a = b*n for all m, n); it exists on
the projection by construction and is unique iff the bimodule is faithful on
the right, which is checked and reported rather than guessed.  Each central
(a, b) already pairs a with its partner, so phi is read off one reduction
of the center basis, not solved for.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .exact import (
    RingDescriptor,
    _contract,
    _lift,
    _unlift,
    blocked_nullspace,
    nullspace_array,
    rank_array,
    rref_array,
)
from .maps import (
    _arrangement_table,
    _bracket_action,
    _grid_points,
    _product_tensors,
    constraint_operator,
)
from .structure import GMA, MoritaContext, _read_only


class CenterError(ValueError):
    pass


def _rref_rows(ring, rows):
    if rows.shape[0] == 0:
        return rows
    red, piv, rank = rref_array(ring, rows)
    return red[:rank].copy()


def compute_center_algebra(alg) -> np.ndarray:
    """Canonical basis (rows) of the center of an algebra-like carrier."""
    ring, d, mul = alg.ring, alg.dim, alg.mul
    if d == 0:
        return ring.zeros((0, 0))
    lhs = np.transpose(mul, (1, 2, 0))  # [i, r, j] = (e_j e_i)_r
    rhs = np.transpose(mul, (0, 2, 1))  # [i, r, j] = (e_i e_j)_r
    K = ring.normalize(lhs - rhs).reshape(d * d, d)
    return _rref_rows(ring, nullspace_array(ring, K))


@dataclass(eq=False)
class CenterData:
    """Everything downstream code needs about Z(G) and its corner projections."""

    ring: RingDescriptor
    dim: int
    z_g: np.ndarray  # (zdim, dim) canonical rows
    z_a: np.ndarray  # center of the A corner, in A coordinates
    z_b: np.ndarray
    pia_image: np.ndarray  # A-projection of Z(G), canonical rows
    pib_image: np.ndarray
    phi: np.ndarray  # (dim B, #pia rows): piA coefficient -> B coords
    phi_inv: np.ndarray  # (dim A, #pib rows)
    annihilator: np.ndarray  # (dim - zdim, dim): nullspace_array(z_g), kills exactly Z(G)
    faithful_left: bool  # check_faithful of the connecting bimodule M
    faithful_right: bool

    def __post_init__(self):
        _read_only([getattr(self, f.name) for f in fields(self)])

    @property
    def zdim(self) -> int:
        return self.z_g.shape[0]

    @cached_property
    def lifted(self) -> dict:
        """The center's arrays lifted (exact._lift) and read-only, by field
        name: (n, L) for phi and phi_inv, and (n, L, pivots, Q) for the
        canonical rows z_g, z_a, z_b, pia_image and pib_image, Q the
        numerators of their lifted annihilator ``nullspace_array(rows)``
        (for z_g, ``annihilator``); a scale does not change what Q kills.
        Over F_p each n is the array itself.  Built on first use, not with
        the center."""
        out = {name: _lift(self.ring, getattr(self, name)) for name in ("phi", "phi_inv")}
        for name in ("z_g", "z_a", "z_b", "pia_image", "pib_image"):
            rows = getattr(self, name)
            ann = self.annihilator if name == "z_g" else nullspace_array(self.ring, rows)
            pivots = (rows != 0).argmax(axis=1) if rows.size else np.zeros(len(rows), dtype=np.intp)
            out[name] = (*_lift(self.ring, rows), pivots, _lift(self.ring, ann)[0])
        return _read_only(out)

    def span_lifted(self, name: str, v):
        """(coords, inside) for lifted vectors v = (n, L) stacked along n's
        leading axes, against the canonical rows `name`: the coordinates,
        lifted, are v read at the rows' pivots (meaningless for a vector
        outside), and a vector is inside iff the rows' annihilator kills it."""
        _, _, pivots, ann = self.lifted[name]
        n, Lv = v
        rest = _contract(self.ring, n, ann, axes=([-1], [1]))
        return (n[..., pivots], Lv), ~np.any(rest != 0, axis=-1)

    def outside_lifted(self, name: str, v):
        """Mask of the lifted vectors v that leave the span of the rows `name`."""
        return ~self.span_lifted(name, v)[1]

    def corner_rows_lifted(self, forward: bool, v):
        """phi (forward) or phi^-1 on lifted v = (n, L) stacked along n's
        leading axes: (images, lifted, inside pi_A(Z) resp. pi_B(Z)); a
        vector outside gets a meaningless image."""
        image, iso = ("pia_image", "phi") if forward else ("pib_image", "phi_inv")
        (coords, Lv), inside = self.span_lifted(image, v)
        n, L = self.lifted[iso]
        return (_contract(self.ring, coords, n, axes=([-1], [1])), Lv * L), inside

    def center_rows(self, v):
        """(coords, central) for vectors stacked along v's leading axes:
        coefficients over the z_g basis (v read at z_g's pivots, meaningless
        for a vector that is not central) and whether each vector is central."""
        v = self.ring.normalize(np.asarray(v))
        return v[..., self.lifted["z_g"][2]], self.span_lifted("z_g", _lift(self.ring, v))[1]

    def center_coords(self, v):
        """Coefficients of v over the z_g basis, or None if v is not central."""
        coords, central = self.center_rows(v)
        return coords.copy() if central else None

    def in_center(self, v) -> bool:
        return self.center_coords(v) is not None

    def expand(self, zc):
        """Center coefficients -> G coordinates."""
        return self.ring.tensordot(np.asarray(zc), self.z_g, axes=([0], [0]))

    def quotient(self, v):
        """The annihilator applied to v: zero iff v is central."""
        return self.ring.tensordot(self.annihilator, np.asarray(v), axes=([1], [0]))

    def phi_apply(self, a_vec):
        """Apply the corner isomorphism to an A-corner vector; None off the span."""
        v = _lift(self.ring, self.ring.normalize(a_vec))
        image, inside = self.corner_rows_lifted(True, v)
        return _unlift(self.ring, *image) if inside else None

    def phi_inv_apply(self, b_vec):
        v = _lift(self.ring, self.ring.normalize(b_vec))
        image, inside = self.corner_rows_lifted(False, v)
        return _unlift(self.ring, *image) if inside else None


def check_faithful(ctx: MoritaContext):
    """(left_ok, right_ok, witness) for the connecting bimodule M.

    left: a*M = 0 forces a = 0;  right: M*b = 0 forces b = 0.
    The witness is the offending nonzero annihilator, if any.
    """
    ring, dA, dB, dM = ctx.ring, ctx.A.dim, ctx.B.dim, ctx.M.dim
    # rows (j, r): a*m_j resp. m_j*b read in coordinate r
    left_null = nullspace_array(ring, np.transpose(ctx.M.left, (1, 2, 0)).reshape(dM * dM, dA))
    right_null = nullspace_array(ring, np.transpose(ctx.M.right, (0, 2, 1)).reshape(dM * dM, dB))
    left_ok = left_null.shape[0] == 0
    right_ok = right_null.shape[0] == 0
    witness = None
    if not left_ok:
        witness = ("left", left_null[0].copy())
    elif not right_ok:
        witness = ("right", right_null[0].copy())
    return left_ok, right_ok, witness


def _corner_iso(ring, z_g, src: slice, dst: slice):
    """(image, iso): the canonical rows of the src-corner projection of Z(G)
    and, as columns, the dst corner of the central partner of each row.
    Both come from one reduction of [z_g[:, src] | z_g[:, dst]]: its rows
    with a pivot in the src block are exactly the image rows, each beside
    the dst part of the central element it came from.  The rows below them
    are central elements zero on the src corner, and faithfulness on the
    dst side makes them zero, so each image row has exactly one partner."""
    width = src.stop - src.start
    red, piv, _ = rref_array(ring, np.concatenate([z_g[:, src], z_g[:, dst]], axis=1))
    rank = sum(1 for c in piv if c < width)
    return red[:rank, :width].copy(), red[:rank, width:].T.copy()


def compute_center_gma(gma: GMA) -> CenterData:
    ring = gma.ring
    ctx = gma.ctx
    z_g = compute_center_algebra(gma)
    z_a = compute_center_algebra(ctx.A)
    z_b = compute_center_algebra(ctx.B)
    pia, phi = _corner_iso(ring, z_g, gma.block_slice(0), gma.block_slice(3))
    pib, phi_inv = _corner_iso(ring, z_g, gma.block_slice(3), gma.block_slice(0))

    left_ok, right_ok, _w = check_faithful(ctx)
    if pia.shape[0] and not right_ok:
        raise CenterError(
            "corner isomorphism needs the bimodule faithful on the right; it is not"
        )
    if pib.shape[0] and not left_ok:
        raise CenterError(
            "corner isomorphism inverse needs the bimodule faithful on the left; it is not"
        )

    return CenterData(
        ring, gma.dim, z_g, z_a, z_b, pia, pib, phi, phi_inv, nullspace_array(ring, z_g),
        left_ok, right_ok,
    )


# ---------------------------------------------------------------------------
# loyalty (a M b = 0 forces a = 0 or b = 0)
# ---------------------------------------------------------------------------


@dataclass
class LoyaltyResult:
    status: str  # "true" | "false" | "unknown"
    witness: tuple | None = None  # (a_coords, b_coords) when status == "false"
    detail: str = ""

    def __bool__(self):
        raise TypeError("three-valued result; compare .status explicitly")


def _first_singular(ring, T):
    """(c, kernel vector) for the first nonzero c in F_p^k whose matrix
    sum_u c_u T[u] has a kernel, with the first vector of its canonical
    nullspace; None if every such matrix is injective.  A vector and its
    nonzero multiples share one kernel, so only the multiple whose last
    nonzero digit is 1 is scanned: the numbers below p^k with leading digit
    1, in increasing order, read as little-endian digits."""
    p, k = ring.p, T.shape[0]
    numbers = np.concatenate([np.arange(p**h, 2 * p**h, dtype=np.int64) for h in range(k)])
    candidates = numbers[:, None] // p ** np.arange(k, dtype=np.int64) % p
    for c in candidates:
        ker = nullspace_array(ring, np.tensordot(c, T, axes=([0], [0])))
        if ker.shape[0]:
            return c.copy(), ker[0].copy()
    return None


def check_loyal(ctx: MoritaContext, bound: int = 5**8) -> LoyaltyResult:
    """Exhaustive enumeration over F_p (bounded), structural certificates over Q."""
    return _loyalty(ctx, bound, lambda: check_faithful(ctx)[:2])


def gma_loyalty(gma: GMA, bound: int = 5**8) -> LoyaltyResult:
    """check_loyal of gma's context; over Q its certificates read the
    faithfulness of M that gma.center holds instead of computing it again."""
    C = gma.center
    return _loyalty(gma.ctx, bound, lambda: (C.faithful_left, C.faithful_right))


def _loyalty(ctx: MoritaContext, bound: int, faithful) -> LoyaltyResult:
    """check_loyal, with faithful() giving M's (left, right) faithfulness."""
    ring = ctx.ring
    dA, dB, dM = ctx.A.dim, ctx.B.dim, ctx.M.dim
    if dM == 0:
        return LoyaltyResult(
            "false", (ctx.A.unit.copy(), ctx.B.unit.copy()),
            "M = 0: the unit pair already annihilates it",
        )
    if not ring.is_prime_field:
        left_ok, right_ok = faithful()
        if dA == 1 and right_ok:
            return LoyaltyResult("true", None, "dim A = 1 and M right-faithful")
        if dB == 1 and left_ok:
            return LoyaltyResult("true", None, "dim B = 1 and M left-faithful")
        if ctx.meta.get("prime_certified"):
            return LoyaltyResult("true", None, "corner context of an algebra flagged prime")
        return LoyaltyResult("unknown", None, "no structural certificate over Q")

    # enumerate the smaller corner; orientation is reported in the witness order
    side_a = dA <= dB
    total = ring.p ** min(dA, dB) - 1
    if total > bound:
        return LoyaltyResult("unknown", None, f"{total} candidates exceed bound {bound}")
    # [a, j, b, r] = ((e_a m_j) e_b)_r; for a fixed candidate on one side,
    # the rows (j, r) and the other side's coordinates as columns
    amb = ring.tensordot(ctx.M.left, ctx.M.right, axes=([2], [0]))
    axes = (0, 1, 3, 2) if side_a else (2, 1, 3, 0)
    T = np.transpose(amb, axes).reshape(dA if side_a else dB, dM * dM, -1)
    hit = _first_singular(ring, T)
    if hit is None:
        return LoyaltyResult("true", None, f"enumeration over {total} candidates")
    ab = hit if side_a else hit[::-1]
    return LoyaltyResult("false", ab, "annihilating pair found by enumeration")


# ---------------------------------------------------------------------------
# commuting linear maps and properness
# ---------------------------------------------------------------------------


def commuting_linear_space(alg) -> list:
    """Canonical basis (as matrices) of {f linear : [f(x), x] = 0 for all x}.

    The unknowns are w[i*d + k] = f(e_i)_k; the rows are the coefficients
    of x_i x_j (i <= j) in [f(x), x]: the degree-2 constraint operator,
    solved one block at a time from its entries."""
    ring, d = alg.ring, alg.dim
    act = _unlift(ring, *_bracket_action(alg, False))
    sols = blocked_nullspace(ring, constraint_operator(ring, 2, act), d * d)
    return [w.reshape(d, d).T.copy() for w in sols]


@dataclass
class ProperSpanReport:
    ok: bool
    dim_commuting: int
    dim_proper: int


def check_all_commuting_proper(alg, z_rows: np.ndarray) -> ProperSpanReport:
    """Is every commuting linear map of the form x -> z*x + eta(x), with
    z_rows the canonical basis of Z(alg) (a corner's from CenterData)?"""
    ring, d = alg.ring, alg.dim
    comm = commuting_linear_space(alg)
    # the maps x -> z*x, as (z, r, y) = (z e_y)_r, then x -> x_i z, as
    # (z, i, r, c) = z_r when c = i: together they span the proper maps
    left = np.transpose(_unlift(ring, *alg._products(z_rows, 0)), (0, 2, 1))
    eta = z_rows[:, None, :, None] * np.eye(d, dtype=np.int64)[None, :, None, :]
    span = ring.normalize(np.concatenate([left.reshape(-1, d * d), eta.reshape(-1, d * d)]))
    cand = np.reshape(comm, (len(comm), d * d))
    # the commuting maps lie in the proper span iff its annihilator kills them
    ann = nullspace_array(ring, span)
    ok = ring.is_zero(ring.tensordot(cand, ann, axes=([1], [1])))
    return ProperSpanReport(ok, len(comm), d * d - ann.shape[0])


# ---------------------------------------------------------------------------
# bracket-square identity [[x^2, y], [x, y]] == 0  (holds iff both corners commute)
# ---------------------------------------------------------------------------


def _integer_mul_tensor(gma):
    """(mul, p): the product tensor mod p, or over Q its integer lift
    (denominators cleared) and p = None.

    Over Q the scan does not reduce, so its largest value bounds its dtype.
    With B the largest lifted constant, [e_u, e_v] has entries of size at
    most 2B, W = e_u e_v times a bracket at most d * B * 2B, Y, W bracketed
    once more, at most d * 2dB^2 * 2B = 4d^2 B^3, one arrangement's
    contribution (a bracket times Y, d terms) at most 8d^3 B^4, the sum over
    at most six arrangements 48d^3 B^4 and the coefficient (that sum plus
    its (s, t) transpose) 96d^3 B^4; every partial sum along the way is
    bounded by the same sums of absolute values.  Below 2^63 the scan runs
    on int64, otherwise on python ints."""
    ring = gma.ring
    if ring.is_prime_field:
        return np.asarray(gma.mul, dtype=np.int64), ring.p
    lifted, _ = gma.lifted["mul"]
    B = int(np.abs(lifted).max(initial=0))
    if 96 * gma.dim**3 * B**4 < 1 << 63:
        lifted = lifted.astype(np.int64)
    return lifted, None


# cells per intermediate array of the identity scan: whole
# monomials go through at once, so the d**6 contraction stays bounded
_IDENTITY_42_CELLS = 1 << 20


def check_identity_42(gma):
    """Decide whether [[x^2, y], [x, y]] vanishes identically; witness if not.

    Exact monomial-coefficient extraction (degree 3 in x, 2 in y; both below
    every supported characteristic).  The arrangement (u, v, w) of x_a x_b x_c
    contributes [[e_u e_v, e_s], [e_w, e_t]] to y_s y_t; the first monomial,
    then (s <= t), with a nonzero coefficient gives the variables of the
    witness search.  The returned witness pair is re-verified by direct
    evaluation.
    """
    d = gma.dim
    mul, p = _integer_mul_tensor(gma)

    def reduce(arr):
        return arr % p if p is not None else arr

    Bk = reduce(mul - np.transpose(mul, (1, 0, 2)))
    W = reduce(np.tensordot(mul, Bk, axes=([2], [0])))  # [u, v, s, l] = [e_u e_v, e_s]_l
    Y = reduce(np.tensordot(W, Bk, axes=([3], [0])))  # [[e_u e_v, e_s], e_m]_r
    Y = Y.reshape(d * d, d, d, d)  # [u * d + v, s, m, r]
    triples, uvw, _, starts = _arrangement_table(d)
    bounds = np.append(starts, len(uvw))
    upper = np.triu(np.ones((d, d), dtype=bool))
    per = max(1, _IDENTITY_42_CELLS // (6 * d**3))  # a monomial has <= 6 arrangements
    for t0 in range(0, len(triples), per):
        t1 = min(t0 + per, len(triples))
        u, v, w = uvw[bounds[t0] : bounds[t1]].T
        contrib = np.matmul(Bk[w][:, None], Y[u * d + v])  # (n, s, t, r)
        sums = np.add.reduceat(contrib, starts[t0:t1] - starts[t0], axis=0)
        # this doubles the (s, s) coefficient, which stays nonzero iff it was
        coef = reduce(sums + np.transpose(sums, (0, 2, 1, 3)))
        hits = np.argwhere(np.any(coef != 0, axis=-1) & upper)
        if hits.size:
            n, s, t = (int(i) for i in hits[0])
            return False, _identity_42_witness(gma, triples[t0 + n], (s, t))
    return True, None


def _identity_42_witness(gma, xs, ys):
    """(x, y) with a nonzero defect, x on the basis vectors xs and y on ys,
    whose monomial has a nonzero coefficient.  The defect has degree at most
    3 in each coordinate of x and 2 in each of y, so it is nonzero somewhere
    on the grid of maps._grid_points; the basis sums come first."""
    for x, y in _grid_points(gma, xs, ys):
        defect = gma.commutator(gma.commutator(gma.square(x), y), gma.commutator(x, y))
        if not gma.ring.is_zero(defect):
            return x, y
    raise CenterError("nonzero defect coefficient but witness grid found nothing")


# ---------------------------------------------------------------------------
# central Jordan radical: largest S <= Z(G) with S o G <= S
# ---------------------------------------------------------------------------


def central_jordan_radical(gma) -> np.ndarray:
    ring, d = gma.ring, gma.dim
    S = gma.center.z_g.copy()
    sym = _unlift(ring, *_product_tensors(gma)["jordan"])
    while S.shape[0]:
        T = ring.tensordot(S, sym, axes=([1], [1]))  # [s, i, r] = (S_s o e_i)_r
        # sum_s c_s S_s o e_i stays in S iff S's annihilator kills it
        K = ring.tensordot(T, nullspace_array(ring, S), axes=([2], [1]))  # [s, i, k]
        C = nullspace_array(ring, K.reshape(S.shape[0], -1).T)
        newS = _rref_rows(ring, ring.tensordot(C, S, axes=([1], [0]))) if C.shape[0] else ring.zeros((0, d))
        if newS.shape[0] == S.shape[0]:
            return newS
        S = newS
    return S


# ---------------------------------------------------------------------------
# smaller structural scans used by the suite
# ---------------------------------------------------------------------------


def balanced_pair_space_dim(gma) -> int | None:
    """dim of {(f, g) linear M -> A : f(m)*m' + g(m')*m = 0 on all pairs}.

    With a loyal bimodule and noncommutative B this must be 0.  None when
    there is no M to test.
    """
    ring = gma.ring
    ctx = gma.ctx
    dA, dM = ctx.A.dim, ctx.M.dim
    if dM == 0:
        return None
    # rows (i, j, r): (f(m_i) m_j + g(m_j) m_i)_r; columns [f | g], each
    # (a, c) = (e_a coordinate of the image of m_c)
    act = np.transpose(ctx.M.left, (1, 2, 0))  # [j, r, a] = (e_a m_j)_r
    eye = np.eye(dM, dtype=np.int64)
    f = act[None, :, :, :, None] * eye[:, None, None, None, :]  # c = i
    g = act[:, None, :, :, None] * eye[None, :, None, None, :]  # c = j
    K = np.stack([f, g], axis=3).reshape(dM**3, 2 * dA * dM)
    return nullspace_array(ring, ring.normalize(K)).shape[0]


def center_multiplier_annihilator_ok(gma) -> bool:
    """No nonzero projected-center multiplier kills a nonzero A basis element.

    The multipliers are the nonzero combinations of the canonical rows
    pi_u of pi_A(Z(G)), so one kills e_i iff the products pi_u * e_i are
    linearly dependent."""
    ring, C = gma.ring, gma.center
    T = _unlift(ring, *gma.ctx.A._products(C.pia_image, 0))  # [u, i, r]
    return all(rank_array(ring, T[:, i]) == T.shape[0] for i in range(T.shape[1]))


def center_zero_divisor_free(gma, bound: int = 5**8):
    """Z(G) has no zero divisors (exhaustive product grid; F_p only)."""
    ring = gma.ring
    if not ring.is_prime_field:
        return None
    C = gma.center
    z = C.zdim
    if z == 0:
        return True
    if ring.p ** (2 * z) > bound:
        return None
    # [u, w, v] = coordinate w of z_u z_v, which is central
    prod = ring.tensordot(_unlift(ring, *gma._products(C.z_g, 0)), C.z_g, axes=([1], [1]))
    coords, _ = C.center_rows(np.transpose(prod, (0, 2, 1)))
    return _first_singular(ring, np.transpose(coords, (0, 2, 1))) is None


def cube_annihilating_forms_contained(gma) -> bool:
    """Bilinear K: B x B -> N with x*K(x,x) = 0 coefficientwise satisfy
    K(x,x) = 0 coefficientwise.  x*K(x,x) depends on K only through its
    pair layout, so this holds iff the degree-3 constraint operator of N's
    left action has full column rank: no nonzero pair layout is killed,
    so its nullspace has no rows."""
    ring, N, dB = gma.ring, gma.ctx.N, gma.ctx.B.dim
    if N.dim == 0 or dB == 0:
        return True
    K = constraint_operator(ring, 3, N.left)
    return blocked_nullspace(ring, K, dB * (dB + 1) // 2 * N.dim).shape[0] == 0


# ---------------------------------------------------------------------------
# the aggregated hypothesis report
# ---------------------------------------------------------------------------


@dataclass
class HypothesisReport:
    morita_ok: bool
    M_faithful_left: bool
    M_faithful_right: bool
    M_loyal: LoyaltyResult
    zA_eq_piA: bool
    zA_ne_A: bool
    zB_eq_piB: bool
    zB_ne_B: bool
    commuting_proper_on_A: ProperSpanReport
    commuting_proper_on_B: ProperSpanReport
    central_over_R: bool
    b_central_over_R: bool
    prop322_m0b0: tuple | None
    two_torsionfree: bool

    @property
    def main_route_ok(self) -> bool:
        """Route 1: proper commuting maps on a corner, both corner centers match
        the projected center properly, loyal bimodule."""
        return (
            self.morita_ok
            and (self.commuting_proper_on_A.ok or self.commuting_proper_on_B.ok)
            and self.zA_eq_piA
            and self.zA_ne_A
            and self.zB_eq_piB
            and self.zB_ne_B
            and self.M_loyal.status == "true"
        )

    @property
    def alt_route_ok(self) -> bool:
        """Route 2: noncommutative central B over a field, proper commuting maps
        on B, and a pair (m0, b0) with {m0*b0, m0} independent."""
        return (
            self.morita_ok
            and self.zB_ne_B
            and self.central_over_R
            and self.b_central_over_R
            and self.commuting_proper_on_B.ok
            and self.prop322_m0b0 is not None
        )

    @property
    def route(self) -> str:
        if self.main_route_ok:
            return "main"
        if self.alt_route_ok:
            return "corner"
        return "none"

    def lines(self):
        ci = self.commuting_proper_on_A
        cb = self.commuting_proper_on_B
        out = [
            f"morita-axioms: {'ok' if self.morita_ok else 'FAIL'}",
            f"bimodule-faithful: left={self.M_faithful_left} right={self.M_faithful_right}",
            f"bimodule-loyal: {self.M_loyal.status} ({self.M_loyal.detail})",
            f"corner-A-center-matches-projection: {self.zA_eq_piA}; A-noncommutative: {self.zA_ne_A}",
            f"corner-B-center-matches-projection: {self.zB_eq_piB}; B-noncommutative: {self.zB_ne_B}",
            f"commuting-maps-proper-on-A: {ci.ok} (commuting dim {ci.dim_commuting}, proper dim {ci.dim_proper})",
            f"commuting-maps-proper-on-B: {cb.ok} (commuting dim {cb.dim_commuting}, proper dim {cb.dim_proper})",
            f"central-over-scalars: G={self.central_over_R} B={self.b_central_over_R}",
            f"independent-pair-m0b0: {'found' if self.prop322_m0b0 is not None else 'none'}",
            f"two-torsion-free: {self.two_torsionfree}",
            f"decomposition-route: {self.route}",
        ]
        if self.M_loyal.status == "false" and self.M_loyal.witness is not None:
            a, b = self.M_loyal.witness
            fa = "[" + ", ".join(str(v) for v in a) + "]"
            fb = "[" + ", ".join(str(v) for v in b) + "]"
            out.insert(3, f"  non-loyal witness: a={fa} b={fb}")
        return out


def _independent_pair(gma):
    """A pair (m0, b0) with {m0*b0, m0} independent, or None.  One exists
    iff some b acts on M as a non-scalar map, so iff some basis b_j does:
    either m_i*b_j leaves the line of m_i for a basis m_i, or b_j acts
    diagonally and scales m_i and m_0 differently, and then m_0 + m_i
    works.  The first basis pair (i, j) comes first, then the first such
    diagonal action."""
    ring, R = gma.ring, gma.ctx.M.right  # [i, j, r] = (m_i b_j)_r
    dM, dB = R.shape[:2]
    if dM == 0:
        return None
    diag = R[np.arange(dM), :, np.arange(dM)]  # [i, j] = (m_i b_j)_i
    off = R != 0
    off[np.arange(dM), :, np.arange(dM)] = False
    off = off.any(axis=2)
    if off.any():
        i, j = np.argwhere(off)[0]
        support = [i]
    else:
        scaled = np.argwhere((diag != diag[0]).T)
        if not scaled.size:
            return None
        j, i = scaled[0]
        support = [0, i]
    m0, b0 = ring.zeros(dM), ring.zeros(dB)
    m0[support] = ring.one
    b0[j] = ring.one
    return m0, b0


def hypothesis_report(gma: GMA, loyalty_bound: int = 5**8) -> HypothesisReport:
    ring = gma.ring
    ctx = gma.ctx
    C = gma.center
    zA, zB = C.z_a, C.z_b

    def spans_equal(rows_a, rows_b):
        if rows_a.shape[0] != rows_b.shape[0]:
            return False
        return bool(np.all(rows_a == rows_b)) if rows_a.size else True

    unit_central = C.center_coords(gma.unit) is not None
    central = C.zdim == 1 and unit_central
    b_unit_central = zB.shape[0] == 1 and bool(C.span_lifted("z_b", _lift(ring, ctx.B.unit))[1])
    return HypothesisReport(
        morita_ok=True,  # a GMA comes only from assemble_gma, which checks the laws
        M_faithful_left=C.faithful_left,
        M_faithful_right=C.faithful_right,
        M_loyal=gma_loyalty(gma, loyalty_bound),
        zA_eq_piA=spans_equal(zA, C.pia_image),
        zA_ne_A=zA.shape[0] < ctx.A.dim,
        zB_eq_piB=spans_equal(zB, C.pib_image),
        zB_ne_B=zB.shape[0] < ctx.B.dim,
        commuting_proper_on_A=check_all_commuting_proper(ctx.A, zA),
        commuting_proper_on_B=check_all_commuting_proper(ctx.B, zB),
        central_over_R=central,
        b_central_over_R=b_unit_central,
        prop322_m0b0=_independent_pair(gma),
        two_torsionfree=(not ring.is_prime_field) or ring.p % 2 == 1,
    )
