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
    nullspace_array,
    rank_array,
    rref_array,
)
from .maps import (
    _arrangement_table,
    _bracket_action,
    _jordan_tensor,
    constraint_matrix,
)
from .rng import XorShift64Star
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

    def _corner_values(self, forward: bool, v):
        v = self.ring.normalize(np.asarray(v))
        image, inside = self.corner_rows_lifted(forward, _lift(self.ring, v))
        return _unlift(self.ring, *image), inside

    def phi_rows(self, a_rows):
        """(phi of each A-corner vector stacked along a_rows' leading axes,
        whether it lies in pi_A(Z)); a vector outside gets a meaningless value."""
        return self._corner_values(True, a_rows)

    def phi_inv_rows(self, b_rows):
        """phi^-1 row by row, as phi_rows, on B-corner vectors and pi_B(Z)."""
        return self._corner_values(False, b_rows)

    def phi_apply(self, a_vec):
        """Apply the corner isomorphism to an A-corner vector; None off the span."""
        out, inside = self.phi_rows(a_vec)
        return out if inside else None

    def phi_inv_apply(self, b_vec):
        out, inside = self.phi_inv_rows(b_vec)
        return out if inside else None


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


def _digits_le(n: int, base: int, width: int):
    out = []
    for _ in range(width):
        out.append(n % base)
        n //= base
    return out


def check_loyal(ctx: MoritaContext, bound: int = 5**8) -> LoyaltyResult:
    """Exhaustive enumeration over F_p (bounded), structural certificates over Q."""
    ring = ctx.ring
    dA, dB, dM = ctx.A.dim, ctx.B.dim, ctx.M.dim
    if dM == 0:
        return LoyaltyResult(
            "false", (ctx.A.unit.copy(), ctx.B.unit.copy()),
            "M = 0: the unit pair already annihilates it",
        )
    if not ring.is_prime_field:
        left_ok, right_ok, _ = check_faithful(ctx)
        if dA == 1 and right_ok:
            return LoyaltyResult("true", None, "dim A = 1 and M right-faithful")
        if dB == 1 and left_ok:
            return LoyaltyResult("true", None, "dim B = 1 and M left-faithful")
        if ctx.meta.get("prime_certified"):
            return LoyaltyResult("true", None, "corner context of an algebra flagged prime")
        return LoyaltyResult("unknown", None, "no structural certificate over Q")

    p = ring.p
    # enumerate the smaller corner; orientation is reported in the witness order
    side_a = dA <= dB
    width = dA if side_a else dB
    total = p**width - 1
    if total > bound:
        return LoyaltyResult("unknown", None, f"{total} candidates exceed bound {bound}")
    # a vector and its nonzero multiples share one kernel, so scan only the
    # multiple whose last nonzero digit is 1: it is the first of its class
    for nidx in (p**h + low for h in range(width) for low in range(p**h)):
        vec = ring.array(_digits_le(nidx, p, width))
        if side_a:
            # kernel in b of b |-> a*M*b
            U = ring.tensordot(vec, ctx.M.left, axes=([0], [0]))  # (j, x) = (a*m_j)_x
            K = ring.tensordot(U, ctx.M.right, axes=([1], [0]))  # (j, b, r)
            K = np.transpose(K, (0, 2, 1)).reshape(dM * dM, dB)
        else:
            U = ring.tensordot(vec, ctx.M.right, axes=([0], [1]))  # (j, x) = (m_j*b)_x
            K = ring.tensordot(U, ctx.M.left, axes=([1], [1]))  # (j, a, r)
            K = np.transpose(K, (0, 2, 1)).reshape(dM * dM, dA)
        ker = nullspace_array(ring, K)
        if ker.shape[0]:
            partner = ker[0].copy()
            ab = (vec, partner) if side_a else (partner, vec)
            return LoyaltyResult("false", ab, "annihilating pair found by enumeration")
    return LoyaltyResult("true", None, f"enumeration over {total} candidates")


# ---------------------------------------------------------------------------
# commuting linear maps and properness
# ---------------------------------------------------------------------------


def commuting_linear_space(alg) -> list:
    """Canonical basis (as matrices) of {f linear : [f(x), x] = 0 for all x}.

    The unknowns are w[i*d + k] = f(e_i)_k; the rows are the coefficients
    of x_i x_j (i <= j) in [f(x), x]: the degree-2 constraint operator."""
    ring, d = alg.ring, alg.dim
    act = _unlift(ring, *_bracket_action(alg, False))
    sols = nullspace_array(ring, constraint_matrix(ring, 2, act))
    return [w.reshape(d, d).T.copy() for w in sols]


def proper_linear_generators(alg, z_rows: np.ndarray) -> list:
    """Matrices spanning {x -> z*x + eta(x) : z central, eta linear into the center}."""
    ring, d = alg.ring, alg.dim
    gens = []
    for z in z_rows:
        gens.append(alg.left_mult_matrix(z))
    for z in z_rows:
        for i in range(d):
            F = ring.zeros((d, d))
            F[:, i] = z
            gens.append(F)
    return gens


@dataclass
class ProperSpanReport:
    ok: bool
    dim_commuting: int
    dim_proper: int


def check_all_commuting_proper(alg) -> ProperSpanReport:
    """Is every commuting linear map of the form x -> z*x + eta(x)?  (span test)"""
    ring, d = alg.ring, alg.dim
    comm = commuting_linear_space(alg)
    z_rows = compute_center_algebra(alg)
    gens = proper_linear_generators(alg, z_rows)
    span = ring.zeros((len(gens), d * d))
    for i, F in enumerate(gens):
        span[i] = F.reshape(d * d)
    cand = ring.zeros((len(comm), d * d))
    for i, F in enumerate(comm):
        cand[i] = F.reshape(d * d)
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


def check_identity_42(gma, seed: int = 1729):
    """Decide whether [[x^2, y], [x, y]] vanishes identically; witness if not.

    Exact monomial-coefficient extraction (degree 3 in x, 2 in y; both below
    every supported characteristic).  The arrangement (u, v, w) of x_a x_b x_c
    contributes [[e_u e_v, e_s], [e_w, e_t]] to y_s y_t; the first monomial,
    then (s <= t), with a nonzero coefficient seeds the witness search.  The
    returned witness pair is re-verified by direct evaluation.
    """
    ring, d = gma.ring, gma.dim
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
    bad = None
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
            bad = triples[t0 + n] + (s, t)
            break

    if bad is None:
        return True, None

    def defect(x, y):
        return gma.commutator(gma.commutator(gma.square(x), y), gma.commutator(x, y))

    a, b, c, s, t = bad
    x = ring.normalize(gma.basis_vector(a) + gma.basis_vector(b) + gma.basis_vector(c))
    y = ring.normalize(gma.basis_vector(s) + gma.basis_vector(t))
    if not ring.is_zero(defect(x, y)):
        return False, (x, y)
    stream = XorShift64Star(seed)
    for _ in range(2000):
        x = ring.array([ring.random_scalar(stream) for _ in range(d)])
        y = ring.array([ring.random_scalar(stream) for _ in range(d)])
        if not ring.is_zero(defect(x, y)):
            return False, (x, y)
    raise CenterError("nonzero defect coefficient but no evaluable witness found")


# ---------------------------------------------------------------------------
# central Jordan radical: largest S <= Z(G) with S o G <= S
# ---------------------------------------------------------------------------


def central_jordan_radical(gma) -> np.ndarray:
    ring, d = gma.ring, gma.dim
    S = gma.center.z_g.copy()
    sym = _jordan_tensor(gma)
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
    K = ring.zeros((dM * dM * dM, 2 * dA * dM))  # unknowns [f columns | g columns]
    for i in range(dM):
        for j in range(dM):
            base = (i * dM + j) * dM
            for a in range(dA):
                K[base : base + dM, a * dM + i] += ctx.M.left[a, j]
                K[base : base + dM, dA * dM + a * dM + j] += ctx.M.left[a, i]
    return nullspace_array(ring, ring.normalize(K)).shape[0]


def center_multiplier_annihilator_ok(gma, bound: int = 5**8):
    """No nonzero projected-center multiplier kills a nonzero A basis element.

    F_p only (coordinate grid scan); returns None when not applicable.
    """
    ring = gma.ring
    if not ring.is_prime_field:
        return None
    C = gma.center
    ka = C.pia_image.shape[0]
    p = ring.p
    if p**ka - 1 > bound:
        return None
    A = gma.ctx.A
    for nidx in range(1, p**ka):
        coeff = ring.array(_digits_le(nidx, p, ka))
        alpha = ring.tensordot(coeff, C.pia_image, axes=([0], [0]))
        for i in range(A.dim):
            if ring.is_zero(A.multiply(alpha, A.basis_vector(i))):
                return False
    return True


def center_zero_divisor_free(gma, bound: int = 5**8):
    """Z(G) has no zero divisors (exhaustive product grid; F_p only)."""
    ring = gma.ring
    if not ring.is_prime_field:
        return None
    C = gma.center
    z = C.zdim
    p = ring.p
    if z == 0:
        return True
    if p ** (2 * z) > bound:
        return None
    elems = []
    for nidx in range(1, p**z):
        coeff = ring.array(_digits_le(nidx, p, z))
        elems.append(C.expand(coeff))
    for z1 in elems:
        for z2 in elems:
            if ring.is_zero(gma.multiply(z1, z2)):
                return False
    return True


def cube_annihilating_forms_contained(gma) -> bool:
    """Bilinear K: B x B -> N with x*K(x,x) = 0 coefficientwise satisfy
    K(x,x) = 0 coefficientwise.  x*K(x,x) depends on K only through its
    pair layout, so this holds iff the degree-3 constraint operator of N's
    left action has full column rank: no nonzero pair layout is killed."""
    ring, N = gma.ring, gma.ctx.N
    if N.dim == 0 or gma.ctx.B.dim == 0:
        return True
    K = constraint_matrix(ring, 3, N.left)
    return rank_array(ring, K) == K.shape[1]


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


def _search_independent_pair(gma, seed: int):
    ring = gma.ring
    ctx = gma.ctx
    dM, dB = ctx.M.dim, ctx.B.dim
    if dM == 0:
        return None

    def independent(m0, b0):
        mb = ctx.M.act_right(m0, b0)
        stack = ring.zeros((2, dM))
        stack[0] = mb
        stack[1] = m0
        return rank_array(ring, stack) == 2

    for i in range(dM):
        for j in range(dB):
            m0 = ring.zeros(dM)
            m0[i] = ring.one
            b0 = ring.zeros(dB)
            b0[j] = ring.one
            if independent(m0, b0):
                return (m0, b0)
    stream = XorShift64Star(seed)
    for _ in range(1000):
        m0 = ring.array([ring.random_scalar(stream) for _ in range(dM)])
        b0 = ring.array([ring.random_scalar(stream) for _ in range(dB)])
        if independent(m0, b0):
            return (m0, b0)
    return None


def hypothesis_report(gma: GMA, loyalty_bound: int = 5**8, seed: int = 0) -> HypothesisReport:
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
        M_loyal=check_loyal(ctx, loyalty_bound),
        zA_eq_piA=spans_equal(zA, C.pia_image),
        zA_ne_A=zA.shape[0] < ctx.A.dim,
        zB_eq_piB=spans_equal(zB, C.pib_image),
        zB_ne_B=zB.shape[0] < ctx.B.dim,
        commuting_proper_on_A=check_all_commuting_proper(ctx.A),
        commuting_proper_on_B=check_all_commuting_proper(ctx.B),
        central_over_R=central,
        b_central_over_R=b_unit_central,
        prop322_m0b0=_search_independent_pair(gma, seed),
        two_torsionfree=(not ring.is_prime_field) or ring.p % 2 == 1,
    )
