"""Algebras, bimodules, Morita contexts, and assembled generalized matrix algebras.

Everything is finite dimensional with explicit structure-constant tensors:

* an algebra is ``mul[i, j, r]`` with ``e_i e_j = sum_r mul[i,j,r] e_r``;
* a bimodule carries ``left[a, m, r]`` (algebra element acting from the left)
  and ``right[m, b, r]``;
* a Morita context is two algebras, two bimodules and the two pairings
  ``pairing_MN[m, n, r]`` (valued in A) and ``pairing_NM[n, m, r]`` (valued in B).

``assemble_gma`` glues the four blocks into one algebra on the coordinate
order (A-block, M-block, N-block, B-block) with the 2x2 block-matrix product.
The Morita axioms are exactly the associativity and unit laws of that
product, checked once per block triple and per block before it is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate

import numpy as np

from .exact import (
    ExactError,
    RingDescriptor,
    _contract,
    _lift,
    _sub,
    _td,
    _unlift,
    inverse_array,
    row_basis,
    row_span_coords,
)


class AxiomError(ValueError):
    """A structural axiom failed; carries the failing identity and indices."""

    def __init__(self, identity: str, indices=None, detail: str = ""):
        self.identity = identity
        self.indices = indices
        msg = f"axiom failed: {identity}"
        if indices is not None:
            msg += f" at indices {tuple(int(i) for i in indices)}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _read_only(value):
    """value with every array in it, nested in tuples, lists and dicts, made
    read-only in place; arrays are not copied."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, (tuple, list)):
        for v in value:
            _read_only(v)
    elif isinstance(value, dict):
        for v in value.values():
            _read_only(v)
    return value


# ---------------------------------------------------------------------------
# multiplication helpers shared by algebras and assembled GMAs
# ---------------------------------------------------------------------------


def _first_nonzero(ring, arr):
    """Index of the first nonzero cell of arr in row-major order, or None."""
    bad = np.argwhere(arr != ring.zero)
    return None if bad.size == 0 else tuple(int(v) for v in bad[0])


def _associator(ring, xy, xy_z, yz, x_yz):
    """(xy)z - x(yz) up to a nonzero multiple on basis triples, indexed
    [x, y, z, r], from the lifted product tensors of x*y, (xy)*z, y*z, x*(yz)."""
    lhs = _td(ring, xy, xy_z, ([2], [0]))
    rhs, L = _td(ring, yz, x_yz, ([2], [1]))  # [y, z, x, r]
    return _sub(ring, lhs, (np.transpose(rhs, (2, 0, 1, 3)), L))[0]


def _unit_defect(ring, unit, prod, axis):
    """1*x - x (axis 0) or x*1 - x (axis 1) up to a nonzero multiple, indexed
    [x, r], for a lifted unit and product tensor with its algebra on that axis."""
    act = _td(ring, unit, prod, ([0], [axis]))
    return _sub(ring, act, (np.eye(prod[0].shape[2], dtype=ring.dtype), 1))[0]


class _MulCarrier:
    """Mixin for anything with .ring, .dim, .mul, .unit."""

    @cached_property
    def cache(self) -> dict:
        """Per-algebra values that depend only on the algebra (and its
        center), each stored by ``cached`` on first use."""
        return {}

    @cached_property
    def lifted_mul(self):
        """The product tensor lifted (exact._lift) and read-only: the one lift
        of ``mul`` per carrier, which every reader of the lifted product shares."""
        return _read_only(_lift(self.ring, self.mul))

    def cached(self, key, build):
        """The per-algebra value under key: build() on first use, then the
        same value, its arrays read-only."""
        if key not in self.cache:
            self.cache[key] = _read_only(build())
        return self.cache[key]

    def _check_vec(self, x):
        x = np.asarray(x)
        if x.shape != (self.dim,):
            raise ExactError(
                f"element has {x.shape} coordinates, algebra dimension is {self.dim}"
            )
        return self.ring.normalize(x)

    def _products(self, x, axis):
        """Elements x, stacked along its leading axes, times the basis on
        `axis` of the product (0: [..., j, r] = (x e_j)_r, 1: [..., i, r] =
        (e_i x)_r), lifted, from the one lift ``lifted_mul``."""
        n, L = self.lifted_mul
        nx, lx = _lift(self.ring, x)
        return _contract(self.ring, nx, n, axes=([-1], [axis])), lx * L

    def multiply(self, x, y):
        xy, L = self._products(self._check_vec(x), 0)
        ny, ly = _lift(self.ring, self._check_vec(y))
        return _unlift(self.ring, _contract(self.ring, ny, xy, axes=([0], [0])), ly * L)

    def square(self, x):
        return self.multiply(x, x)

    def commutator(self, x, y):
        return self.ring.normalize(self.multiply(x, y) - self.multiply(y, x))

    def left_mult_matrix(self, x):
        """Matrix L with L @ y = x*y."""
        return _unlift(self.ring, *self._products(self._check_vec(x), 0)).T.copy()

    def right_mult_matrix(self, x):
        """Matrix R with R @ y = y*x."""
        return _unlift(self.ring, *self._products(self._check_vec(x), 1)).T.copy()

    def _assoc_witness(self):
        w = _first_nonzero(self.ring, _associator(self.ring, *(self.lifted_mul,) * 4))
        return None if w is None else w[:3]

    def _unit_witness(self):
        unit = _lift(self.ring, self.unit)
        for axis, law in ((0, "left-unit"), (1, "right-unit")):
            defect = _unit_defect(self.ring, unit, self.lifted_mul, axis)
            if _first_nonzero(self.ring, defect) is not None:
                return law
        return None


@dataclass(eq=False)
class AlgebraSpec(_MulCarrier):
    """A finite-dimensional unital associative algebra given by structure constants."""

    ring: RingDescriptor
    dim: int
    mul: np.ndarray  # (dim, dim, dim)
    unit: np.ndarray  # (dim,)

    def __post_init__(self):
        self.mul = _freeze(self.ring.normalize(np.asarray(self.mul)))
        self.unit = _freeze(self.ring.normalize(np.asarray(self.unit)))
        if self.mul.shape != (self.dim, self.dim, self.dim):
            raise ExactError("mul tensor shape mismatch")
        if self.unit.shape != (self.dim,):
            raise ExactError("unit shape mismatch")

    def validate(self):
        if self.dim == 0:
            raise AxiomError("algebra.nonzero-dim")
        w = self._assoc_witness()
        if w is not None:
            raise AxiomError("algebra.associativity", w)
        u = self._unit_witness()
        if u is not None:
            raise AxiomError(f"algebra.{u}")

    def basis_vector(self, i: int):
        v = self.ring.zeros(self.dim)
        v[i] = self.ring.one
        return v


@dataclass(eq=False)
class BimoduleSpec:
    """Left action of one algebra, right action of another, on one space."""

    ring: RingDescriptor
    dim: int
    left: np.ndarray  # (dim_left_algebra, dim, dim)
    right: np.ndarray  # (dim, dim_right_algebra, dim)

    def __post_init__(self):
        self.left = _freeze(self.ring.normalize(np.asarray(self.left)))
        self.right = _freeze(self.ring.normalize(np.asarray(self.right)))
        if self.left.ndim != 3 or self.left.shape[1:] != (self.dim, self.dim):
            raise ExactError("left action shape mismatch")
        if self.right.ndim != 3 or self.right.shape[::2] != (self.dim, self.dim):
            raise ExactError("right action shape mismatch")

    def act_left(self, a, m):
        am = self.ring.tensordot(a, self.left, axes=([0], [0]))  # (m, r)
        return self.ring.tensordot(m, am, axes=([0], [0]))

    def act_right(self, m, b):
        mb = self.ring.tensordot(m, self.right, axes=([0], [0]))  # (b, r)
        return self.ring.tensordot(b, mb, axes=([0], [0]))


@dataclass(eq=False)
class MoritaContext:
    """(A, B, M, N, pairing M(x)N -> A, pairing N(x)M -> B)."""

    A: AlgebraSpec
    B: AlgebraSpec
    M: BimoduleSpec  # A acts left, B acts right
    N: BimoduleSpec  # B acts left, A acts right
    pairing_MN: np.ndarray  # (dim M, dim N, dim A)
    pairing_NM: np.ndarray  # (dim N, dim M, dim B)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        ring = self.ring
        self.pairing_MN = _freeze(ring.normalize(np.asarray(self.pairing_MN)))
        self.pairing_NM = _freeze(ring.normalize(np.asarray(self.pairing_NM)))
        if self.pairing_MN.shape != (self.M.dim, self.N.dim, self.A.dim):
            raise ExactError("pairing_MN shape mismatch")
        if self.pairing_NM.shape != (self.N.dim, self.M.dim, self.B.dim):
            raise ExactError("pairing_NM shape mismatch")
        for name, axis, alg in (
            ("M.left", self.M.left.shape[0], self.A),
            ("M.right", self.M.right.shape[1], self.B),
            ("N.left", self.N.left.shape[0], self.B),
            ("N.right", self.N.right.shape[1], self.A),
        ):
            if axis != alg.dim:
                raise ExactError(f"{name} acts by an algebra of dim {axis}, not {alg.dim}")

    @property
    def ring(self) -> RingDescriptor:
        return self.A.ring

    @cached_property
    def lifted(self) -> dict:
        """Each tensor of ``_context_tensors`` lifted (exact._lift) once and
        read-only, by the same key; "AA" and "BB" are the corners' own
        ``lifted_mul``.  Over F_p each is the frozen tensor itself with scale 1."""
        corners = {"AA": self.A.lifted_mul, "BB": self.B.lifted_mul}
        return {
            key: corners[key] if key in corners else _read_only(_lift(self.ring, t))
            for key, t in _context_tensors(self).items()
        }


@dataclass
class MoritaReport:
    ok: bool
    failure: str | None = None
    indices: tuple | None = None

    def __str__(self):
        if self.ok:
            return "morita axioms: pass"
        where = "" if self.indices is None else f" at indices {self.indices}"
        return f"morita axioms: FAIL [{self.failure}]{where}"


# The blocks in coordinate order; block i sits at (row, col) = divmod(i, 2)
# of the 2x2 block matrix, so x*y lands in the block at (row x, col y) and
# vanishes by construction unless col x = row y.
_BLOCKS = "AMNB"


def _row(x: str) -> int:
    return _BLOCKS.index(x) // 2


def _col(x: str) -> int:
    return _BLOCKS.index(x) % 2


def _block_at(row: int, col: int) -> str:
    return _BLOCKS[2 * row + col]


def _product_block(x: str, y: str) -> str:
    """The block that products of blocks x and y land in: (row x, col y)."""
    return _block_at(_row(x), _col(y))


def _block_products(ctx: MoritaContext) -> dict:
    """The product tensor [x, y, r] of each pair of blocks xy with
    col x = row y; r runs over the block _product_block(x, y)."""
    return {
        "AA": ctx.A.mul,
        "AM": ctx.M.left,
        "MB": ctx.M.right,
        "MN": ctx.pairing_MN,
        "NM": ctx.pairing_NM,
        "NA": ctx.N.right,
        "BN": ctx.N.left,
        "BB": ctx.B.mul,
    }


def _context_tensors(ctx: MoritaContext) -> dict:
    """Every tensor of the context: _block_products and, under "A" and
    "B", the corner units."""
    return {**_block_products(ctx), "A": ctx.A.unit, "B": ctx.B.unit}


# The Morita axioms in report order, each a law of the block product:
# "xyz" is (xy)z = x(yz) on blocks x, y, z with col x = row y and
# col y = row z; "1x" and "x1" say that the unit acts trivially on block x
# from the left and from the right.  Every other law of the assembled
# product holds by construction, both sides being zero.
_MORITA_LAWS = (
    ("A.associativity", "AAA"),
    ("A.left-unit", "1A"),
    ("A.right-unit", "A1"),
    ("B.associativity", "BBB"),
    ("B.left-unit", "1B"),
    ("B.right-unit", "B1"),
    ("M.left-associative", "AAM"),
    ("M.left-unit", "1M"),
    ("M.right-associative", "MBB"),
    ("M.right-unit", "M1"),
    ("M.actions-commute", "AMB"),
    ("N.left-associative", "BBN"),
    ("N.left-unit", "1N"),
    ("N.right-associative", "NAA"),
    ("N.right-unit", "N1"),
    ("N.actions-commute", "BNA"),
    ("pairing_MN.left-A-linear", "AMN"),
    ("pairing_MN.right-A-linear", "MNA"),
    ("pairing_MN.B-balanced", "MBN"),
    ("pairing_NM.left-B-linear", "BNM"),
    ("pairing_NM.right-B-linear", "NMB"),
    ("pairing_NM.A-balanced", "NAM"),
    ("diagram.MN-M", "MNM"),
    ("diagram.NM-N", "NMN"),
)


def _law_defect(ctx: MoritaContext, law: str):
    """The two sides of one law subtracted, up to a nonzero multiple, on basis tuples."""
    ring, prods = ctx.ring, ctx.lifted
    if law[0] == "1":
        corner = _block_at(_row(law[1]), _row(law[1]))
        return _unit_defect(ring, prods[corner], prods[corner + law[1]], 0)
    if law[1] == "1":
        corner = _block_at(_col(law[0]), _col(law[0]))
        return _unit_defect(ring, prods[corner], prods[law[0] + corner], 1)
    x, y, z = law
    xy, yz = _product_block(x, y), _product_block(y, z)
    return _associator(ring, prods[x + y], prods[xy + z], prods[y + z], prods[x + yz])


def check_morita_axioms(ctx: MoritaContext) -> MoritaReport:
    """Verify the Morita axioms, the associativity and unit laws of the block
    product, on basis tuples.

    Returns a report carrying the first violated identity (by name) and the
    basis indices witnessing it.
    """
    if ctx.M.dim == 0 and ctx.N.dim == 0:
        return MoritaReport(False, "context.degenerate-both-modules-zero")
    for name, law in _MORITA_LAWS:
        w = _first_nonzero(ctx.ring, _law_defect(ctx, law))
        if w is not None:
            return MoritaReport(False, name, w)
    return MoritaReport(True)


# ---------------------------------------------------------------------------
# the assembled generalized matrix algebra
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class GMA(_MulCarrier):
    """The block algebra [[A, M], [N, B]] on coordinates (A | M | N | B)."""

    ctx: MoritaContext
    ring: RingDescriptor
    dim: int
    mul: np.ndarray
    unit: np.ndarray
    offsets: tuple  # (start_A, start_M, start_N, start_B)

    def __post_init__(self):
        self.mul = _freeze(self.ring.normalize(np.asarray(self.mul)))
        self.unit = _freeze(self.ring.normalize(np.asarray(self.unit)))

    # block slicing --------------------------------------------------------

    @property
    def dims(self):
        c = self.ctx
        return (c.A.dim, c.M.dim, c.N.dim, c.B.dim)

    def block_slice(self, which: int) -> slice:
        """0=A, 1=M, 2=N, 3=B."""
        start = self.offsets[which]
        end = self.offsets[which + 1] if which < 3 else self.dim
        return slice(start, end)

    def basis_vector(self, i: int):
        v = self.ring.zeros(self.dim)
        v[i] = self.ring.one
        return v

    # per-algebra results, each computed once on first use

    @cached_property
    def center(self):
        """CenterData for this GMA."""
        from .center import compute_center_gma

        return compute_center_gma(self)

    @cached_property
    def report(self):
        """The hypothesis report, the one every command and route reads; its
        loyalty scan keeps to the fixed budget center._CANDIDATE_BOUND."""
        from .center import hypothesis_report

        return hypothesis_report(self)

    @cached_property
    def generic_system(self):
        """The generic route's coefficient system for this GMA."""
        from .decompose import build_generic_system

        return build_generic_system(self)


def assemble_gma(ctx: MoritaContext) -> GMA:
    """Glue a Morita context into its generalized matrix algebra.

    The Morita axioms are the block laws of the assembled product, so a
    context that passes ``check_morita_axioms`` gives an associative unital
    algebra; one that fails is rejected with the failing law and witness.
    """
    rep = check_morita_axioms(ctx)
    if not rep.ok:
        raise AxiomError(rep.failure, rep.indices)
    ring = ctx.ring
    dims = [getattr(ctx, x).dim for x in _BLOCKS]
    offsets = (0, *accumulate(dims[:3]))
    d = sum(dims)
    sl = {x: slice(o, o + n) for x, o, n in zip(_BLOCKS, offsets, dims)}
    mul = ring.zeros((d, d, d))
    for (x, y), tensor in _block_products(ctx).items():
        mul[sl[x], sl[y], sl[_product_block(x, y)]] = tensor

    unit = ring.zeros(d)
    unit[sl["A"]] = ctx.A.unit
    unit[sl["B"]] = ctx.B.unit
    return GMA(ctx, ring, d, mul, unit, offsets)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _unit_positions(rows: range, cols: range, upper: bool) -> tuple:
    """(row, col) of the matrix units in rows x cols, row-major; with
    `upper` only those on or above the diagonal."""
    return tuple((r, c) for r in rows for c in cols if not upper or r <= c)


@lru_cache(maxsize=None)
def _unit_product_cells(P: tuple, Q: tuple, R: tuple) -> np.ndarray:
    """Flat indices into a (len P, len Q, len R) tensor of the products
    E_P[i] E_Q[j] = E_R[l] of the matrix units at the (row, column)
    positions P, Q and R: E_rc E_st is E_rt if c = s, else 0, and R holds
    every nonzero product."""
    at = {rt: l for l, rt in enumerate(R)}
    cells = np.array(
        [
            (i * len(Q) + j) * len(R) + at[r, t]
            for i, (r, c) in enumerate(P)
            for j, (s, t) in enumerate(Q)
            if c == s
        ],
        dtype=np.intp,
    )
    cells.flags.writeable = False
    return cells


def _unit_products(ring: RingDescriptor, P: tuple, Q: tuple, R: tuple) -> np.ndarray:
    """T[i, j, l] = 1 where E_P[i] E_Q[j] = E_R[l], zero elsewhere."""
    T = ring.zeros((len(P), len(Q), len(R)))
    T.reshape(-1)[_unit_product_cells(P, Q, R)] = ring.one
    return T


def _matrix_unit_algebra(ring: RingDescriptor, n: int, upper: bool) -> AlgebraSpec:
    """The n x n matrix units (with `upper`, those with r <= c), row-major."""
    pos = _unit_positions(range(n), range(n), upper)
    unit = ring.zeros(len(pos))
    for i, (r, c) in enumerate(pos):
        if r == c:
            unit[i] = ring.one
    return AlgebraSpec(ring, len(pos), _unit_products(ring, pos, pos, pos), unit)


def make_matrix_algebra(n: int, ring: RingDescriptor) -> AlgebraSpec:
    """Full n x n matrix algebra on the unit basis E_rc, row-major."""
    if n < 1:
        raise ExactError("matrix algebra needs n >= 1")
    return _matrix_unit_algebra(ring, n, upper=False)


def make_triangular_algebra(n: int, ring: RingDescriptor) -> AlgebraSpec:
    """Upper-triangular n x n matrices on E_rc with r <= c, row-major."""
    if n < 1:
        raise ExactError("triangular algebra needs n >= 1")
    return _matrix_unit_algebra(ring, n, upper=True)


def _block_positions(n: int, k: int, upper: bool):
    """Global (row, col) of the A, M, N and B coordinates of the split at k."""
    lo, hi = range(k), range(k, n)
    return [_unit_positions(r, c, upper) for r, c in ((lo, lo), (lo, hi), (hi, lo), (hi, hi))]


def _corner_split(n: int, k: int, ring: RingDescriptor, upper: bool, meta: dict):
    """The split at k of the n x n matrix units (with `upper`, of the upper
    triangular ones): every action and pairing is a product of matrix units."""
    if not (1 <= k <= n - 1):
        raise ExactError(f"need 1 <= k <= n-1, got n={n}, k={k}")
    PA, PM, PN, PB = _block_positions(n, k, upper)
    M = BimoduleSpec(
        ring, len(PM), _unit_products(ring, PA, PM, PM), _unit_products(ring, PM, PB, PM)
    )
    N = BimoduleSpec(
        ring, len(PN), _unit_products(ring, PB, PN, PN), _unit_products(ring, PN, PA, PN)
    )
    return MoritaContext(
        _matrix_unit_algebra(ring, k, upper),
        _matrix_unit_algebra(ring, n - k, upper),
        M,
        N,
        _unit_products(ring, PM, PN, PA),
        _unit_products(ring, PN, PM, PB),
        meta,
    )


def build_full_matrix(n: int, k: int, ring: RingDescriptor) -> MoritaContext:
    """Split M_n along the idempotent diag(1^k, 0): A = M_k, B = M_{n-k},
    M and N the off-diagonal rectangles, pairings = matrix multiplication.

    The context is flagged prime (it is the corner split of a full matrix
    algebra over a field), which certifies bimodule loyalty over Q.
    """
    meta = {"builder": "full_matrix", "n": n, "k": k, "prime_certified": True}
    return _corner_split(n, k, ring, False, meta)


def full_matrix_positions(n: int, k: int):
    """Global (row, col) of each GMA coordinate for a full-matrix build."""
    return [rc for block in _block_positions(n, k, False) for rc in block]


def build_upper_triangular(n: int, k: int, ring: RingDescriptor) -> MoritaContext:
    """Split T_n into A = T_k, B = T_{n-k}, M = full k x (n-k), N = 0."""
    return _corner_split(n, k, ring, True, {"builder": "upper_triangular", "n": n, "k": k})


def build_inflated(ring: RingDescriptor, dim_v: int, gamma) -> MoritaContext:
    """One-dimensional corners R, a space V on both off-diagonals, and a
    symmetric bilinear form gamma giving both pairings.

    Nothing here guarantees the associativity diagrams for arbitrary gamma
    (rank >= 2 forms generally break gamma(m,n)m' = gamma(n,m')m); callers
    go through check_morita_axioms / assemble_gma which reject the bad ones
    with a witness.
    """
    if dim_v < 1:
        raise ExactError("inflated build needs dim V >= 1")
    gamma = ring.normalize(ring.array(gamma) if not isinstance(gamma, np.ndarray) else gamma)
    if gamma.shape != (dim_v, dim_v):
        raise ExactError("gamma must be dim_v x dim_v")
    if not ring.equal(gamma, gamma.T):
        raise ExactError("gamma must be symmetric")
    scal = AlgebraSpec(ring, 1, ring.array([[[1]]]), ring.array([1]))
    eye3 = ring.zeros((1, dim_v, dim_v))
    eye3[0] = ring.eye(dim_v)
    eye3_r = ring.zeros((dim_v, 1, dim_v))
    for i in range(dim_v):
        eye3_r[i, 0, i] = ring.one
    V_as_M = BimoduleSpec(ring, dim_v, eye3, eye3_r)
    V_as_N = BimoduleSpec(ring, dim_v, eye3.copy(), eye3_r.copy())
    pair_mn = ring.zeros((dim_v, dim_v, 1))
    pair_nm = ring.zeros((dim_v, dim_v, 1))
    pair_mn[:, :, 0] = gamma
    pair_nm[:, :, 0] = gamma.T  # = gamma; kept explicit for the swapped slots
    meta = {"builder": "inflated", "dim_v": dim_v}
    return MoritaContext(scal, scal, V_as_M, V_as_N, pair_mn, pair_nm, meta)


def build_diagonal_pair(ring: RingDescriptor, k: int = 2) -> MoritaContext:
    """A = B = R^k (componentwise product), M = N = R^k acting coordinatewise.

    The standard non-loyal control: for k = 2, a = (1,0) and b = (0,1)
    satisfy a M b = 0 with both nonzero, while M stays faithful on each side.
    """
    if k < 2:
        raise ExactError("diagonal pair needs k >= 2")
    mul = ring.zeros((k, k, k))
    for i in range(k):
        mul[i, i, i] = ring.one
    unit = ring.zeros(k)
    unit[:] = ring.one
    alg = AlgebraSpec(ring, k, mul, unit)
    left = ring.zeros((k, k, k))
    right = ring.zeros((k, k, k))
    for i in range(k):
        left[i, i, i] = ring.one
        right[i, i, i] = ring.one
    M = BimoduleSpec(ring, k, left, right)
    N = BimoduleSpec(ring, k, left.copy(), right.copy())
    pair = ring.zeros((k, k, k))
    for i in range(k):
        pair[i, i, i] = ring.one
    meta = {"builder": "diagonal_pair", "k": k}
    return MoritaContext(alg, alg, M, N, pair, pair.copy(), meta)


def build_peirce(alg: AlgebraSpec, e):
    """Peirce split of an algebra along an idempotent e (e != 0, 1).

    Returns (context, certificate) where certificate is the invertible
    change-of-basis matrix whose column j is the j-th GMA coordinate vector
    expressed in the source algebra's coordinates; conjugating the source
    product by it reproduces the assembled GMA product exactly.  The algebra
    is checked for its own laws first (``AlgebraSpec.validate``).
    """
    alg.validate()
    ring = alg.ring
    e = ring.normalize(np.asarray(e))
    if e.shape != (alg.dim,):
        raise ExactError("idempotent has wrong length")
    if not ring.equal(alg.multiply(e, e), e):
        raise AxiomError("peirce.idempotent", detail="e*e != e")
    f = ring.normalize(alg.unit - e)
    if ring.is_zero(e) or ring.is_zero(f):
        raise AxiomError("peirce.degenerate", detail="e is 0 or 1")

    Le, Re = alg.left_mult_matrix(e), alg.right_mult_matrix(e)
    Lf, Rf = alg.left_mult_matrix(f), alg.right_mult_matrix(f)

    def corner_basis(lmat, rmat):
        proj = ring.tensordot(rmat, lmat, axes=([1], [0]))  # x -> l * x * r
        return row_basis(ring, proj.T)

    UA = corner_basis(Le, Re)  # e x e
    UM = corner_basis(Le, Rf)  # e x f
    UN = corner_basis(Lf, Re)  # f x e
    UB = corner_basis(Lf, Rf)  # f x f
    if UA.shape[0] + UM.shape[0] + UN.shape[0] + UB.shape[0] != alg.dim:
        raise AxiomError("peirce.split", detail="corners do not sum to the algebra")

    def coords_in(basis, v, what):
        c = row_span_coords(ring, basis, v)
        if c is None:
            raise AxiomError("peirce.block-product", detail=f"{what} left its corner")
        return c

    def block_mul(U, V, W, what):
        UV = ring.tensordot(U, ring.tensordot(V, alg.mul, axes=([1], [1])), axes=([1], [1]))
        return coords_in(W, UV, what)  # UV[i, j] = U_i * V_j

    A = AlgebraSpec(ring, UA.shape[0], block_mul(UA, UA, UA, "A*A"), coords_in(UA, e, "e"))
    B = AlgebraSpec(ring, UB.shape[0], block_mul(UB, UB, UB, "B*B"), coords_in(UB, f, "f"))
    M = BimoduleSpec(
        ring, UM.shape[0], block_mul(UA, UM, UM, "A*M"), block_mul(UM, UB, UM, "M*B")
    )
    N = BimoduleSpec(
        ring, UN.shape[0], block_mul(UB, UN, UN, "B*N"), block_mul(UN, UA, UN, "N*A")
    )
    pair_mn = block_mul(UM, UN, UA, "M*N")
    pair_nm = block_mul(UN, UM, UB, "N*M")
    meta = {"builder": "peirce", "prime_certified": False}
    ctx = MoritaContext(A, B, M, N, pair_mn, pair_nm, meta)

    cert = ring.zeros((alg.dim, alg.dim))
    col = 0
    for U in (UA, UM, UN, UB):
        for row in U:
            cert[:, col] = row
            col += 1
    if inverse_array(ring, cert) is None:
        raise AxiomError("peirce.certificate", detail="change of basis not invertible")
    return ctx, cert
