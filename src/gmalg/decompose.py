"""Proper-form extraction for centralizing traces and the splitting of
Lie triple isomorphisms into (+/- Jordan) + central parts.

Two independent routes produce proper forms T(x) = z x^2 + mu(x) x + nu(x):

* the generic route solves one exact linear system in (z, mu, nu) over the
  center and verifies reconstruction;
* the constructive route follows the block-component chain (kappa, theta,
  alpha, tau, gamma, gamma', delta, epsilon, epsilon') and assembles the
  same data piecewise, asserting every centrality claim along the way.

The two are deliberately never collapsed: their agreement (as reconstructed
maps — the triple itself is not unique) is itself one of the checked
properties.  Anything that should hold by theory but fails on a concrete
instance comes back as a first-class "violation candidate" result carrying
the offending data, never as a crash.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from math import lcm

import numpy as np

from .center import CenterData
from .exact import (
    ExactError,
    FactoredMatrix,
    _add,
    _common,
    _contract,
    _lift,
    _scaled_equal,
    _sub,
    _td,
    _unlift,
    inverse_array,
    nullspace_array,
    rank_array,
)
from .maps import (
    BilinearMapRep,
    LinearMapRep,
    MapError,
    _product_tensors,
    _second_commutator_tensor,
    is_centralizing_trace,
    is_commuting_trace,
    is_jordan_hom,
    is_lie_triple_hom,
    pair_coefficients,
    pair_index_order,
    symmetric_from_pairs,
    vanishes_on_second_commutators,
)
from .rng import XorShift64Star
from .structure import GMA, full_matrix_positions


class PredicateNotSatisfied(MapError):
    """A decomposition was asked for a map that fails its entry predicate."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class WitnessExtractionError(ExactError):
    """The constructive chain hit an inconsistent solve or a membership
    failure; carries the hypothesis report of the instance."""

    def __init__(self, stage, message, report=None):
        super().__init__(f"{stage}: {message}")
        self.stage = stage
        self.report = report


class ComponentPatternError(ExactError):
    def __init__(self, kind, i, j):
        super().__init__(
            f"component {kind}{i + 1}{j + 1} should vanish for a centralizing "
            f"trace but does not"
        )
        self.component = (kind, i, j)


# ---------------------------------------------------------------------------
# block components of a trace
# ---------------------------------------------------------------------------

# output-block patterns forced by centralizing-ness: the M-valued part uses
# only pairs touching the M slot, the N-valued part only pairs touching N
_G_ALLOWED = {(0, 1), (1, 1), (1, 2), (1, 3)}
_H_ALLOWED = {(0, 2), (1, 2), (2, 2), (2, 3)}


@dataclass(eq=False)
class ComponentGrid:
    """Symmetrized block components C_ij of a trace, 0-indexed blocks
    (0=A, 1=M, 2=N, 3=B); C_ij collects q(x_i, x_j) + q(x_j, x_i) for i < j
    and the plain diagonal restriction for i = j, so that
    T_q(x) = sum over i <= j of C_ij(x_i, x_j).  The components are kept
    lifted (exact._lift) for the chain; ``tensors`` and ``component`` give
    ring values."""

    gma: GMA
    lifted: dict  # (i, j) -> (n, L): C_ij = n / L, n of shape (dim_i, dim_j, dim G)
    centralizing: bool
    pattern_violation: tuple | None = None

    @cached_property
    def tensors(self) -> dict:
        """(i, j) -> C_ij as a (dim_i, dim_j, dim G) array of ring values."""
        return {ij: _unlift(self.gma.ring, *t) for ij, t in self.lifted.items()}

    def part(self, kind: str, i: int, j: int):
        """component(kind, i, j), lifted."""
        n, L = self.lifted[(i, j)]
        return n[:, :, self.gma.block_slice("fghk".index(kind))], L

    def component(self, kind: str, i: int, j: int) -> np.ndarray:
        """kind in 'f'(A-part), 'g'(M), 'h'(N), 'k'(B); blocks i <= j 0-based."""
        return _unlift(self.gma.ring, *self.part(kind, i, j))

    def evaluate(self, kind: str, i: int, j: int, x, y):
        ring = self.gma.ring
        t = self.component(kind, i, j)
        v = ring.tensordot(np.asarray(x), t, axes=([0], [0]))
        return ring.tensordot(np.asarray(y), v, axes=([0], [0]))


def extract_components(q: BilinearMapRep, gma: GMA, centralizing: bool | None = None) -> ComponentGrid:
    """Split the trace of q into its block components.

    When the trace is centralizing the forced vanishing patterns are
    asserted; a violation is an implementation (or theorem) problem and is
    raised with the offending component named.
    """
    if q.tensor.shape != (gma.dim, gma.dim, gma.dim):
        raise MapError("bilinear map shape does not match the algebra")
    if centralizing is None:
        centralizing = is_centralizing_trace(gma, q)[0]
    return _component_grid(gma, q.lifted, centralizing)


def _component_grid(gma: GMA, q, centralizing: bool) -> ComponentGrid:
    """extract_components on the lifted tensor q = (n, L): q + q^T once,
    its diagonal blocks halved through the scale over Q."""
    ring = gma.ring
    n, L = q
    P = ring.normalize(n + np.transpose(n, (1, 0, 2)))
    lifted = {}
    for i in range(4):
        si = gma.block_slice(i)
        for j in range(i, 4):
            block = P[si, gma.block_slice(j), :]
            if i != j:
                lifted[(i, j)] = (block, L)
            elif ring.is_prime_field:
                lifted[(i, j)] = (ring.normalize(block * ring.half), L)
            else:
                lifted[(i, j)] = (block, 2 * L)
    violation = None
    for (i, j), (t, _) in lifted.items():
        for kind, allowed in (("g", _G_ALLOWED), ("h", _H_ALLOWED)):
            sl = gma.block_slice("fghk".index(kind))
            if sl.stop == sl.start:
                continue
            if (i, j) not in allowed and np.any(t[:, :, sl] != 0):
                violation = (kind, i, j)
                break
        if violation:
            break
    grid = ComponentGrid(gma, lifted, centralizing, violation)
    if centralizing and violation is not None:
        raise ComponentPatternError(*violation)
    return grid


# ---------------------------------------------------------------------------
# proper forms and the generic solver
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ProperTraceForm:
    """z in center coordinates; mu as (zdim, dim) matrix of center coords;
    nu as a symmetric (dim, dim, zdim) tensor of center coords."""

    z: np.ndarray
    mu: np.ndarray
    nu: np.ndarray

    def z_vec(self, gma: GMA):
        return gma.center.expand(self.z)

    def mu_vec(self, gma: GMA, x):
        coords = gma.ring.tensordot(self.mu, np.asarray(x), axes=([1], [0]))
        return gma.center.expand(coords)

    def nu_vec(self, gma: GMA, x, y):
        ring = gma.ring
        t = ring.tensordot(np.asarray(x), self.nu, axes=([0], [0]))
        coords = ring.tensordot(np.asarray(y), t, axes=([0], [0]))
        return gma.center.expand(coords)

    def evaluate(self, gma: GMA, x):
        zx2 = gma.multiply(self.z_vec(gma), gma.square(x))
        mux = gma.multiply(self.mu_vec(gma, x), x)
        return gma.ring.normalize(zx2 + mux + self.nu_vec(gma, x, x))

    def sym_tensor(self, gma: GMA) -> np.ndarray:
        """Symmetric coefficient tensor of the reconstructed trace."""
        doubled, L = self._doubled_tensor(gma)
        return _unlift(gma.ring, doubled, 2 * L)

    def matches(self, gma: GMA, q: BilinearMapRep) -> bool:
        """Does the form reconstruct q's trace: is twice sym_tensor q + q^T?"""
        ring = gma.ring
        doubled, L = self._doubled_tensor(gma)
        t, lq = q.lifted
        return _scaled_equal(ring, doubled, L, ring.normalize(t + np.transpose(t, (1, 0, 2))), lq)

    def _doubled_tensor(self, gma: GMA):
        """(T, L), lifted (exact._lift): T / L = z(xy + yx) + mu(x)y + mu(y)x
        + 2nu(x, y), twice the symmetric tensor of z x^2 + mu(x) x + nu(x, x)."""
        ring, td = gma.ring, partial(_contract, gma.ring)
        mul, lm = gma.lifted["mul"]
        z_g, lg = gma.center.lifted["z_g"][:2]
        z, lz = _lift(ring, self.z)
        mu, lu = _lift(ring, self.mu)
        nu, ln = _lift(ring, self.nu)
        # nu is read on i <= j and mirrored, so only its symmetric use counts
        upper = np.triu(np.ones((gma.dim, gma.dim), dtype=bool))[:, :, None]
        nu = np.where(upper, nu, np.transpose(nu, (1, 0, 2)))
        sym, ls = _product_tensors(gma)["jordan"]
        z_mul = td(td(z, z_g, axes=([0], [0])), mul, axes=([0], [0]))  # [k] = z e_k
        zxy = td(sym, z_mul, axes=([2], [0]))  # over lz lg lm ls
        P = td(td(mu, z_g, axes=([0], [0])), mul, axes=([1], [0]))  # mu(e_i) e_j, over lu lg lm
        nu = td(nu, z_g, axes=([2], [0]))  # over ln lg
        # every part is over lg times its own scale
        parts = [
            (zxy, lz * lm * ls),
            (ring.normalize(P + np.transpose(P, (1, 0, 2))), lu * lm),
            (ring.normalize(nu * 2), ln),
        ]
        L = lcm(*(l for _, l in parts))
        total = sum(t if l == L else t * (L // l) for t, l in parts)
        return ring.normalize(total), L * lg


@dataclass(eq=False)
class _GenericSystem:
    """The (pairs*dim) x (zdim*(1 + dim + npairs)) coefficient matrix of
    v_ij = z*(e_i e_j + e_j e_i) + mu(e_i)e_j + mu(e_j)e_i + nu_ij, built
    once per algebra and reused for every decomposition on it.  Its z-block
    reads the pair layout e_i e_j + e_j e_i of ``maps._product_tensors``.

    Each solve goes through a factorization made on the first solve that
    needs it, not when the system is built."""

    gma: GMA
    matrix: np.ndarray

    @property
    def zdim(self):
        return self.gma.center.zdim

    @cached_property
    def factor(self) -> FactoredMatrix:
        """``matrix`` factored for the generic route's solves in (z, mu, nu)."""
        return FactoredMatrix(self.gma.ring, self.matrix)

    @cached_property
    def mu_nu_factor(self) -> FactoredMatrix:
        """The (mu, nu) columns of ``matrix`` factored for the sign solves of
        a Lie triple split, where lam = +-1 stands in for z."""
        return FactoredMatrix(self.gma.ring, self.matrix[:, self.zdim :])


def build_generic_system(gma: GMA) -> _GenericSystem:
    ring, d = gma.ring, gma.dim
    zg = gma.center.z_g
    zdim = zg.shape[0]
    I, J = np.triu_indices(d)  # pair_index_order
    npairs = len(I)
    n = np.arange(npairs)
    off = I != J
    sym = _unlift(ring, *_product_tensors(gma)["pairs"])
    # ZB[t, j, r] = (zeta_t * e_j)_r  (center times basis, as vectors)
    ZB = _unlift(ring, *_td(ring, _lift(ring, zg), gma.lifted_mul, axes=([1], [0])))
    # K[pair, r, column block, t]; blocks: z, mu(e_0..e_d-1), nu(pairs)
    K = ring.zeros((npairs, d, 1 + d + npairs, zdim))
    K[:, :, 0, :] = np.transpose(ring.tensordot(sym, ZB, axes=([1], [1])), (0, 2, 1))
    # mu-terms: coefficient of mu(e_i) coord t is zeta_t * e_j
    K[n, :, 1 + I, :] = np.transpose(ZB[:, J, :], (1, 2, 0))
    K[n[off], :, 1 + J[off], :] = np.transpose(ZB[:, I[off], :], (1, 2, 0))
    K[n, :, 1 + d + n, :] = zg.T
    return _GenericSystem(gma, K.reshape(npairs * d, (1 + d + npairs) * zdim))


def _solution_to_form(gma: GMA, sol: np.ndarray) -> ProperTraceForm:
    zdim = gma.center.zdim
    return ProperTraceForm(sol[:zdim].copy(), *_unpack_mu_nu(gma, sol[zdim:]))


def _unpack_mu_nu(gma: GMA, sol: np.ndarray):
    """(mu, nu) from the solution blocks mu(e_0), ..., mu(e_d-1), then nu of
    each pair in pair_index_order, zdim center coordinates each."""
    d, zdim = gma.dim, gma.center.zdim
    mu = sol[: zdim * d].reshape(d, zdim).T.copy()
    nu = symmetric_from_pairs(gma.ring, d, sol[zdim * d :].reshape(-1, zdim))
    return mu, nu


@dataclass(eq=False)
class GenericDecomposition:
    status: str  # "ok" | "not-proper"
    form: ProperTraceForm | None
    mode: str
    route: str
    report: object  # HypothesisReport


def decompose_trace_generic(
    q: BilinearMapRep,
    gma: GMA,
    mode: str = "centralizing",
    system: _GenericSystem | None = None,
    report=None,
) -> GenericDecomposition:
    """Solve the exact linear system for (z, mu, nu) and verify reconstruction.

    The entry predicate for `mode` must hold (raised otherwise, witness
    attached).  A `not-proper` outcome is legitimate only off-hypothesis;
    the attached hypothesis report says which route, if any, applied.
    """
    if system is not None and system.gma is not gma:
        raise MapError("the generic system was built for another algebra")
    if mode == "centralizing":
        ok, w = is_centralizing_trace(gma, q)
    elif mode == "commuting":
        ok, w = is_commuting_trace(gma, q)
    else:
        raise MapError(f"unknown mode {mode!r}")
    if not ok:
        raise PredicateNotSatisfied(f"trace is not {mode}", witness=w)
    if report is None:
        report = gma.report
    if system is None:
        system = gma.generic_system
    t, L = q.lifted
    rhs = pair_coefficients(gma.ring, t).reshape(system.matrix.shape[0])
    sol, L, ok = system.factor.solve_lifted(rhs, L)
    if not ok:
        return GenericDecomposition("not-proper", None, mode, report.route, report)
    form = _solution_to_form(gma, _unlift(gma.ring, sol, L))
    if not form.matches(gma, q):
        raise ExactError("generic solution failed reconstruction (internal)")
    return GenericDecomposition("ok", form, mode, report.route, report)


# ---------------------------------------------------------------------------
# the constructive witness chain
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ConstructiveWitness:
    """The extraction data of the component chain.

    kappa lives in B, theta in A; alpha, tau, gamma are matrices whose
    columns are values on basis vectors of M, N, B (all valued in Z(A));
    gamma_prime likewise A -> Z(B); delta and eta are bilinear tensors
    valued in Z(A); epsilon + epsilon' assemble the z of the proper form.
    side records which corner drove the gamma / gamma' solve.
    """

    kappa: np.ndarray
    theta: np.ndarray
    alpha: np.ndarray  # (dimA, dimM)
    tau: np.ndarray  # (dimA, dimN)
    gamma: np.ndarray  # (dimA, dimB)
    gamma_prime: np.ndarray  # (dimB, dimA)
    delta: np.ndarray  # (dimA, dimB, dimA)
    eta: np.ndarray  # (dimA, dimM, dimA)
    epsilon: np.ndarray  # in A
    epsilon_prime: np.ndarray  # in B
    side: str  # "A" | "B" | "fallback"


def _moved(v, axes=None):
    """np.transpose of lifted v."""
    return np.transpose(v[0], axes), v[1]


def _values(ring, v):
    """The ring values of lifted v, as a C-ordered array."""
    n = _unlift(ring, *v)
    return n if n.flags.c_contiguous else n.copy()


def _diag_rows(gma: GMA, a, b):
    """embed_diag on lifted stacks of A- and B-corner vectors, lifted."""
    (na, nb), L = _common(a, b)
    out = np.zeros(na.shape[:-1] + (gma.dim,), dtype=gma.ring.dtype)
    out[..., gma.block_slice(0)] = na
    out[..., gma.block_slice(3)] = nb
    return out, L


def _rows_by_block(gma: GMA, width: int, parts: dict):
    """A lifted (dim, width) array whose rows in block b are the lifted
    parts[b], zero in every other block."""
    ns, L = _common(*parts.values())
    out = np.zeros((gma.dim, width), dtype=gma.ring.dtype)
    for block, n in zip(parts, ns):
        out[gma.block_slice(block)] = n
    return out, L


def _first_failed_check(checks):
    """(stage, message) of the first failing check, or None.  checks are
    (stage, message, failed) with failed masks of one shape over the items
    a loop would visit: items count in row-major order and, on one item,
    the checks in the order given."""
    failed = np.stack([np.asarray(f) for _, _, f in checks])
    any_failed = failed.any(axis=0)
    if not any_failed.any():
        return None
    item = np.unravel_index(np.argmax(any_failed), any_failed.shape)
    return checks[int(np.argmax(failed[(slice(None),) + item]))][:2]


def _central_multiples(C: CenterData, alg, name: str, targets):
    """For each stack targets[k] (lifted; one vector per basis element e_i
    of alg), the central c = sum_u c_u zeta_u, zeta_u the canonical rows
    `name` of C (Z(alg)), with c e_i = targets[k, i] modulo Z(alg) for
    every i: (c per k as lifted rows, mask of the k without one).  The
    annihilator Q of Z(alg), lifted in C, reads each equation modulo the
    span; its scale multiplies both sides, so the numerators serve.  The
    system in the c_u depends only on alg, so it is built and factored once
    per algebra."""
    ring = C.ring
    z, Lz, _, Q = C.lifted[name]

    def build():
        ze, L = _lift(ring, ring.tensordot(getattr(C, name), alg.mul, axes=([1], [0])))
        coeff = np.transpose(_contract(ring, ze, Q, axes=([2], [1])), (1, 2, 0))  # [i, q, u]
        return FactoredMatrix(ring, _unlift(ring, coeff.reshape(-1, z.shape[0]), L))

    factor = alg.cached("central_multiples", build)
    t, lt = targets
    rhs = _contract(ring, t, Q, axes=([2], [1]))
    x, L, ok = factor.solve_lifted(rhs.reshape(rhs.shape[0], -1), lt)
    return _td(ring, (x, L), (z, Lz), axes=([1], [0])), ~ok


_ESCAPES = "value escapes the projected center"
_OFF_PHI = "phi argument outside pi_A(Z)"
_OFF_PHI_INV = "phi^-1 argument outside pi_B(Z)"


def extract_constructive_witness(
    q: BilinearMapRep,
    gma: GMA,
    grid: ComponentGrid | None = None,
    report=None,
) -> ConstructiveWitness:
    """Run the component chain and return its data, verifying every
    centrality membership on the way.

    The gamma / gamma' solves are keyed on which corner is noncommutative:
    a noncommutative A pins gamma uniquely on the A side; otherwise a
    noncommutative B pins gamma' on the B side and gamma follows by the
    dual formula.  (With both corners commutative every choice is central;
    the canonical zero solution is used and the final nu-centrality check
    downstream has the last word.)

    Each link runs on all basis vectors at once; where several fail, the
    error names the first in the order of a loop over the basis.
    """
    if grid is None:
        grid = extract_components(q, gma)
    if report is None:
        report = gma.report
    return _witness(gma.ring, *_witness_chain(gma, grid, report))


def _witness_chain(gma: GMA, grid: ComponentGrid, report):
    """The chain of extract_constructive_witness on lifted values
    (exact._lift): (its fields but side, lifted, by name; side).
    Every span test decides on integers."""
    ring, C = gma.ring, gma.center
    T = gma.lifted
    dA, dM, dN, dB = gma.dims
    td = partial(_td, ring)
    uA, uB = T["A.unit"], T["B.unit"]

    def check(*checks):
        failure = _first_failed_check(checks)
        if failure is not None:
            raise WitnessExtractionError(*failure, report)

    def at_units(kind, block, unit):
        """C_bb(1, 1), the unit of corner b in both slots."""
        return td(unit, td(unit, grid.part(kind, block, block), ([0], [0])), ([0], [0]))

    fwd, inside = C.corner_rows_lifted(True, at_units("f", 0, uA))
    check(("kappa", _OFF_PHI, ~inside))
    kappa = _sub(ring, fwd, at_units("k", 0, uA))
    back, inside = C.corner_rows_lifted(False, at_units("k", 3, uB))
    check(("theta", _OFF_PHI_INV, ~inside))
    theta = _sub(ring, back, at_units("f", 3, uB))

    def unit_column_values(block, stage):
        """f(1_A, e_j) - phi^-1(k(1_A, e_j)) for the basis of M (1) or N (2),
        as columns."""
        f = td(uA, grid.part("f", 0, block), ([0], [0]))
        back, inside = C.corner_rows_lifted(False, td(uA, grid.part("k", 0, block), ([0], [0])))
        vals = _sub(ring, f, back)
        check(
            (stage, _OFF_PHI_INV, ~inside),
            (stage + "-centrality", _ESCAPES, C.outside_lifted("z_a", vals)),
        )
        return _moved(vals)

    alpha = unit_column_values(1, "alpha")
    tau = unit_column_values(2, "tau")

    f14 = grid.part("f", 0, 3)  # (dA, dB, dA)
    k14 = grid.part("k", 0, 3)  # (dA, dB, dB)

    def rest_a(gamma):  # [i, t] = f14(a1, a4) - gamma(a4) a1
        return _sub(ring, f14, _moved(td(gamma, T["A.mul"], ([0], [0])), (1, 0, 2)))

    def rest_b(gamma_prime):  # [i, t] = k14(a1, a4) - gamma'(a1) a4
        return _sub(ring, k14, td(gamma_prime, T["B.mul"], ([0], [0])))

    a_noncomm = C.z_a.shape[0] < dA
    if a_noncomm or not C.z_b.shape[0] < dB:
        side = "A" if a_noncomm else "fallback"
        sols, failed = _central_multiples(C, gma.ctx.A, "z_a", _moved(f14, (1, 0, 2)))
        check(("gamma-solve", "inconsistent system", failed))
        gamma = _moved(sols)
        delta = ra = rest_a(gamma)
        fwd, inside = C.corner_rows_lifted(True, td(uB, delta, ([0], [1])))
        vals = _sub(ring, td(uB, k14, ([0], [1])), fwd)
        check(
            ("gamma-prime", _OFF_PHI, ~inside),
            ("gamma-prime-centrality", _ESCAPES, C.outside_lifted("z_b", vals)),
        )
        gamma_prime = _moved(vals)
        rb = rest_b(gamma_prime)
    else:
        side = "B"
        sols, failed = _central_multiples(C, gma.ctx.B, "z_b", k14)
        gamma_prime = _moved(sols)
        rb = rest_b(gamma_prime)
        delta, inside = C.corner_rows_lifted(False, rb)
        check(
            ("gamma-prime-solve", "inconsistent system", failed),
            ("delta", _OFF_PHI_INV, ~inside.all(axis=1)),
        )
        vals = _sub(ring, td(uA, f14, ([0], [0])), td(uA, delta, ([0], [0])))
        check(("gamma-centrality", _ESCAPES, C.outside_lifted("z_a", vals)))
        gamma = _moved(vals)
        ra = rest_a(gamma)

    # the side not fixed by construction still must satisfy its relation
    check(
        ("f14-shape", "f14 - gamma(a4)a1 escapes Z(A)", C.outside_lifted("z_a", ra)),
        ("k14-shape", "k14 - gamma'(a1)a4 escapes Z(B)", C.outside_lifted("z_b", rb)),
    )

    epsilon = _sub(ring, theta, td(gamma, uB, ([1], [0])))
    epsilon_prime = _sub(ring, kappa, td(gamma_prime, uA, ([1], [0])))
    if not C.span_lifted("z_g", _diag_rows(gma, epsilon, epsilon_prime))[1]:
        raise WitnessExtractionError(
            "epsilon-pair", "epsilon + epsilon' is not central in G", report
        )

    # [i, j] = f12(a1, a2) - alpha(a2) a1
    eta = _sub(ring, grid.part("f", 0, 1), _moved(td(alpha, T["A.mul"], ([0], [0])), (1, 0, 2)))
    check(("eta-centrality", _ESCAPES, C.outside_lifted("z_a", eta)))

    fields = dict(
        kappa=kappa, theta=theta, alpha=alpha, tau=tau, gamma=gamma,
        gamma_prime=gamma_prime, delta=delta, eta=eta, epsilon=epsilon,
        epsilon_prime=epsilon_prime,
    )
    return fields, side


def _witness(ring, lifted: dict, side: str) -> ConstructiveWitness:
    """The ConstructiveWitness of the chain's lifted fields."""
    f = {name: _values(ring, v) for name, v in lifted.items()}
    return ConstructiveWitness(side=side, **f)


def witness_shape_report(grid: ComponentGrid, w: ConstructiveWitness) -> dict:
    """The component shape laws, each checked exactly on all basis pairs:
    the left sides are the grid's components, the right sides one
    contraction each."""
    ring = grid.gma.ring
    names = ("gamma", "gamma_prime", "epsilon", "epsilon_prime")
    return _shape_laws(grid, {name: _lift(ring, getattr(w, name)) for name in names})


def _shape_laws(grid: ComponentGrid, w: dict) -> dict:
    """witness_shape_report on the lifted witness fields w, by name; each
    law decides on integers."""
    gma = grid.gma
    ring, C = gma.ring, gma.center
    T = gma.lifted
    td = partial(_td, ring)
    dA, dM, dN, dB = gma.dims

    # phi applications can fall outside the projected center on degenerate
    # inputs; that simply fails the law being checked
    gp_back, back_ok = C.corner_rows_lifted(False, _moved(w["gamma_prime"]))  # rows a1
    g_fwd, fwd_ok = C.corner_rows_lifted(True, _moved(w["gamma"]))  # rows a4
    eps_a = td(w["epsilon"], T["A.mul"], ([0], [0]))  # [a1] = eps a1
    eps_b = td(w["epsilon_prime"], T["B.mul"], ([0], [0]))  # [a4] = eps' a4
    coef_a = _add(ring, eps_a, gp_back)  # eps a1 + phi^-1(gamma'(a1))
    coef_b = _add(ring, eps_b, g_fwd)  # eps' a4 + phi(gamma(a4))

    def law(lhs, rhs, *phis_ok):
        return all(bool(ok.all()) for ok in phis_ok) and _scaled_equal(ring, *lhs, *rhs)

    out = {}
    # g12(a1,a2) = (eps a1 + phi^-1(gamma'(a1))) a2
    out["g12-shape"] = not dM or law(
        grid.part("g", 0, 1), td(coef_a, T["M.left"], ([1], [0])), back_ok
    )
    # g24(a2,a4) = a2 (eps' a4 + phi(gamma(a4)))
    out["g24-shape"] = not dM or law(
        grid.part("g", 1, 3),
        _moved(td(T["M.right"], coef_b, ([1], [1])), (0, 2, 1)),
        fwd_ok,
    )
    if dN:
        # h13(a1,a3) = a3 eps a1 + gamma'(a1) a3
        out["h13-shape"] = law(
            grid.part("h", 0, 2),
            _add(
                ring,
                _moved(td(T["N.right"], eps_a, ([1], [1])), (2, 0, 1)),
                td(w["gamma_prime"], T["N.left"], ([0], [0])),
            ),
        )
        # h34(a3,a4) = (eps' a4 + phi(gamma(a4))) a3
        out["h34-shape"] = law(
            grid.part("h", 2, 3),
            _moved(td(coef_b, T["N.left"], ([1], [0])), (1, 0, 2)),
            fwd_ok,
        )
        # k23(a2,a3) - eps' a3 a2 central in B
        eps_nm = td(_moved(T["pairing_NM"], (1, 0, 2)), eps_b, ([2], [0]))
        k23 = _sub(ring, grid.part("k", 1, 2), eps_nm)
        out["k23-centrality"] = not C.outside_lifted("z_b", k23).any()
        # f23(a2,a3) - eps a2 a3 central in A
        eps_mn = td(T["pairing_MN"], eps_a, ([2], [0]))
        f23 = _sub(ring, grid.part("f", 1, 2), eps_mn)
        out["f23-centrality"] = not C.outside_lifted("z_a", f23).any()
    # f22 + k22 and f33 + k33 land in Z(G)  (checked as polarized pairs)
    for block, name in ((1, "f22k22-central"), (2, "f33k33-central")):
        f, k = grid.part("f", block, block), grid.part("k", block, block)
        pairs = _diag_rows(
            gma,
            _add(ring, f, _moved(f, (1, 0, 2))),
            _add(ring, k, _moved(k, (1, 0, 2))),
        )
        out[name] = bool(C.span_lifted("z_g", pairs)[1].all())
    out["g-pattern"] = grid.pattern_violation is None or grid.pattern_violation[0] != "g"
    out["h-pattern"] = grid.pattern_violation is None or grid.pattern_violation[0] != "h"
    return out


@dataclass(eq=False)
class ConstructiveDecomposition:
    status: str  # "ok" | "violation-candidate"
    form: ProperTraceForm | None
    witness: ConstructiveWitness | None
    shape_report: dict | None
    violation: dict | None  # stage/details when status != ok
    route: str
    report: object


def decompose_trace_constructive(
    q: BilinearMapRep, gma: GMA, report=None
) -> ConstructiveDecomposition:
    """Assemble (z, mu, nu) from the constructive witness.

    nu is defined as the remainder T_q - z x^2 - mu(x) x and must come out
    central-valued coefficientwise; if it does not, the instance (which
    passed every earlier check) is handed back as a violation candidate
    with the offending pair attached — never silently accepted.
    """
    ring, C = gma.ring, gma.center
    ok, wit = is_centralizing_trace(gma, q)
    if not ok:
        raise PredicateNotSatisfied("trace is not centralizing", witness=wit)
    if report is None:
        report = gma.report
    # q is lifted once; the chain, mu and nu run on integers over Q, and
    # only the returned witness, form and violation are built as ring values
    qt = q.lifted
    grid = _component_grid(gma, qt, True)
    w, side = _witness_chain(gma, grid, report)
    td = partial(_td, ring)
    dA, dM, dN, dB = gma.dims
    d = gma.dim

    z_vec = _diag_rows(gma, w["epsilon"], w["epsilon_prime"])

    # mu(e_c) for every basis vector at once: the A-corner value
    # gamma(a4) + alpha(a2) + tau(a3) and the B-corner value gamma'(a1),
    # each completed to the other corner through phi or phi^-1
    a_vals = _rows_by_block(
        gma, dA, {1: _moved(w["alpha"]), 2: _moved(w["tau"]), 3: _moved(w["gamma"])}
    )
    b_vals = _rows_by_block(gma, dB, {0: _moved(w["gamma_prime"])})
    back, back_ok = C.corner_rows_lifted(False, b_vals)
    fwd, fwd_ok = C.corner_rows_lifted(True, a_vals)
    mu_rows, central = C.span_lifted(
        "z_g", _diag_rows(gma, _add(ring, back, a_vals), _add(ring, b_vals, fwd))
    )
    failure = _first_failed_check(
        (
            ("mu-assembly", "witness value outside the projected center", ~(back_ok & fwd_ok)),
            ("mu-assembly", "mu value not central", ~central),
        )
    )
    if failure is not None:
        raise WitnessExtractionError(*failure, report)
    mu = _moved(mu_rows)  # (zdim, d)

    # nu := T_q - z x^2 - mu(x) x, coefficientwise on every pair at once
    mul = gma.lifted["mul"]
    pairs = _product_tensors(gma)["pairs"]  # e_i e_j + e_j e_i (diag: e_i^2)
    z_sym = td(pairs, td(z_vec, mul, ([0], [0])), ([1], [0]))
    mu_e = td(td(mu, C.lifted["z_g"][:2], ([0], [0])), mul, ([1], [0]))  # mu(e_i) e_j
    resid = _sub(
        ring,
        _sub(ring, (pair_coefficients(ring, qt[0]), qt[1]), z_sym),
        (pair_coefficients(ring, mu_e[0]), mu_e[1]),
    )
    nu_rows, central = C.span_lifted("z_g", resid)
    shape_report = _shape_laws(grid, w)
    witness = _witness(ring, w, side)
    if not central.all():
        n = int(np.argmax(~central))
        return ConstructiveDecomposition(
            "violation-candidate",
            None,
            witness,
            shape_report,
            {
                "stage": "nu-centrality",
                "pair": pair_index_order(d)[n],
                "residual": _unlift(ring, resid[0][n], resid[1]).tolist(),
                "q": q.tensor.tolist(),
            },
            report.route,
            report,
        )
    nu = symmetric_from_pairs(ring, d, _unlift(ring, *nu_rows))
    form = ProperTraceForm(_values(ring, C.span_lifted("z_g", z_vec)[0]), _values(ring, mu), nu)
    if not form.matches(gma, q):
        raise ExactError("constructive form failed reconstruction (internal)")
    return ConstructiveDecomposition(
        "ok", form, witness, shape_report, None, report.route, report
    )


# ---------------------------------------------------------------------------
# Lie triple isomorphism splitting
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class LieTripleDecomposition:
    status: str  # "ok" | "failed" | "ambiguous"
    lam: int | None
    m: LinearMapRep | None
    n: LinearMapRep | None
    mu1: np.ndarray | None  # (zdim', dim') center coords of mu_1
    nu1: np.ndarray | None  # (dim', dim', zdim')
    checks: dict
    report: object
    detail: str = ""


def decompose_lie_triple_iso(
    l: LinearMapRep, src: GMA, dst: GMA, report=None
) -> LieTripleDecomposition:
    """Split an invertible second-commutator-preserving map as l = lam*m + n.

    Pipeline: pull the product of src through l to the bilinear map
    q(y, z) = l(l^-1(y) l^-1(z)) on dst; its trace must be centralizing;
    for each sign solve T_q(y) = lam*y^2 + mu1(y)y + nu1(y) with mu1, nu1
    valued in Z(dst); exactly one consistent sign is expected (two is an
    ambiguity worth reporting, zero a failure), and m = lam*l + mu/2 must
    then be a Jordan homomorphism with the usual side conditions.  The
    result carries `report`, dst's hypothesis report (``dst.report`` when
    none is given).
    """
    ring = dst.ring
    if l.matrix.shape != (dst.dim, src.dim):
        raise MapError("map shape does not match the algebras")
    linv = inverse_array(ring, l.matrix)
    if linv is None:
        raise MapError("the map is not invertible")
    ok, wit = is_lie_triple_hom(src, dst, l)
    if not ok:
        raise PredicateNotSatisfied("map does not preserve second commutators", witness=wit)

    if report is None:
        report = dst.report
    C = dst.center
    # q[i, j, :] = l(l^-1(e_i) l^-1(e_j))
    t = ring.tensordot(linv, dst.mul, axes=([0], [0]))
    t = ring.tensordot(linv, t, axes=([0], [1]))
    t = np.transpose(t, (1, 0, 2))
    qt = ring.tensordot(t, l.matrix, axes=([2], [1]))
    q = BilinearMapRep(ring, qt)
    checks = {}
    cent_ok, cent_wit = is_centralizing_trace(dst, q)
    checks["trace-centralizing"] = cent_ok
    if not cent_ok:
        return LieTripleDecomposition(
            "failed", None, None, None, None, None, checks, report,
            "pulled-back square map is not centralizing",
        )

    system = dst.generic_system
    z_cols = system.matrix[:, : C.zdim]
    vals = pair_coefficients(dst.ring, q.tensor).reshape(system.matrix.shape[0])
    unit_coords = C.center_coords(dst.unit)
    solutions = {}
    for lam in (1, -1):
        if unit_coords is None:
            break
        rhs = ring.normalize(
            vals - ring.tensordot(z_cols, unit_coords * ring.coerce(lam), axes=([1], [0]))
        )
        sol = system.mu_nu_factor.solve(rhs)
        if sol is not None:
            solutions[lam] = sol
    checks["plus-consistent"] = 1 in solutions
    checks["minus-consistent"] = -1 in solutions
    if not solutions:
        return LieTripleDecomposition(
            "failed", None, None, None, None, None, checks, report,
            "no sign admits central (mu1, nu1)",
        )
    if len(solutions) == 2:
        return LieTripleDecomposition(
            "ambiguous", None, None, None, None, None, checks, report,
            "both signs admit central (mu1, nu1); "
            "uniqueness of the sign fails on this instance",
        )
    lam = next(iter(solutions))
    mu1, nu1 = _unpack_mu_nu(dst, solutions[lam])

    # mu = mu1 . l   (as a map into dst coordinates), m = lam*l + mu/2
    mu_center = ring.tensordot(mu1, l.matrix, axes=([1], [0]))  # (zdim, dim src)
    mu_mat = ring.tensordot(C.z_g.T, mu_center, axes=([1], [0]))  # (dim', dim src)
    lam_c = ring.coerce(lam)
    m_mat = ring.normalize(l.matrix * lam_c + mu_mat * ring.half)
    n_mat = ring.normalize(l.matrix - m_mat * lam_c)
    m = LinearMapRep(ring, m_mat)
    n = LinearMapRep(ring, n_mat)

    jordan_ok, _ = is_jordan_hom(src, dst, m)
    checks["m-jordan"] = jordan_ok
    m_rank = rank_array(ring, m_mat)
    checks["m-injective"] = m_rank == src.dim
    checks["n-central"] = ring.is_zero(
        ring.tensordot(C.annihilator, n_mat, axes=([1], [0]))
    )
    nvan, _ = vanishes_on_second_commutators(src, n)
    checks["n-kills-second-commutators"] = nvan
    checks["splitting-identity"] = ring.equal(
        ring.normalize(m_mat * lam_c + n_mat), l.matrix
    )
    if report.central_over_R:
        checks["m-unit-to-unit"] = ring.equal(m.apply(src.unit), dst.unit)
        checks["m-surjective"] = m_rank == dst.dim
    # the two sign-consistency entries are bookkeeping, not pass conditions
    required = [k for k in checks if k not in ("plus-consistent", "minus-consistent")]
    status = "ok" if all(checks[k] for k in required) else "failed"
    return LieTripleDecomposition(
        status, lam, m, n, mu1, nu1, checks, report,
        "" if status == "ok" else "a side condition failed",
    )


# ---------------------------------------------------------------------------
# seeded generators
# ---------------------------------------------------------------------------


def random_proper_trace(gma: GMA, seed: int) -> BilinearMapRep:
    """q(x,y) = z(xy+yx)/2 + (mu(x)y + mu(y)x)/2 + nu_b(x,y) with z central
    and mu, nu_b center-valued, drawn from the seeded stream.  Its trace is
    z x^2 + mu(x) x + nu_b(x,x) — proper by construction, hence commuting."""
    ring, d = gma.ring, gma.dim
    stream = XorShift64Star(seed)
    zdim = gma.center.zdim

    def draw():
        return ring.array([ring.random_scalar(stream) for _ in range(zdim)])

    z = draw()
    mu = ring.zeros((zdim, d))  # column i: mu(e_i) in center coordinates
    for i in range(d):
        mu[:, i] = draw()
    nu = ring.zeros((d, d, zdim))
    for i in range(d):
        for j in range(i, d):
            nu[i, j] = nu[j, i] = draw()
    return BilinearMapRep(ring, ProperTraceForm(z, mu, nu).sym_tensor(gma))


def random_lie_triple_iso(gma: GMA, seed: int, shape: str = "conjugation") -> LinearMapRep:
    """Seeded Lie triple isomorphisms of gma, drawn from the algebra itself.

    shapes: "conjugation" sigma(x) = u x u^-1 for a seeded unit u of gma,
    "neg-conjugation" -sigma, "central-shift" sigma(x) + tau(x) 1 with tau a
    seeded nonzero functional that kills every second commutator, and
    "neg-antiauto" x -> -x^T, the one shape that needs a full-matrix split
    instance.  det(I + 1 tau^T) = 1 + tau(1), so tau is drawn again while
    tau(1) = -1.  u is drawn first: a seed's "conjugation" is the Jordan part
    of its "neg-conjugation" and "central-shift".  The emitted map is verified
    invertible and second-commutator-preserving.
    """
    ring, d = gma.ring, gma.dim
    if shape == "neg-antiauto":
        meta = gma.ctx.meta
        if meta.get("builder") != "full_matrix":
            raise MapError("neg-antiauto needs a full-matrix split instance")
        positions = full_matrix_positions(meta["n"], meta["k"])
        coord = {rc: i for i, rc in enumerate(positions)}
        mat = ring.zeros((d, d))
        mat[[coord[c, r] for r, c in positions], np.arange(d)] = ring.neg(ring.one)
    elif shape in ("conjugation", "neg-conjugation", "central-shift"):
        stream = XorShift64Star(seed)
        for _ in range(64):
            u = ring.array([ring.random_scalar(stream) for _ in range(d)])
            left = gma.left_mult_matrix(u)
            left_inv = inverse_array(ring, left)
            if left_inv is not None:
                break
        else:
            raise ExactError("no unit found in 64 draws")
        u_inv = ring.tensordot(left_inv, gma.unit, axes=([1], [0]))
        mat = ring.tensordot(left, gma.right_mult_matrix(u_inv), axes=([1], [0]))
        if shape == "neg-conjugation":
            mat = ring.normalize(-mat)
        elif shape == "central-shift":
            S, L = _second_commutator_tensor(gma)
            taus = nullspace_array(ring, _unlift(ring, S.reshape(-1, d), L))
            for _ in range(64):
                c = ring.array([ring.random_scalar(stream) for _ in range(len(taus))])
                tau = ring.tensordot(c, taus, axes=([0], [0]))
                tau_one = ring.tensordot(tau, gma.unit, axes=([0], [0]))
                if not ring.is_zero(tau) and not ring.is_zero(tau_one + ring.one):
                    break
            else:
                raise ExactError("no nonzero tau with tau(1) != -1 found in 64 draws")
            mat = ring.normalize(mat + np.multiply.outer(gma.unit, tau))
    else:
        raise MapError(f"unknown shape {shape!r}")
    l = LinearMapRep(ring, mat)
    if inverse_array(ring, l.matrix) is None:
        raise ExactError("generated map is singular (internal)")
    ok, wit = is_lie_triple_hom(gma, gma, l)
    if not ok:
        raise ExactError("generated map fails the second-commutator predicate (internal)")
    return l
