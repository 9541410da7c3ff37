"""The two decomposition paths for centralizing traces.

The closed-form expectations for T_q(x) = x^2 (q = the multiplication
itself) were derived by hand: every component chain value collapses to a
unit or to zero, and the proper form is exactly z = 1, mu = 0, nu = 0.
The seeded roundtrips then cross-validate the generic solver against the
constructive extraction on traces that exercise every term.
"""

from collections import Counter

import numpy as np
import pytest

from gmalg import backend
from gmalg.exact import RATIONAL, prime_field
from gmalg.maps import BilinearMapRep, MapError, is_commuting_trace, trace_space
from gmalg.structure import assemble_gma, build_full_matrix, build_upper_triangular
from gmalg.decompose import (
    ComponentPatternError,
    PredicateNotSatisfied,
    build_generic_system,
    decompose_trace_constructive,
    decompose_lie_triple_iso,
    decompose_trace_generic,
    extract_components,
    extract_constructive_witness,
    random_lie_triple_iso,
    random_proper_trace,
    witness_shape_report,
)

F5 = prime_field(5)

SHAPE_KEYS = {
    "g12-shape",
    "g24-shape",
    "h13-shape",
    "h34-shape",
    "k23-centrality",
    "f23-centrality",
    "f22k22-central",
    "f33k33-central",
    "g-pattern",
    "h-pattern",
}


def mul_map(gma):
    return BilinearMapRep(gma.ring, gma.mul)


def sandwich_map(gma, i):
    """q(x, y) = x e_i y — its trace is not centralizing on a full corner."""
    ring = gma.ring
    t = ring.zeros((gma.dim, gma.dim, gma.dim))
    for a in range(gma.dim):
        xe = gma.multiply(gma.basis_vector(a), gma.basis_vector(i))
        for b in range(gma.dim):
            t[a, b] = gma.multiply(xe, gma.basis_vector(b))
    return BilinearMapRep(ring, t)


# ---------------------------------------------------------------------------
# component grids
# ---------------------------------------------------------------------------


def test_components_reassemble_the_trace(m4):
    q = mul_map(m4)
    grid = extract_components(q, m4)
    assert grid.centralizing
    assert grid.pattern_violation is None
    x = F5.array(list(range(1, m4.dim + 1)))
    parts = m4.blocks(x)
    total = F5.zeros(m4.dim)
    for (i, j), t in grid.tensors.items():
        v = F5.tensordot(parts[i], t, axes=([0], [0]))
        total = total + F5.tensordot(parts[j], v, axes=([0], [0]))
    assert F5.equal(total, q.trace_eval(x))


def test_component_blocks_of_multiplication(m4):
    grid = extract_components(mul_map(m4), m4)
    # the polarized (A, M) cell carries a*m' once: m*a' vanishes in G
    a = m4.ctx.A.unit
    m = F5.zeros(m4.ctx.M.dim)
    m[0] = F5.one
    val = grid.evaluate("g", 0, 1, a, m)
    assert F5.equal(val, m4.ctx.M.act_left(a, m))
    # the diagonal (A, A) cell carries a*a' once (the i = j cell is halved)
    assert F5.equal(grid.evaluate("f", 0, 0, a, a), m4.ctx.A.multiply(a, a))


def test_pattern_violation_detected(m4):
    # hand-build a q whose A x A cell leaks into the M block
    ring = m4.ring
    t = ring.zeros((m4.dim, m4.dim, m4.dim))
    msl = m4.block_slice(1)
    t[0, 0, msl.start] = ring.one
    q = BilinearMapRep(ring, t)
    grid = extract_components(q, m4)  # not centralizing: records, no raise
    assert not grid.centralizing
    assert grid.pattern_violation == ("g", 0, 0)
    with pytest.raises(ComponentPatternError):
        extract_components(q, m4, centralizing=True)


# ---------------------------------------------------------------------------
# closed forms for T(x) = x^2
# ---------------------------------------------------------------------------


def test_generic_square_decomposition_on_m4(m4):
    dec = decompose_trace_generic(mul_map(m4), m4)
    assert dec.status == "ok"
    assert dec.route == "main"
    form = dec.form
    assert F5.equal(form.z_vec(m4), m4.unit)
    for i in range(m4.dim):
        assert F5.is_zero(form.mu_vec(m4, m4.basis_vector(i)))
    assert F5.is_zero(form.nu)
    assert form.matches(m4, mul_map(m4))


def test_constructive_square_chain_on_m4(m4):
    ctx = m4.ctx
    dec = decompose_trace_constructive(mul_map(m4), m4)
    assert dec.status == "ok"
    w = dec.witness
    assert w.side == "A"
    assert F5.equal(w.kappa, ctx.B.unit)
    assert F5.equal(w.theta, ctx.A.unit)
    for arr in (w.alpha, w.tau, w.gamma, w.gamma_prime, w.delta, w.eta):
        assert F5.is_zero(arr)
    assert F5.equal(w.epsilon, ctx.A.unit)
    assert F5.equal(w.epsilon_prime, ctx.B.unit)
    assert set(dec.shape_report) == SHAPE_KEYS
    assert all(dec.shape_report.values())
    assert F5.equal(dec.form.z_vec(m4), m4.unit)
    assert F5.equal(dec.form.sym_tensor(m4), mul_map(m4).symmetrize().tensor)


def test_constructive_square_chain_on_t3_runs_through_b(t3):
    # the A corner of the 1+2 triangular split is 1-dimensional, so the
    # noncommutativity needed to pin gamma lives on the B side
    dec = decompose_trace_constructive(mul_map(t3), t3)
    assert dec.status == "ok"
    assert dec.witness.side == "B"
    assert all(dec.shape_report.values())
    gen = decompose_trace_generic(mul_map(t3), t3)
    assert gen.route == "corner"
    assert F5.equal(gen.form.sym_tensor(t3), dec.form.sym_tensor(t3))


# ---------------------------------------------------------------------------
# seeded roundtrips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 42])
def test_seeded_roundtrip_m4(m4, seed):
    q = random_proper_trace(m4, seed)
    sym = q.symmetrize().tensor
    gen = decompose_trace_generic(q, m4)
    con = decompose_trace_constructive(q, m4)
    assert gen.status == "ok" and con.status == "ok"
    assert F5.equal(gen.form.sym_tensor(m4), sym)
    assert F5.equal(con.form.sym_tensor(m4), sym)
    assert all(con.shape_report.values())


@pytest.mark.parametrize("seed", [1, 42])
def test_seeded_roundtrip_rational_t3(seed):
    t3q = assemble_gma(build_upper_triangular(3, 1, RATIONAL))
    ring = t3q.ring
    q = random_proper_trace(t3q, seed)
    sym = q.symmetrize().tensor
    gen = decompose_trace_generic(q, t3q)
    con = decompose_trace_constructive(q, t3q)
    assert gen.status == "ok" and con.status == "ok"
    assert ring.equal(gen.form.sym_tensor(t3q), sym)
    assert ring.equal(con.form.sym_tensor(t3q), sym)


def test_random_proper_trace_is_seed_stable(m4):
    a = random_proper_trace(m4, 7)
    b = random_proper_trace(m4, 7)
    c = random_proper_trace(m4, 8)
    assert F5.equal(a.tensor, b.tensor)
    assert not F5.equal(a.tensor, c.tensor)
    # proper by construction means commuting, not merely centralizing
    assert is_commuting_trace(m4, a)[0]


def test_generic_solver_accepts_commuting_mode(t3):
    q = random_proper_trace(t3, 3)
    dec = decompose_trace_generic(q, t3, mode="commuting")
    assert dec.status == "ok"
    assert F5.equal(dec.form.sym_tensor(t3), q.symmetrize().tensor)


def test_shared_system_matches_fresh_solves(t3):
    system = build_generic_system(t3)
    for seed in (2, 3):
        q = random_proper_trace(t3, seed)
        a = decompose_trace_generic(q, t3, system=system)
        b = decompose_trace_generic(q, t3)
        assert F5.equal(a.form.sym_tensor(t3), b.form.sym_tensor(t3))


def count_reductions(monkeypatch):
    """Record the shape of every matrix the elimination kernel reduces."""
    shapes = []
    rref = backend.rref

    def counting(ring, a):
        shapes.append(np.shape(a))
        return rref(ring, a)

    monkeypatch.setattr(backend, "rref", counting)
    return shapes


def fresh_m3(split=1):
    gma = assemble_gma(build_full_matrix(3, split, F5))
    gma.report
    return gma


def test_generic_system_is_factored_once_on_first_solve(monkeypatch):
    gma = fresh_m3()
    traces = [random_proper_trace(gma, seed) for seed in range(10)]
    shapes = count_reductions(monkeypatch)
    system = build_generic_system(gma)
    assert shapes == [] and "factor" not in vars(system)
    for q in traces:
        assert decompose_trace_generic(q, gma, system=system, report=gma.report).status == "ok"
    # the transpose of K's distinct nonzero rows, then [K_S | I]
    cols = system.matrix.shape[1]
    assert len(shapes) == 2 and shapes[0][0] == cols and shapes[1] == (cols, 2 * cols)


def test_lie_triple_splits_factor_the_mu_nu_columns_once(monkeypatch):
    gma = fresh_m3()
    maps = [random_lie_triple_iso(gma, seed) for seed in (1, 2, 3)]
    shapes = count_reductions(monkeypatch)
    for l in maps:
        assert decompose_lie_triple_iso(l, gma, gma).status == "ok"
    d, r = gma.dim, gma.generic_system.matrix.shape[1] - 1
    # per split: the inverse of l and the rank of m
    per_split = Counter(shapes)
    assert per_split.pop((d, 2 * d)) == 3 and per_split.pop((d, d)) == 3
    # once: the factorization of the (mu, nu) columns
    factored = [s for s in shapes if s[0] == r]
    assert len(per_split) == len(factored) == 2 and factored[1] == (r, 2 * r)
    assert "factor" not in vars(gma.generic_system)


# ---------------------------------------------------------------------------
# the per-algebra cache
# ---------------------------------------------------------------------------


def cached_arrays(gma):
    """Every array the per-algebra caches of gma, its corners and its
    center hold, by where it was found."""
    found = {}

    def collect(where, value):
        if isinstance(value, np.ndarray):
            found[where] = value
        elif isinstance(value, (tuple, list)):
            for i, v in enumerate(value):
                collect(f"{where}[{i}]", v)
        elif isinstance(value, dict):
            for k, v in value.items():
                collect(f"{where}[{k!r}]", v)

    for name, owner in (("gma", gma), ("A", gma.ctx.A), ("B", gma.ctx.B)):
        collect(f"{name}.cache", vars(owner).get("cache", {}))
    collect("gma.lifted", vars(gma).get("lifted", {}))
    collect("center.lifted", vars(gma.center).get("lifted", {}))
    return found


@pytest.mark.parametrize(
    "ring, n, k", [(F5, 4, 2), (RATIONAL, 3, 1), (F5, 3, 2)], ids=["m4-f5", "m3-q", "m3-f5-split2"]
)
def test_the_cache_is_built_on_first_use_and_read_only(ring, n, k):
    gma = assemble_gma(build_full_matrix(n, k, ring))
    gma.center
    # the center is computed without the cache: set-up does not build it
    assert cached_arrays(gma) == {}
    q = random_proper_trace(gma, seed=3)
    for route in (decompose_trace_generic, decompose_trace_constructive):
        assert route(q, gma).status == "ok"
    l = random_lie_triple_iso(gma, 3)
    assert decompose_lie_triple_iso(l, gma, gma).status == "ok"
    found = cached_arrays(gma)
    assert {"gma.lifted['mul'][0]", "center.lifted['z_g'][3]"} <= set(found)
    # Z(A), Z(B) and their annihilators live in the center's cache; a
    # corner's cache holds the factored gamma system built from them
    assert {"center.lifted['z_a'][3]", "center.lifted['z_b'][3]"} <= set(found)
    assert any("central_multiples" in vars(c).get("cache", {}) for c in (gma.ctx.A, gma.ctx.B))
    for where, arr in found.items():
        assert not arr.flags.writeable, where
        if arr.size:
            with pytest.raises(ValueError):
                arr.reshape(-1)[0] = arr.reshape(-1)[0]
    if ring.is_prime_field:
        # over F_p the lift is the identity: the same arrays, not copies
        assert gma.lifted["mul"][0] is gma.mul and gma.lifted["mul"][1] == 1
        assert gma.lifted["A.unit"][0] is gma.ctx.A.unit
        assert gma.center.lifted["z_g"][0] is gma.center.z_g


def test_a_round_trip_runs_one_centralizing_predicate_per_route(monkeypatch):
    """The routes share immutable per-algebra data, never a verdict: each
    still runs its own predicate on its own input, warm cache or not."""
    from gmalg import decompose

    gma = assemble_gma(build_full_matrix(3, 1, RATIONAL))
    calls = []
    predicate = decompose.is_centralizing_trace

    def counted(g, q):
        calls.append(q)
        return predicate(g, q)

    monkeypatch.setattr(decompose, "is_centralizing_trace", counted)
    for seed in (1, 2, 3):
        q = random_proper_trace(gma, seed=seed)
        calls.clear()
        for route in (decompose_trace_generic, decompose_trace_constructive):
            assert route(q, gma).status == "ok"
        assert calls == [q, q]


# ---------------------------------------------------------------------------
# failure paths
# ---------------------------------------------------------------------------


def test_generic_system_of_a_larger_algebra_is_rejected(m4):
    gma = fresh_m3()
    q = random_proper_trace(gma, 4)
    with pytest.raises(MapError, match="another algebra"):
        decompose_trace_generic(q, gma, system=m4.generic_system)


def test_generic_system_of_another_split_is_rejected():
    # same dimension, so the solve would run and wrongly say not-proper
    gma, other = fresh_m3(split=1), fresh_m3(split=2)
    q = random_proper_trace(gma, 4)
    with pytest.raises(MapError, match="another algebra"):
        decompose_trace_generic(q, gma, system=build_generic_system(other))
    assert decompose_trace_generic(q, gma, system=build_generic_system(gma)).status == "ok"


def test_non_centralizing_trace_is_rejected_with_witness(m3):
    q = sandwich_map(m3, 1)
    with pytest.raises(PredicateNotSatisfied) as e:
        decompose_trace_generic(q, m3)
    wit = e.value.witness
    val = q.trace_eval(wit)
    assert m3.center.center_coords(m3.commutator(val, wit)) is None
    with pytest.raises(PredicateNotSatisfied):
        decompose_trace_constructive(q, m3)


def test_witness_extraction_needs_a_centralizing_grid(m3):
    q = mul_map(m3)
    grid = extract_components(q, m3)
    w = extract_constructive_witness(q, m3, grid=grid)
    rep = witness_shape_report(grid, w)
    assert set(rep) == SHAPE_KEYS
    assert all(rep.values())


# ---------------------------------------------------------------------------
# whole-space sweep on a small instance
# ---------------------------------------------------------------------------


def test_every_centralizing_trace_on_t3_decomposes(t3):
    ts = trace_space(t3, mode="centralizing")
    system = build_generic_system(t3)
    for rep in ts.basis:
        dec = decompose_trace_generic(rep, t3, system=system)
        assert dec.status == "ok"
        con = decompose_trace_constructive(rep, t3)
        assert con.status == "ok"
        assert F5.equal(
            con.form.sym_tensor(t3), dec.form.sym_tensor(t3)
        )
