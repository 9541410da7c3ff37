"""The ten acceptance criteria, one test each.

Everything is exact: no tolerances anywhere.  Each criterion is written
against the public API the way an external referee would drive it, and
the conftest hook prints a one-line PASS/FAIL verdict per criterion at
the end of the run.
"""

import time

import numpy as np
import pytest

from gmalg.exact import RATIONAL, prime_field, row_space_equal
from gmalg.center import (
    balanced_pair_space_dim,
    center_multiplier_annihilator_ok,
    center_zero_divisor_free,
    central_jordan_radical,
    check_identity_42,
    check_loyal,
    cube_annihilating_forms_contained,
    hypothesis_report,
)
from gmalg.maps import BilinearMapRep, LinearMapRep, is_centralizing_trace, trace_space
from gmalg.structure import (
    assemble_gma,
    build_diagonal_pair,
    build_full_matrix,
    build_inflated,
    build_peirce,
    build_upper_triangular,
    full_matrix_positions,
    make_matrix_algebra,
)
from gmalg.decompose import (
    build_generic_system,
    decompose_lie_triple_iso,
    decompose_trace_constructive,
    decompose_trace_generic,
    random_lie_triple_iso,
    random_proper_trace,
)

F5 = prime_field(5)

N_SEEDED_TRACES = 100
N_SEEDED_ISOS = 50


def peirce_gma(ring):
    alg = make_matrix_algebra(2, ring)
    e = ring.zeros(4)
    e[0] = ring.one
    ctx, _ = build_peirce(alg, e)
    return assemble_gma(ctx)


def sweep_generic(gma, space):
    """Decompose every basis element of a trace space; all must come back ok."""
    system = build_generic_system(gma)
    for rep in space.basis:
        dec = decompose_trace_generic(rep, gma, system=system)
        assert dec.status == "ok"
        assert dec.form.matches(gma, rep)


@pytest.fixture(scope="module")
def m3_space(m3):
    return trace_space(m3, mode="centralizing")


def test_criterion_01_exhaustive_trace_space_decomposition(m3, m3_space):
    """Every symmetric bilinear map with centralizing trace on the 1+2 split
    of M_3(F_5) admits a proper form, exhaustively over a basis."""
    t0 = time.monotonic()
    assert m3_space.n_rows <= 1320
    assert m3_space.n_cols == 405
    assert m3_space.dim == 55  # 1 + 9 + 45: z, mu and nu coefficients
    sweep_generic(m3, m3_space)
    assert time.monotonic() - t0 < 300


def test_criterion_02_centralizing_equals_commuting(m3, m3_space):
    """On the same instance the centralizing and commuting nullspaces agree
    as subspaces (mutual containment via canonical reduced bases)."""
    commuting = trace_space(m3, mode="commuting")
    assert commuting.dim == m3_space.dim
    assert row_space_equal(F5, m3_space.raw_rows, commuting.raw_rows)
    # canonical bases even coincide row for row
    assert np.array_equal(m3_space.raw_rows, commuting.raw_rows)


def test_criterion_03_seeded_roundtrips_at_scale(m4, t3):
    """100 seeded proper traces on each of M_4(F_5) 2+2 and T_3(F_5) 1+2:
    generic and constructive paths both reconstruct the trace exactly and
    agree with each other as maps."""
    t0 = time.monotonic()
    for gma in (m4, t3):
        system = build_generic_system(gma)
        report = hypothesis_report(gma)
        for seed in range(N_SEEDED_TRACES):
            q = random_proper_trace(gma, seed)
            sym = q.symmetrize().tensor
            gen = decompose_trace_generic(q, gma, system=system, report=report)
            con = decompose_trace_constructive(q, gma, report=report)
            assert gen.status == "ok" and con.status == "ok"
            assert F5.equal(gen.form.sym_tensor(gma), sym)
            assert F5.equal(con.form.sym_tensor(gma), sym)
    assert time.monotonic() - t0 < 300


def test_criterion_04_constructive_witness_sanity(m4):
    """On 100 seeded centralizing traces of M_4(F_5): the forced vanishing
    patterns, the centrality of the diagonal component pair f22 + k22, the
    off-diagonal shape identities, and the centrality of the extracted nu
    all hold exactly."""
    C = m4.center
    report = hypothesis_report(m4)
    for seed in range(N_SEEDED_TRACES):
        q = random_proper_trace(m4, seed)
        dec = decompose_trace_constructive(q, m4, report=report)
        assert dec.status == "ok"
        assert dec.shape_report["g-pattern"] and dec.shape_report["h-pattern"]
        assert dec.shape_report["f22k22-central"] and dec.shape_report["f33k33-central"]
        assert all(dec.shape_report.values())
        # nu is stored in center coordinates; expand and re-verify membership
        form = dec.form
        for i in range(m4.dim):
            for j in range(i, m4.dim):
                v = form.nu_vec(m4, m4.basis_vector(i), m4.basis_vector(j))
                assert C.in_center(v)


def test_criterion_05_lie_triple_pipeline(m3):
    """Conjugations split with sign +1 and zero central part; composing a
    trace shift surfaces n(x) = tr(x)*1 exactly; the negated transpose
    returns sign -1 with the transpose as Jordan part.  In every case m is
    a Jordan isomorphism onto, with m(1) = 1."""
    pos = full_matrix_positions(3, 1)
    coord_of = {rc: i for i, rc in enumerate(pos)}
    tr = F5.zeros(m3.dim)
    for i, (u, v) in enumerate(pos):
        if u == v:
            tr[i] = F5.one
    shift_matrix = F5.normalize(np.outer(m3.unit, tr))

    def side_conditions(dec):
        assert dec.checks["m-jordan"]
        assert dec.checks["m-injective"]
        assert dec.checks["m-unit-to-unit"]
        assert dec.checks["m-surjective"]

    for seed in range(N_SEEDED_ISOS):
        dec = decompose_lie_triple_iso(random_lie_triple_iso(m3, seed, "conjugation"), m3, m3)
        assert dec.status == "ok" and dec.lam == 1
        assert F5.is_zero(dec.n.matrix)
        side_conditions(dec)

    for seed in range(N_SEEDED_ISOS):
        dec = decompose_lie_triple_iso(random_lie_triple_iso(m3, seed, "central-shift"), m3, m3)
        assert dec.status == "ok" and dec.lam == 1
        assert F5.equal(dec.n.matrix, shift_matrix)
        side_conditions(dec)

    tau = F5.zeros((m3.dim, m3.dim))
    for i, (u, v) in enumerate(pos):
        tau[coord_of[(v, u)], i] = F5.one
    dec = decompose_lie_triple_iso(
        LinearMapRep(F5, F5.normalize(-tau)), m3, m3
    )
    assert dec.status == "ok" and dec.lam == -1
    assert F5.is_zero(dec.n.matrix)
    assert F5.equal(dec.m.matrix, tau)
    side_conditions(dec)


def test_criterion_06_second_commutator_identity_dichotomy(t2, m3, m4):
    """[[x^2, y], [x, y]] = 0 identically iff both diagonal blocks are
    commutative: true on T_2, refuted by an evaluable witness on M_3, M_4."""
    ok, wit = check_identity_42(t2)
    assert ok and wit is None
    for gma in (m3, m4):
        ok, wit = check_identity_42(gma)
        assert not ok
        x, y = wit
        defect = gma.commutator(
            gma.commutator(gma.square(x), y), gma.commutator(x, y)
        )
        assert not gma.ring.is_zero(defect)


def test_criterion_07_central_jordan_radical_vanishes_everywhere():
    """The largest Jordan-stable subspace of the center is zero on every
    builder instance.  The 2-dimensional inflation uses the zero form: a
    nonzero symmetric form on dim >= 2 cannot satisfy the pairing
    compatibility, so the zero form is the only lawful inflation there."""
    instances = [
        assemble_gma(build_full_matrix(2, 1, F5)),
        assemble_gma(build_full_matrix(3, 1, F5)),
        assemble_gma(build_full_matrix(4, 2, F5)),
        assemble_gma(build_upper_triangular(2, 1, F5)),
        assemble_gma(build_upper_triangular(3, 1, F5)),
        assemble_gma(build_inflated(F5, 1, F5.eye(1))),
        assemble_gma(build_inflated(F5, 2, F5.zeros((2, 2)))),
        peirce_gma(F5),
    ]
    for gma in instances:
        rad = central_jordan_radical(gma)
        assert rad.shape == (0, gma.dim)


def test_criterion_08_center_analysis_scans(t3, m4):
    """The nullspace / enumeration scans on T_3(F_5) and M_4(F_5): balanced
    pairs vanish, central multipliers are regular, the center has no zero
    divisors, cube-annihilating forms are contained; the center basis is
    verified central and the corner projections are linked by phi.  The
    F_5 x F_5 diagonal pair is flagged non-loyal with the exact witness."""
    for gma in (t3, m4):
        ring, ctx, C = gma.ring, gma.ctx, gma.center
        for z in C.z_g:
            for i in range(gma.dim):
                assert ring.is_zero(gma.commutator(z, gma.basis_vector(i)))
        for i in range(C.pia_image.shape[0]):
            a = C.pia_image[i]
            b = C.phi[:, i]
            for jm in range(ctx.M.dim):
                m = ring.zeros(ctx.M.dim)
                m[jm] = ring.one
                assert ring.equal(ctx.M.act_left(a, m), ctx.M.act_right(m, b))
            for jn in range(ctx.N.dim):
                n = ring.zeros(ctx.N.dim)
                n[jn] = ring.one
                assert ring.equal(ctx.N.act_right(n, a), ctx.N.act_left(b, n))
        assert balanced_pair_space_dim(gma) == 0
        assert center_multiplier_annihilator_ok(gma) is True
        assert center_zero_divisor_free(gma) is True
        assert cube_annihilating_forms_contained(gma) is True

    res = check_loyal(build_diagonal_pair(F5))
    assert res.status == "false"
    a, b = res.witness
    assert F5.equal(a, F5.array([1, 0]))
    assert F5.equal(b, F5.array([0, 1]))


def test_criterion_09_both_rings_and_the_n2_gap(m2, m3, m3_space):
    """Full-matrix and Peirce instances over F_5 and Q pass the applicable
    subsets of criteria 1-4 (the space enumeration is a prime-field
    operation; the Q lane runs the seeded roundtrips and shape laws).  The
    1+1 split of M_2 makes both diagonal blocks commutative, so no
    decomposition route applies; the gap is asserted and the instance is
    still swept empirically - properness holds there regardless."""
    # -- F_5 lane: exhaustive sweeps -----------------------------------
    sweep_generic(m3, m3_space)
    pf5 = peirce_gma(F5)
    pspace = trace_space(pf5, mode="centralizing")
    assert pspace.dim == 14
    sweep_generic(pf5, pspace)
    assert np.array_equal(
        pspace.raw_rows, trace_space(pf5, mode="commuting").raw_rows
    )

    # -- the n = 2 route gap -------------------------------------------
    assert hypothesis_report(m2).route == "none"
    assert hypothesis_report(pf5).route == "none"
    m2_space = trace_space(m2, mode="centralizing")
    assert m2_space.dim == 14
    sweep_generic(m2, m2_space)  # empirically proper despite the gap

    # -- both rings: seeded roundtrips + constructive shape laws -------
    for ring in (F5, RATIONAL):
        for gma in (assemble_gma(build_full_matrix(3, 1, ring)), peirce_gma(ring)):
            system = build_generic_system(gma)
            report = hypothesis_report(gma)
            for seed in range(10):
                q = random_proper_trace(gma, seed)
                sym = q.symmetrize().tensor
                gen = decompose_trace_generic(q, gma, system=system, report=report)
                con = decompose_trace_constructive(q, gma, report=report)
                assert gen.status == "ok" and con.status == "ok"
                assert ring.equal(gen.form.sym_tensor(gma), sym)
                assert ring.equal(con.form.sym_tensor(gma), sym)
                assert all(con.shape_report.values())


def test_criterion_10_suite_determinism(tmp_path):
    """Rerunning the batch suite with identical seeds produces reports that
    are equal byte for byte, on a full-hypothesis instance and on the
    non-loyal control (where properties skip with a reason)."""
    from gmalg.cli import main
    from gmalg.io import save_context

    m3_path = tmp_path / "m3.json"
    save_context(m3_path, build_full_matrix(3, 1, F5))
    diag_path = tmp_path / "diag.json"
    save_context(diag_path, build_diagonal_pair(F5))

    for ctx_path, expect_skips in ((m3_path, False), (diag_path, True)):
        outs = []
        for run in (1, 2):
            out = tmp_path / f"{ctx_path.stem}-run{run}.txt"
            rc = main(["suite", str(ctx_path), "--count", "3", "--seed", "7", "-o", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        text = outs[0].decode()
        assert "0 failed" in text
        if expect_skips:
            assert "SKIP" in text
