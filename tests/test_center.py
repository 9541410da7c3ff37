"""Center computation, the corner-projection isomorphism, loyalty, and
the structural scans feeding the hypothesis report.

Expected values here were worked out by hand for the small instances
(centers of T_2, M_2, commuting maps on M_2) and cross-checked against
independent brute-force enumeration before being frozen.
"""

from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

from gmalg import center
from gmalg.cli import main
from gmalg.exact import RATIONAL, prime_field, rank_array
from gmalg.io import save_context
from gmalg.center import (
    _integer_mul_tensor,
    balanced_pair_space_dim,
    center_multiplier_annihilator_ok,
    center_zero_divisor_free,
    central_jordan_radical,
    check_all_commuting_proper,
    check_faithful,
    check_identity_42,
    check_loyal,
    commuting_linear_space,
    compute_center_algebra,
    cube_annihilating_forms_contained,
    hypothesis_report,
)
from gmalg.structure import (
    assemble_gma,
    build_diagonal_pair,
    build_full_matrix,
    build_inflated,
    build_upper_triangular,
    make_matrix_algebra,
    make_triangular_algebra,
)

F5 = prime_field(5)


# ---------------------------------------------------------------------------
# plain algebra centers
# ---------------------------------------------------------------------------


def test_center_of_t2_is_scalar_diagonal():
    # Z(T_2) = {diag(a, a)}: basis E00, E01, E11 -> the single row (1, 0, 1)
    z = compute_center_algebra(make_triangular_algebra(2, F5))
    assert z.shape == (1, 3)
    assert F5.equal(z, F5.array([[1, 0, 1]]))


def test_center_of_m2_is_scalars():
    z = compute_center_algebra(make_matrix_algebra(2, F5))
    assert z.shape == (1, 4)
    assert F5.equal(z, F5.array([[1, 0, 0, 1]]))


def test_commuting_linear_space_on_m2():
    # scalar multiples + maps into the scalars: 1 + 4 dimensions
    mats = commuting_linear_space(make_matrix_algebra(2, F5))
    assert len(mats) == 5
    rep = check_all_commuting_proper(make_matrix_algebra(2, F5))
    assert rep.ok
    assert rep.dim_commuting == 5 and rep.dim_proper == 5


def test_commuting_space_on_commutative_algebra_is_everything():
    alg = make_triangular_algebra(1, F5)
    assert len(commuting_linear_space(alg)) == 1  # all of End(R)


# ---------------------------------------------------------------------------
# GMA centers and the projection isomorphism
# ---------------------------------------------------------------------------


def center_basis_commutes(gma):
    C = gma.center
    for z in C.z_g:
        for i in range(gma.dim):
            e = gma.basis_vector(i)
            if not gma.ring.is_zero(gma.commutator(z, e)):
                return False
    return True


@pytest.mark.parametrize("maker", ["m3", "t3", "m4"])
def test_center_is_one_dimensional_and_central(maker, request):
    gma = request.getfixturevalue(maker)
    C = gma.center
    assert C.zdim == 1
    assert center_basis_commutes(gma)
    assert C.in_center(gma.unit)
    # z_g is canonical: its single row must be the unit's RREF normalization
    coeff = C.center_coords(gma.unit)
    assert coeff is not None
    assert F5.equal(C.expand(coeff), gma.unit)


def test_center_coords_outside_span_is_none(m3):
    C = m3.center
    # E_01 is not central in M_3
    assert C.center_coords(m3.basis_vector(1)) is None
    assert not C.in_center(m3.basis_vector(1))


def test_projection_isomorphism_identities(t3, m4):
    """pi_A(Z) and pi_B(Z) are linked by phi: a*m = m*phi(a) and
    n*a = phi(a)*n for every module basis vector."""
    for gma in (t3, m4):
        ring, ctx, C = gma.ring, gma.ctx, gma.center
        assert C.pia_image.shape[0] == C.zdim
        assert C.pib_image.shape[0] == C.zdim
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


def test_phi_apply_roundtrip(t3):
    C = t3.center
    a = C.pia_image[0]
    b = C.phi_apply(a)
    assert b is not None
    back = C.phi_inv_apply(b)
    assert t3.ring.equal(back, a)
    # vectors outside the projected center have no partner
    outside = t3.ring.zeros(t3.ctx.A.dim)
    outside[0] = t3.ring.coerce(1)
    if C.phi_apply(outside) is not None:
        # dim A = 1 for this split, so the only miss is the zero complement
        assert t3.ctx.A.dim == 1


def test_quotient_and_annihilator(m3):
    C = m3.center
    assert C.annihilator.shape == (m3.dim - C.zdim, m3.dim)
    assert rank_array(F5, C.annihilator) == m3.dim - C.zdim
    assert F5.is_zero(F5.tensordot(C.annihilator, C.z_g, axes=([1], [1])))
    # quotient kills exactly the center
    assert F5.is_zero(C.quotient(m3.unit))
    assert not F5.is_zero(C.quotient(m3.basis_vector(1)))


# ---------------------------------------------------------------------------
# faithfulness and loyalty
# ---------------------------------------------------------------------------


def test_faithful_on_full_matrix(m3):
    left, right, wit = check_faithful(m3.ctx)
    assert left and right and wit is None


def test_faithfulness_is_computed_once_per_algebra(monkeypatch, tmp_path, capsys):
    calls = []

    def counted(ctx):
        calls.append(ctx)
        return check_faithful(ctx)

    monkeypatch.setattr(center, "check_faithful", counted)
    gma = assemble_gma(build_full_matrix(4, 2, F5))
    report = hypothesis_report(gma)
    assert check_loyal(gma.ctx).status == "true"
    assert len(calls) == 1
    verdict = check_faithful(gma.ctx)[:2]
    assert (gma.center.faithful_left, gma.center.faithful_right) == verdict
    assert (report.M_faithful_left, report.M_faithful_right) == verdict
    path = tmp_path / "m4.json"
    save_context(path, gma.ctx)
    assert main(["center", str(path)]) == 0
    assert "faithful: left=True right=True" in capsys.readouterr().out.splitlines()
    assert len(calls) == 2


@pytest.mark.parametrize("n, k", [(4, 2), (3, 1)], ids=["m4-side-a", "m3-side-b"])
def test_decompositions_compute_no_center(monkeypatch, n, k):
    """Z(G), Z(A) and Z(B) are computed with the center and the report;
    the generic and the constructive routes, gamma systems included, read
    them from there."""
    from gmalg import decompose
    from gmalg.decompose import (
        decompose_trace_constructive,
        decompose_trace_generic,
        random_proper_trace,
    )

    gma = assemble_gma(build_full_matrix(n, k, F5))
    gma.center, gma.report
    calls = []

    def counted(alg):
        calls.append(alg)
        return compute_center_algebra(alg)

    for module in (center, decompose):
        monkeypatch.setattr(module, "compute_center_algebra", counted, raising=False)
    q = random_proper_trace(gma, 2)
    assert decompose_trace_generic(q, gma).status == "ok"
    dec = decompose_trace_constructive(q, gma)
    assert dec.status == "ok" and dec.witness.side == ("A" if k > 1 else "B")
    assert calls == []


def test_loyal_statuses():
    assert check_loyal(build_full_matrix(3, 1, F5)).status == "true"
    assert check_loyal(build_upper_triangular(3, 1, F5)).status == "true"
    res = check_loyal(build_diagonal_pair(F5))
    assert res.status == "false"
    a, b = res.witness
    assert F5.equal(a, F5.array([1, 0]))
    assert F5.equal(b, F5.array([0, 1]))


def test_loyal_witness_annihilates():
    ctx = build_diagonal_pair(F5)
    res = check_loyal(ctx)
    a, b = res.witness
    for j in range(ctx.M.dim):
        m = F5.zeros(ctx.M.dim)
        m[j] = F5.one
        assert F5.is_zero(ctx.M.act_right(ctx.M.act_left(a, m), b))


def test_loyal_over_q_uses_certificates():
    # 1-dimensional corner + faithfulness is a structural proof
    assert check_loyal(build_upper_triangular(2, 1, RATIONAL)).status == "true"
    # full matrix contexts carry the primeness flag from the builder
    assert check_loyal(build_full_matrix(3, 1, RATIONAL)).status == "true"


def test_loyalty_result_bool_is_guarded():
    res = check_loyal(build_full_matrix(2, 1, F5))
    with pytest.raises(TypeError):
        bool(res)


def test_loyal_bound_exhaustion_reports_unknown():
    res = check_loyal(build_full_matrix(4, 2, F5), bound=3)
    assert res.status == "unknown"


# ---------------------------------------------------------------------------
# the [[x^2, y], [x, y]] identity
# ---------------------------------------------------------------------------


def test_identity_holds_when_both_corners_commute(t2):
    ok, wit = check_identity_42(t2)
    assert ok and wit is None


def test_identity_fails_on_m3_with_verified_witness(m3):
    ok, wit = check_identity_42(m3)
    assert not ok
    x, y = wit
    defect = m3.commutator(m3.commutator(m3.square(x), y), m3.commutator(x, y))
    assert not F5.is_zero(defect)


def test_identity_scan_lifts_rational_constants_over_one_denominator():
    g = assemble_gma(build_inflated(RATIONAL, 1, [[Fraction(-7, 6)]]))
    lifted, p = _integer_mul_tensor(g)
    assert p is None and lifted.dtype == np.int64
    assert [Fraction(int(n), 6) for n in lifted.flat] == list(g.mul.flat)
    assert check_identity_42(g) == (True, None)


def test_identity_scan_decides_large_rational_constants():
    # the scan's values stay below 96 d^3 B^4 for lifted constants of size
    # at most B: int64 up to the largest B that keeps that below 2^63,
    # python ints past it, the same verdict either way
    d = 4
    edge = isqrt(isqrt(((1 << 63) - 1) // (96 * d**3)))
    for gamma, dtype in ((edge, np.int64), (edge + 1, object), (10**30, object)):
        g = assemble_gma(build_inflated(RATIONAL, 1, [[gamma]]))
        assert g.dim == d
        lifted, p = _integer_mul_tensor(g)
        assert p is None and lifted.dtype == dtype
        assert int(np.abs(lifted).max()) == gamma
        assert check_identity_42(g) == (True, None)


# ---------------------------------------------------------------------------
# radical and scans
# ---------------------------------------------------------------------------


def test_central_jordan_radical_is_zero_on_core_instances(m2, m3, t3):
    for gma in (m2, m3, t3):
        rad = central_jordan_radical(gma)
        assert rad.shape == (0, gma.dim)


def test_balanced_pairs_vanish_under_loyalty(t3, m4):
    assert balanced_pair_space_dim(t3) == 0
    assert balanced_pair_space_dim(m4) == 0


def test_center_scans_on_t3(t3):
    assert center_multiplier_annihilator_ok(t3) is True
    assert center_zero_divisor_free(t3) is True
    assert cube_annihilating_forms_contained(t3) is True


def test_enumeration_scans_are_none_over_q():
    gq = assemble_gma(build_upper_triangular(3, 1, RATIONAL))
    assert center_multiplier_annihilator_ok(gq) is None
    assert center_zero_divisor_free(gq) is None


# ---------------------------------------------------------------------------
# hypothesis report and routes
# ---------------------------------------------------------------------------


def test_routes_for_the_standard_instances(m2, m3, t3, m4):
    assert hypothesis_report(m4).route == "main"
    assert hypothesis_report(m3).route == "corner"
    assert hypothesis_report(t3).route == "corner"
    # both corners of the 1+1 split of M_2 are commutative: no route applies
    assert hypothesis_report(m2).route == "none"


def test_t3_independent_pair_is_the_textbook_one(t3):
    rep = hypothesis_report(t3)
    m0, b0 = rep.prop322_m0b0
    assert F5.equal(m0, F5.array([1, 0]))
    # B = T_2 on basis (E00, E01, E11); the partner is E01
    assert F5.equal(b0, F5.array([0, 1, 0]))
    # and the pair is genuinely independent: {m0*b0, m0} has rank 2
    mb = t3.ctx.M.act_right(m0, b0)
    assert F5.equal(mb, F5.array([0, 1]))


def test_report_lines_format(t3):
    lines = hypothesis_report(t3).lines()
    assert "decomposition-route: corner" in lines
    assert any(line.startswith("morita-axioms: ok") for line in lines)


def test_report_lines_show_non_loyal_witness():
    gma = assemble_gma(build_diagonal_pair(F5))
    lines = hypothesis_report(gma).lines()
    assert "  non-loyal witness: a=[1, 0] b=[0, 1]" in lines
    assert "decomposition-route: none" in lines
