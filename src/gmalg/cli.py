"""Command-line workflow: generate contexts, check hypotheses, compute
centers, verify map predicates, run decompositions, and batch property
suites.

Exit codes: 0 pass, 1 property/decomposition failure, 2 input error.
All reports are deterministic: the same input gives the same bytes, and
for ``suite``, whose traces and maps are drawn, the same seed too.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .center import (
    CenterError,
    balanced_pair_space_dim,
    center_multiplier_annihilator_ok,
    center_zero_divisor_free,
    central_jordan_radical,
    check_identity_42,
    cube_annihilating_forms_contained,
    gma_loyalty,
    hypothesis_report,
)
from .decompose import (
    PredicateNotSatisfied,
    WitnessExtractionError,
    decompose_lie_triple_iso,
    decompose_trace_constructive,
    decompose_trace_generic,
    random_lie_triple_iso,
    random_proper_trace,
)
from .exact import ExactError, RingDescriptor, RATIONAL, prime_field
from .io import (
    IOFormatError,
    canonical_dumps,
    context_from_json,
    context_to_json,
    dense_to_json,
    linear_rep_to_json,
    load_algebra,
    load_context,
    load_map,
    proper_form_to_json,
    save_json,
)
from .maps import (
    LinearMapRep,
    MapError,
    is_centralizing_linear,
    is_centralizing_trace,
    is_commuting_linear,
    is_commuting_trace,
    is_jordan_hom,
    is_lie_triple_hom,
    trace_space,
    vanishes_on_second_commutators,
)
from .structure import (
    AxiomError,
    GMA,
    MoritaReport,
    assemble_gma,
    build_diagonal_pair,
    build_full_matrix,
    build_inflated,
    build_peirce,
    build_upper_triangular,
    check_morita_axioms,
)


def parse_ring(text: str) -> RingDescriptor:
    """Ring syntax: "q" for the rationals, "fp:P" for the field with P elements."""
    if text == "q":
        return RATIONAL
    if text.startswith("fp:"):
        try:
            p = int(text[3:])
        except ValueError:
            raise IOFormatError(f"bad ring spec {text!r}") from None
        try:
            return prime_field(p)
        except ExactError as e:
            raise IOFormatError(str(e)) from None
    raise IOFormatError(f"bad ring spec {text!r} (use 'q' or 'fp:P')")


def _fmt_vec(ring, v) -> str:
    import json

    return json.dumps(dense_to_json(ring, np.asarray(v)))


def _scalars_to_json(ring, nested) -> list:
    """Nested lists of ring scalars with each scalar written as in the
    JSON formats (an int over F_p, an "a/b" string over Q)."""
    arr = np.array(nested, dtype=object)
    return np.array(dense_to_json(ring, arr), dtype=object).reshape(arr.shape).tolist()


def _witness_lines(ring, witness) -> list:
    if witness is None:
        return []
    ws = witness if isinstance(witness, tuple) else (witness,)
    return [f"  witness[{i}]: {_fmt_vec(ring, w)}" for i, w in enumerate(ws)]


def _print(lines, out=None):
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out:
        from pathlib import Path

        Path(out).write_text(text)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    ring = parse_ring(args.ring)
    kind = args.kind
    if kind == "full-matrix":
        _need_params(args, "n", "split")
        ctx = build_full_matrix(args.n, args.split, ring)
    elif kind == "triangular":
        _need_params(args, "n", "split")
        ctx = build_upper_triangular(args.n, args.split, ring)
    elif kind == "inflated":
        _need_params(args, "dimv")
        if args.gamma_file:
            doc = load_map(args.gamma_file)
            if doc.kind != "linear" or doc.rep.matrix.shape != (args.dimv, args.dimv):
                raise IOFormatError(
                    "gamma file must be a linear map file of shape "
                    f"[{args.dimv}, {args.dimv}]"
                )
            gamma = doc.rep.matrix
        else:
            gamma = ring.eye(args.dimv)
        ctx = build_inflated(ring, args.dimv, gamma)
    elif kind == "diagonal":
        ctx = build_diagonal_pair(ring, args.k)
    elif kind == "peirce":
        if not args.algebra_file:
            raise IOFormatError("peirce generation needs --algebra-file")
        alg, idem = load_algebra(args.algebra_file)
        if idem is None:
            raise IOFormatError("algebra file has no 'idempotent' entry")
        ctx, _cert = build_peirce(alg, idem)
    else:  # pragma: no cover - argparse restricts choices
        raise IOFormatError(f"unknown kind {kind!r}")
    doc = context_to_json(ctx)
    rep = check_morita_axioms(ctx)
    if args.output:
        save_json(args.output, doc)
        _print([str(rep)])
    else:
        sys.stdout.write(canonical_dumps(doc))
        sys.stderr.write(str(rep) + "\n")
    return 0


def _need_params(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise IOFormatError(f"--{name.replace('_', '-')} is required for this kind")


# ---------------------------------------------------------------------------
# check / center
# ---------------------------------------------------------------------------


def _assemble(ctx):
    """(gma, report): assemble_gma checks the Morita laws, once; a context
    that fails one gives no GMA and the report of the failing law."""
    try:
        return assemble_gma(ctx), MoritaReport(True)
    except AxiomError as e:
        return None, MoritaReport(False, e.identity, e.indices)


def _lawful_gma(ctx) -> GMA:
    """The GMA of a context, or an input error naming the failing law."""
    gma, rep = _assemble(ctx)
    if gma is None:
        raise IOFormatError(str(rep))
    return gma


def cmd_check(args) -> int:
    gma, rep = _assemble(load_context(args.context))
    if gma is None:
        _print([str(rep)], args.output)
        return 1
    try:
        hyp = hypothesis_report(gma, loyalty_bound=args.loyalty_bound)
    except (CenterError, ExactError) as e:
        _print([str(rep), f"analysis failed: {e}"], args.output)
        return 1
    _print([str(rep)] + hyp.lines(), args.output)
    return 0


def cmd_center(args) -> int:
    gma, rep = _assemble(load_context(args.context))
    if gma is None:
        _print([str(rep)])
        return 1
    ring = gma.ring
    try:
        C = gma.center
    except (CenterError, ExactError) as e:
        _print([f"center computation failed: {e}"])
        return 1
    loyal = gma_loyalty(gma, bound=args.loyalty_bound)
    lines = [
        f"center-dim: {C.zdim}",
    ]
    for row in C.z_g:
        lines.append(f"  z: {_fmt_vec(ring, row)}")
    lines += [
        f"corner-A-center-dim: {C.z_a.shape[0]} (projection image dim {C.pia_image.shape[0]})",
        f"corner-B-center-dim: {C.z_b.shape[0]} (projection image dim {C.pib_image.shape[0]})",
        f"faithful: left={C.faithful_left} right={C.faithful_right}",
        f"loyal: {loyal.status} ({loyal.detail})",
    ]
    if loyal.status == "false" and loyal.witness is not None:
        a, b = loyal.witness
        lines.append(f"  witness: a={_fmt_vec(ring, a)} b={_fmt_vec(ring, b)}")
    _print(lines)
    if args.output:
        doc = {
            "format": "gma-center-report",
            "center_dim": C.zdim,
            "center_basis": [dense_to_json(ring, row) for row in C.z_g],
            "corner_A_center": [dense_to_json(ring, row) for row in C.z_a],
            "corner_B_center": [dense_to_json(ring, row) for row in C.z_b],
            "projection_A_image": [dense_to_json(ring, row) for row in C.pia_image],
            "projection_B_image": [dense_to_json(ring, row) for row in C.pib_image],
            "phi": dense_to_json(ring, C.phi),
            "phi_shape": list(C.phi.shape),
            "faithful_left": C.faithful_left,
            "faithful_right": C.faithful_right,
            "loyal": loyal.status,
            "loyal_detail": loyal.detail,
        }
        save_json(args.output, doc)
    return 0


# ---------------------------------------------------------------------------
# verify-map
# ---------------------------------------------------------------------------

_LINEAR_PREDICATES = {
    "commuting-linear": is_commuting_linear,
    "centralizing-linear": is_centralizing_linear,
    "kills-second-commutators": vanishes_on_second_commutators,
}
_PAIR_PREDICATES = {  # need src and dst (here: the same algebra)
    "jordan-hom": is_jordan_hom,
    "lie-triple-hom": is_lie_triple_hom,
}
_TRACE_PREDICATES = {
    "commuting-trace": is_commuting_trace,
    "centralizing-trace": is_centralizing_trace,
}

PREDICATES = sorted(_LINEAR_PREDICATES | _PAIR_PREDICATES | _TRACE_PREDICATES)


def _ring_name(ring: RingDescriptor) -> str:
    return f"F_{ring.p}" if ring.is_prime_field else "Q"


def _require_ring(doc, ring: RingDescriptor):
    """A map is read over its own ring; one over another ring than the
    context's would be silently reinterpreted, so it is an input error."""
    if doc.rep.ring != ring:
        raise IOFormatError(
            f"map is over {_ring_name(doc.rep.ring)}, "
            f"but the context is over {_ring_name(ring)}"
        )


def _load_gma_and_map(args):
    gma = _lawful_gma(load_context(args.context))
    doc = load_map(args.map)
    _require_ring(doc, gma.ring)
    return gma, doc


def cmd_verify_map(args) -> int:
    pred = args.predicate
    gma, doc = _load_gma_and_map(args)
    d = gma.dim
    if pred in _TRACE_PREDICATES:
        if doc.kind != "bilinear":
            raise IOFormatError(f"{pred} needs a bilinear map file")
        if doc.rep.tensor.shape != (d, d, d):
            raise IOFormatError("bilinear map shape does not match the context")
    else:
        if doc.kind != "linear":
            raise IOFormatError(f"{pred} needs a linear map file")
        if doc.rep.matrix.shape != (d, d):
            raise IOFormatError("linear map shape does not match the context")
    if pred in _TRACE_PREDICATES:
        ok, witness = _TRACE_PREDICATES[pred](gma, doc.rep)
    elif pred in _PAIR_PREDICATES:
        ok, witness = _PAIR_PREDICATES[pred](gma, gma, doc.rep)
    else:
        ok, witness = _LINEAR_PREDICATES[pred](gma, doc.rep)
    lines = [f"{'PASS' if ok else 'FAIL'} {pred}"]
    if not ok:
        lines += _witness_lines(gma.ring, witness)
    _print(lines, args.output)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# decompose-trace
# ---------------------------------------------------------------------------


def cmd_decompose_trace(args) -> int:
    gma, doc = _load_gma_and_map(args)
    if doc.kind != "bilinear" or doc.rep.tensor.shape != (gma.dim,) * 3:
        raise IOFormatError("decompose-trace needs a bilinear map matching the context")
    q = doc.rep
    ring = gma.ring
    mode_pred = _TRACE_PREDICATES[f"{args.mode}-trace"]
    ok, witness = mode_pred(gma, q)
    if not ok:
        lines = [f"FAIL predicate {args.mode}-trace"]
        lines += _witness_lines(ring, witness)
        _print(lines)
        return 2

    out = {
        "format": "gma-trace-decomposition",
        "mode": args.mode,
        "path": args.path,
    }
    lines = []
    failed = False
    generic = constructive = None
    report = hypothesis_report(gma, loyalty_bound=args.loyalty_bound)
    if args.path in ("generic", "both"):
        generic = decompose_trace_generic(q, gma, mode=args.mode, report=report)
        out["route"] = generic.route
        lines.append(f"generic: {generic.status} (route {generic.route})")
        if generic.status == "ok":
            out["generic"] = proper_form_to_json(gma, generic.form)
            out["generic"]["reconstructs"] = True
        else:
            failed = True
            out["generic"] = {"status": "not-proper"}
            lines += ["  no central (z, mu, nu) reproduces the trace"]
            lines += ["  " + ln for ln in generic.report.lines()]
    if args.path in ("constructive", "both"):
        try:
            constructive = decompose_trace_constructive(q, gma, report=report)
        except WitnessExtractionError as e:
            failed = True
            out["constructive"] = {"status": "extraction-failed", "stage": e.stage}
            lines.append(f"constructive: extraction failed at {e.stage}")
        else:
            out.setdefault("route", constructive.route)
            lines.append(f"constructive: {constructive.status}")
            if constructive.status == "ok":
                out["constructive"] = proper_form_to_json(gma, constructive.form)
                out["constructive"]["reconstructs"] = True
                out["constructive"]["shape_laws"] = constructive.shape_report
            else:
                failed = True
                v = constructive.violation
                v = {**v, "residual": _scalars_to_json(ring, v["residual"])}
                v["q"] = _scalars_to_json(ring, v["q"])
                out["constructive"] = {
                    "status": constructive.status,
                    "violation": v,
                    "shape_laws": constructive.shape_report,
                }
                lines.append(
                    f"  THEOREM-VIOLATION CANDIDATE at {v['stage']}, pair {v['pair']}"
                )
                lines.append(f"  residual: {v['residual']}")
    if args.path == "both" and generic is not None and constructive is not None:
        if generic.status == "ok" and constructive.status == "ok":
            agree = ring.equal(
                generic.form.sym_tensor(gma), constructive.form.sym_tensor(gma)
            )
            out["agreement"] = bool(agree)
            lines.append(f"paths agree as maps: {bool(agree)}")
            failed = failed or not agree
        else:
            out["agreement"] = False
    out["status"] = "fail" if failed else "ok"
    if args.output:
        save_json(args.output, out)
    _print(lines)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# decompose-lti
# ---------------------------------------------------------------------------


def cmd_decompose_lti(args) -> int:
    src_ctx = load_context(args.src_context)
    dst_ctx = load_context(args.dst_context)
    src = _lawful_gma(src_ctx)
    dst = _lawful_gma(dst_ctx)
    doc = load_map(args.map)
    _require_ring(doc, src.ring)
    _require_ring(doc, dst.ring)
    if doc.kind != "linear":
        raise IOFormatError("decompose-lti needs a linear map file")
    if doc.rep.matrix.shape != (dst.dim, src.dim):
        raise IOFormatError("map shape does not match the contexts")
    ring = dst.ring
    try:
        L = decompose_lie_triple_iso(doc.rep, src, dst)
    except (PredicateNotSatisfied, MapError) as e:
        lines = [f"error: {e}"] + _witness_lines(ring, getattr(e, "witness", None))
        _print(lines)
        return 2
    lines = [f"status: {L.status}"]
    out = {"format": "gma-lti-decomposition", "status": L.status, "checks": L.checks}
    if L.status == "ok":
        lines.append(f"sign: {L.lam:+d}")
        out["sign"] = L.lam
        out["jordan_part"] = linear_rep_to_json(L.m)
        out["central_part"] = linear_rep_to_json(L.n)
        mu_cols = ring.tensordot(dst.center.z_g.T, L.mu1, axes=([1], [0]))
        out["mu1_columns"] = dense_to_json(ring, mu_cols)
        for name in sorted(L.checks):
            lines.append(f"  {name}: {L.checks[name]}")
    else:
        lines.append(f"detail: {L.detail}")
        out["detail"] = L.detail
        for name in sorted(L.checks):
            lines.append(f"  {name}: {L.checks[name]}")
    if args.output:
        save_json(args.output, out)
    _print(lines)
    return 0 if L.status == "ok" else 1


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def _suite_properties(gma: GMA, ctx, args):
    """Yield (name, thunk) pairs; each thunk returns (status, detail)."""
    ring = gma.ring
    hyp = hypothesis_report(gma, loyalty_bound=args.loyalty_bound)
    loyal = hyp.M_loyal
    spaces = {}  # mode -> trace_space result, shared by the two trace-space checks

    def space(mode):
        if mode not in spaces:
            spaces[mode] = trace_space(gma, mode)
        return spaces[mode]

    def p_axioms():
        rep = check_morita_axioms(ctx)
        if not rep.ok:
            return "FAIL", str(rep)
        text = canonical_dumps(context_to_json(ctx))
        import json

        back = context_from_json(json.loads(text))
        if canonical_dumps(context_to_json(back)) != text:
            return "FAIL", "serialization is not canonical"
        return "PASS", ""

    def p_center_commutes():
        for row in gma.center.z_g:
            for i in range(gma.dim):
                if not ring.is_zero(gma.commutator(row, gma.basis_vector(i))):
                    return "FAIL", f"center basis row does not commute with e_{i}"
        return "PASS", f"dim {gma.center.zdim}"

    def p_loyalty():
        if loyal.status == "unknown":
            return "SKIP", loyal.detail
        if loyal.status == "false":
            a, b = loyal.witness
            for j in range(ctx.M.dim):
                m = ring.zeros(ctx.M.dim)
                m[j] = ring.one
                if not ring.is_zero(ctx.M.act_right(ctx.M.act_left(a, m), b)):
                    return "FAIL", "non-loyal witness does not annihilate"
            if ring.is_zero(a) or ring.is_zero(b):
                return "FAIL", "degenerate witness"
            return "PASS", "non-loyal with verified witness"
        return "PASS", loyal.detail

    def p_proper_corners():
        ca, cb = hyp.commuting_proper_on_A, hyp.commuting_proper_on_B
        if not (ca.ok or cb.ok):
            return "FAIL", "no corner has all commuting maps proper"
        return "PASS", f"A={ca.ok} B={cb.ok}"

    def p_identity_dichotomy():
        holds, witness = check_identity_42(gma)
        both_comm = (
            gma.center.z_a.shape[0] == ctx.A.dim
            and gma.center.z_b.shape[0] == ctx.B.dim
        )
        if holds != both_comm:
            return "FAIL", f"identity holds={holds}, both corners commutative={both_comm}"
        return "PASS", "holds" if holds else "fails with verified witness"

    def p_radical():
        rad = central_jordan_radical(gma)
        if rad.shape[0] != 0:
            return "FAIL", f"central Jordan radical has dim {rad.shape[0]}"
        return "PASS", ""

    def p_balanced():
        dim = balanced_pair_space_dim(gma)
        if dim is None:
            return "SKIP", "no M to test"
        if loyal.status != "true" or not hyp.zB_ne_B:
            return "SKIP", "needs a loyal bimodule and noncommutative B"
        return ("PASS", "") if dim == 0 else ("FAIL", f"balanced pair space dim {dim}")

    def p_center_domain():
        if loyal.status != "true":
            return "SKIP", "needs a loyal bimodule"
        res = center_zero_divisor_free(gma, bound=args.loyalty_bound)
        if res is None:
            return "SKIP", "not enumerable (rational ring or over bound)"
        return ("PASS", "") if res else ("FAIL", "zero divisors in the center")

    def p_center_multiplier():
        if loyal.status != "true":
            return "SKIP", "needs a loyal bimodule"
        ok = center_multiplier_annihilator_ok(gma)
        return ("PASS", "") if ok else ("FAIL", "a center multiplier annihilates")

    def p_cube_forms():
        if loyal.status != "true":
            return "SKIP", "needs a loyal bimodule"
        return ("PASS", "") if cube_annihilating_forms_contained(gma) else (
            "FAIL",
            "cube-annihilating form with nonvanishing trace",
        )

    def p_trace_space():
        if hyp.route == "none":
            return "SKIP", "no decomposition route"
        cen = space("centralizing")
        for k, b in enumerate(cen.basis):
            dec = decompose_trace_generic(b, gma, mode="centralizing", report=hyp)
            if dec.status != "ok" or not dec.form.matches(gma, b):
                return "FAIL", f"basis element {k} does not decompose"
        return "PASS", f"dim {cen.dim}"

    def p_trace_modes():
        if hyp.route == "none":
            return "SKIP", "no decomposition route"
        cen, com = space("centralizing"), space("commuting")
        if not np.array_equal(cen.raw_rows, com.raw_rows):
            return "FAIL", f"centralizing dim {cen.dim} != commuting dim {com.dim}"
        return "PASS", f"shared dim {cen.dim}"

    def p_roundtrip_generic():
        for i in range(args.count):
            q = random_proper_trace(gma, args.seed + i)
            dec = decompose_trace_generic(q, gma, mode="commuting", report=hyp)
            if dec.status != "ok" or not dec.form.matches(gma, q):
                return "FAIL", f"seed {args.seed + i} does not roundtrip"
        return "PASS", f"{args.count} seeded traces"

    def p_roundtrip_constructive():
        if hyp.route == "none":
            return "SKIP", "no decomposition route"
        for i in range(args.count):
            q = random_proper_trace(gma, args.seed + i)
            try:
                dec = decompose_trace_constructive(q, gma, report=hyp)
            except WitnessExtractionError as e:
                return "FAIL", f"seed {args.seed + i}: extraction failed at {e.stage}"
            if dec.status != "ok" or not dec.form.matches(gma, q):
                return "FAIL", f"seed {args.seed + i}: status {dec.status}"
        return "PASS", f"{args.count} seeded traces"

    def p_lti():
        # a split is ambiguous for every map of the drawn form when it is for
        # the identity; otherwise it recovers the drawn sign, sigma and shift
        ident = LinearMapRep.identity(ring, gma.dim)
        ambiguous = decompose_lie_triple_iso(ident, gma, gma, report=hyp).status == "ambiguous"
        seed = args.seed + 11
        sigma = random_lie_triple_iso(gma, seed, "conjugation")
        for shape, lam in (("central-shift", 1), ("conjugation", 1), ("neg-conjugation", -1)):
            l = random_lie_triple_iso(gma, seed, shape)
            L = decompose_lie_triple_iso(l, gma, gma, report=hyp)
            if ambiguous:
                if L.status != "ambiguous":
                    return "FAIL", f"{shape}: the identity split is ambiguous, got {L.status}"
            elif L.status != "ok" or L.lam != lam:
                return "FAIL", f"{shape}: status {L.status}, sign {L.lam}"
            elif not (L.m.equal(sigma) and L.n.equal(l - sigma.scale(ring.coerce(lam)))):
                return "FAIL", f"{shape}: the split is not the drawn conjugation and shift"
        if ambiguous:
            return "PASS", "identity and three shapes ambiguous: both signs consistent"
        return "PASS", "three shapes, expected signs"

    return [
        ("axioms-and-file-roundtrip", p_axioms),
        ("balanced-pairs-vanish", p_balanced),
        ("center-basis-commutes", p_center_commutes),
        ("center-multiplier-regular", p_center_multiplier),
        ("center-zero-divisor-free", p_center_domain),
        ("central-jordan-radical-zero", p_radical),
        ("commuting-maps-proper-on-a-corner", p_proper_corners),
        ("cube-annihilating-forms-contained", p_cube_forms),
        ("lie-triple-split-shapes", p_lti),
        ("loyalty-certificate", p_loyalty),
        ("second-commutator-identity-dichotomy", p_identity_dichotomy),
        ("seeded-proper-roundtrip-constructive", p_roundtrip_constructive),
        ("seeded-proper-roundtrip-generic", p_roundtrip_generic),
        ("trace-space-decomposes", p_trace_space),
        ("trace-space-modes-agree", p_trace_modes),
    ]


def cmd_suite(args) -> int:
    gma, rep = _assemble(load_context(args.context))
    if gma is None:
        _print([str(rep)], args.output)
        return 1
    try:
        gma.center  # force; failures here are structural
    except (CenterError, ExactError) as e:
        _print([f"analysis failed: {e}"], args.output)
        return 1
    results = []
    for name, thunk in sorted(_suite_properties(gma, gma.ctx, args)):
        try:
            status, detail = thunk()
        except (CenterError, ExactError, MapError) as e:
            status, detail = "FAIL", f"{type(e).__name__}: {e}"
        results.append((name, status, detail))
    lines = []
    counts = {"PASS": 0, "FAIL": 0, "SKIP": 0}
    for name, status, detail in results:
        counts[status] += 1
        lines.append(f"{status} {name}" + (f" ({detail})" if detail else ""))
    lines.append(
        f"suite: {counts['PASS']} passed, {counts['FAIL']} failed, "
        f"{counts['SKIP']} skipped [seed {args.seed}]"
    )
    _print(lines, args.output)
    return 1 if counts["FAIL"] else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output", default=None, help="write the result file here")
    bounded = argparse.ArgumentParser(add_help=False, parents=[output])
    bounded.add_argument(
        "--loyalty-bound",
        type=int,
        default=5**8,
        help="enumeration budget for loyalty and center scans",
    )

    p = argparse.ArgumentParser(
        prog="gmalg",
        description="exact generalized-matrix-algebra toolkit: build block "
        "algebras from Morita contexts, analyze their centers, and decompose "
        "centralizing traces and Lie triple isomorphisms",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", parents=[output], help="generate a context file")
    g.add_argument(
        "--kind",
        required=True,
        choices=["full-matrix", "triangular", "inflated", "diagonal", "peirce"],
    )
    g.add_argument("--ring", default="fp:5", help="'q' or 'fp:P'")
    g.add_argument("--n", type=int, default=None, help="matrix size")
    g.add_argument("--split", type=int, default=None, help="block split position")
    g.add_argument("--dimv", type=int, default=None, help="inflation space dimension")
    g.add_argument("--gamma-file", default=None, help="bilinear form for inflation")
    g.add_argument("--k", type=int, default=2, help="diagonal pair length")
    g.add_argument("--algebra-file", default=None, help="algebra + idempotent input")
    g.set_defaults(func=cmd_gen)

    c = sub.add_parser("check", parents=[bounded], help="axioms + hypothesis report")
    c.add_argument("context")
    c.set_defaults(func=cmd_check)

    ce = sub.add_parser("center", parents=[bounded], help="center analysis report")
    ce.add_argument("context")
    ce.set_defaults(func=cmd_center)

    v = sub.add_parser("verify-map", parents=[output], help="check a map predicate")
    v.add_argument("context")
    v.add_argument("map")
    v.add_argument("--predicate", required=True, choices=PREDICATES)
    v.set_defaults(func=cmd_verify_map)

    dt = sub.add_parser(
        "decompose-trace", parents=[bounded], help="proper form of a trace"
    )
    dt.add_argument("context")
    dt.add_argument("map")
    dt.add_argument("--mode", default="centralizing", choices=["centralizing", "commuting"])
    dt.add_argument("--path", default="both", choices=["generic", "constructive", "both"])
    dt.set_defaults(func=cmd_decompose_trace)

    dl = sub.add_parser(
        "decompose-lti", parents=[output], help="split a Lie triple isomorphism"
    )
    dl.add_argument("src_context")
    dl.add_argument("dst_context")
    dl.add_argument("map")
    dl.set_defaults(func=cmd_decompose_lti)

    s = sub.add_parser("suite", parents=[bounded], help="batch property run")
    s.add_argument("context")
    s.add_argument("--count", type=int, default=5, help="seeded cases per property")
    s.add_argument("--seed", type=int, default=0, help="seed of the drawn traces and maps")
    s.set_defaults(func=cmd_suite)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for name, low in (("count", 1), ("loyalty_bound", 0)):
        if getattr(args, name, low) < low:
            sys.stderr.write(f"error: --{name.replace('_', '-')} must be at least {low}\n")
            return 2
    try:
        return args.func(args)
    except (IOFormatError, ExactError, MapError, AxiomError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except CenterError as e:
        _print([f"analysis failed: {e}"])
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
