"""End-to-end command coverage, run in-process through main(argv).

Exit-code contract: 0 = pass, 1 = a property/decomposition failed,
2 = the input could not even be parsed (or a predicate precondition
failed).  File outputs are canonical JSON; reruns must be bytes-equal.
"""

import json
import pickle
from fractions import Fraction

import numpy as np
import pytest

from gmalg import center, cli
from gmalg.cli import main
from gmalg.exact import RATIONAL, prime_field
from gmalg.io import (
    MapDocument,
    load_context,
    save_context,
    save_map,
)
from gmalg.maps import BilinearMapRep, LinearMapRep, trace_space
from gmalg.structure import (
    assemble_gma,
    build_diagonal_pair,
    build_full_matrix,
    build_inflated,
    build_peirce,
    build_upper_triangular,
    make_matrix_algebra,
    make_triangular_algebra,
)
from gmalg.decompose import random_lie_triple_iso, random_proper_trace
from support import algebra_to_json, read_json, save_algebra
from test_oracles import build_late_annihilator_pair

F5 = prime_field(5)


@pytest.fixture()
def m3_file(tmp_path):
    path = tmp_path / "m3.json"
    save_context(path, build_full_matrix(3, 1, F5))
    return str(path)


@pytest.fixture()
def t3_file(tmp_path):
    path = tmp_path / "t3.json"
    save_context(path, build_upper_triangular(3, 1, F5))
    return str(path)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def test_gen_full_matrix(tmp_path, capsys):
    out = tmp_path / "ctx.json"
    rc = main(["gen", "--kind", "full-matrix", "--n", "3", "--split", "1", "-o", str(out)])
    assert rc == 0
    assert "morita axioms: pass" in capsys.readouterr().out
    ctx = load_context(out)
    assert ctx.meta["builder"] == "full_matrix"
    assert ctx.A.dim == 1 and ctx.B.dim == 4


def test_gen_without_output_prints_json(capsys):
    rc = main(["gen", "--kind", "triangular", "--n", "2", "--split", "1", "--ring", "q"])
    assert rc == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["format"] == "gma-context"
    assert "morita axioms: pass" in captured.err


def test_gen_inflated_reports_broken_axioms_but_still_writes(tmp_path, capsys):
    # the identity form on a 2-dimensional space violates the pairing
    # compatibility; the file is still produced for inspection
    out = tmp_path / "bad.json"
    rc = main(["gen", "--kind", "inflated", "--dimv", "2", "-o", str(out)])
    assert rc == 0
    assert "FAIL" in capsys.readouterr().out
    assert out.exists()


def test_gen_peirce_needs_algebra_file(tmp_path, capsys):
    rc = main(["gen", "--kind", "peirce"])
    assert rc == 2
    alg_path = tmp_path / "alg.json"
    save_algebra(alg_path, make_matrix_algebra(2, F5), idempotent=F5.array([1, 0, 0, 0]))
    out = tmp_path / "peirce.json"
    rc = main(["gen", "--kind", "peirce", "--algebra-file", str(alg_path), "-o", str(out)])
    assert rc == 0
    assert load_context(out).meta["builder"] == "peirce"


def _lawless_product(doc):
    # e12 e21 = 2 e11 instead of e11, so (e12 e21) e12 = 2 e12 != e12 (e21 e12)
    doc["mul"] = [[1, 2, 0, 2] if rec == [1, 2, 0, 1] else rec for rec in doc["mul"]]


def _unit_that_is_not_one(doc):
    doc["unit"] = [1, 0, 0, 0]


@pytest.mark.parametrize(
    "break_algebra, message",
    [
        (_lawless_product, "algebra.associativity at indices (1, 2, 1)"),
        (_unit_that_is_not_one, "algebra.left-unit"),
    ],
)
def test_gen_peirce_rejects_an_algebra_file_that_breaks_a_law(
    tmp_path, capsys, break_algebra, message
):
    """The algebra file is checked for its own laws when it is read: a
    lawless algebra would split into a context whose Morita laws fail."""
    doc = algebra_to_json(make_matrix_algebra(2, F5), idempotent=F5.array([1, 0, 0, 0]))
    break_algebra(doc)
    alg_path, out = tmp_path / "alg.json", tmp_path / "peirce.json"
    alg_path.write_text(json.dumps(doc))
    rc = main(["gen", "--kind", "peirce", "--algebra-file", str(alg_path), "-o", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: algebra does not assemble: axiom failed: {message}\n"
    assert not out.exists()


def test_gen_rejects_bad_ring(capsys):
    assert main(["gen", "--kind", "full-matrix", "--n", "2", "--split", "1", "--ring", "fp:4"]) == 2
    assert main(["gen", "--kind", "full-matrix", "--n", "2", "--split", "1", "--ring", "zz"]) == 2


# ---------------------------------------------------------------------------
# check / center
# ---------------------------------------------------------------------------


def test_check_reports_route(m3_file, capsys):
    assert main(["check", m3_file]) == 0
    out = capsys.readouterr().out
    assert "morita axioms: pass" in out
    assert "decomposition-route: corner" in out


def test_check_fails_on_broken_context(tmp_path, capsys):
    ctx = build_full_matrix(2, 1, F5)
    doc_path = tmp_path / "broken.json"
    save_context(doc_path, ctx)
    doc = json.loads(doc_path.read_text())
    doc["pairing_MN"] = [[i, j, a, (2 * v) % 5] for i, j, a, v in doc["pairing_MN"]]
    doc_path.write_text(json.dumps(doc))
    assert main(["check", str(doc_path)]) == 1
    assert "FAIL [diagram.MN-M]" in capsys.readouterr().out


BROKEN_LINE = "morita axioms: FAIL [diagram.MN-M] at indices (0, 0, 0, 0)\n"


@pytest.mark.parametrize(
    "command, rc, out, err",
    [
        (["check", "{broken}", "-o", "{report}"], 1, BROKEN_LINE, ""),
        (["center", "{broken}"], 1, BROKEN_LINE, ""),
        (["suite", "{broken}", "--count", "2", "-o", "{report}"], 1, BROKEN_LINE, ""),
        (
            ["verify-map", "{broken}", "{linear}", "--predicate", "commuting-linear"],
            2,
            "",
            "error: " + BROKEN_LINE,
        ),
        (["decompose-trace", "{broken}", "{bilinear}"], 2, "", "error: " + BROKEN_LINE),
        (["decompose-lti", "{broken}", "{good}", "{linear}"], 2, "", "error: " + BROKEN_LINE),
        (["decompose-lti", "{good}", "{broken}", "{linear}"], 2, "", "error: " + BROKEN_LINE),
    ],
)
def test_broken_context_output_is_pinned(command, rc, out, err, tmp_path, capsys):
    """Every command that reads a context reports its first failing law
    once, with the same text and exit code."""
    paths = {name: tmp_path / f"{name}.json" for name in ("broken", "good", "linear", "bilinear")}
    paths["report"] = tmp_path / "report.txt"
    save_context(paths["broken"], build_full_matrix(2, 1, F5))
    doc = json.loads(paths["broken"].read_text())
    doc["pairing_MN"] = [[i, j, a, (2 * v) % 5] for i, j, a, v in doc["pairing_MN"]]
    paths["broken"].write_text(json.dumps(doc))
    save_context(paths["good"], build_full_matrix(2, 1, F5))
    save_map(paths["linear"], MapDocument("linear", LinearMapRep.identity(F5, 4)))
    save_map(paths["bilinear"], MapDocument("bilinear", BilinearMapRep(F5, F5.zeros((4, 4, 4)))))
    argv = [a.format(**{k: str(v) for k, v in paths.items()}) for a in command]
    assert main(argv) == rc
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)
    if "-o" in command:
        assert paths["report"].read_text() == out


def test_check_parse_error(tmp_path, capsys):
    bad = tmp_path / "junk.json"
    bad.write_text("{not json")
    assert main(["check", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "block, key, value, message",
    [
        ("ring", "p", "x", "prime_field needs an integer p, got 'x'"),
        ("ring", "p", [5], "prime_field needs an integer p, got [5]"),
        (None, "meta", [1, 2], "meta must be a JSON object"),
        # rejected from the dimensions alone: nothing of this size is allocated
        ("module_M", "dim", 10**30, "the product tensor of a context of dimension"),
        ("algebra_A", "dim", True, "algebra_A.dim must be a nonnegative int"),
    ],
    ids=["p-string", "p-list", "meta-list", "dim-10e30", "dim-true"],
)
def test_check_rejects_malformed_fields_with_a_message(
    m3_file, tmp_path, capsys, block, key, value, message
):
    doc = json.loads(open(m3_file).read())
    (doc[block] if block else doc)[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_center_document(m3_file, tmp_path, capsys):
    out = tmp_path / "center.json"
    assert main(["center", m3_file, "-o", str(out)]) == 0
    doc = read_json(out)
    assert doc["center_dim"] == 1
    assert len(doc["center_basis"]) == 1
    assert doc["faithful_left"] and doc["faithful_right"]
    assert doc["loyal"] == "true"


# ---------------------------------------------------------------------------
# verify-map
# ---------------------------------------------------------------------------


def test_verify_map_pass_and_fail(t3_file, tmp_path, capsys):
    gma = assemble_gma(build_upper_triangular(3, 1, F5))
    good = tmp_path / "mul.json"
    save_map(good, MapDocument("bilinear", BilinearMapRep(F5, gma.mul)))
    assert main(["verify-map", t3_file, str(good), "--predicate", "centralizing-trace"]) == 0
    assert "PASS" in capsys.readouterr().out

    bad_rep = LinearMapRep(F5, gma.left_mult_matrix(gma.basis_vector(1)))
    bad = tmp_path / "lmul.json"
    save_map(bad, MapDocument("linear", bad_rep))
    assert main(["verify-map", t3_file, str(bad), "--predicate", "commuting-linear"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert sum(1 for line in out.splitlines() if "witness[" in line) == 1


def test_verify_map_rejects_a_map_over_another_ring(t3_file, tmp_path, capsys):
    # over F5, 1/2 is 3; reading the rational entry as a residue would give 0
    gma = assemble_gma(build_upper_triangular(3, 1, RATIONAL))
    path = tmp_path / "half.json"
    save_map(path, MapDocument("bilinear", BilinearMapRep(RATIONAL, gma.mul * Fraction(1, 2))))
    assert main(["verify-map", t3_file, str(path), "--predicate", "centralizing-trace"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "map is over Q, but the context is over F_5" in captured.err


def test_verify_map_kind_mismatch(t3_file, tmp_path):
    gma = assemble_gma(build_upper_triangular(3, 1, F5))
    path = tmp_path / "mul.json"
    save_map(path, MapDocument("bilinear", BilinearMapRep(F5, gma.mul)))
    # a trace predicate on a linear document (and vice versa) is an input error
    assert main(["verify-map", t3_file, str(path), "--predicate", "commuting-linear"]) == 2


# ---------------------------------------------------------------------------
# decompose-trace
# ---------------------------------------------------------------------------


def test_decompose_trace_both_paths(t3_file, tmp_path, capsys):
    gma = assemble_gma(build_upper_triangular(3, 1, F5))
    q = random_proper_trace(gma, seed=6)
    qpath = tmp_path / "q.json"
    save_map(qpath, MapDocument("bilinear", q, seed=6))
    out = tmp_path / "dec.json"
    rc = main(["decompose-trace", t3_file, str(qpath), "--path", "both", "-o", str(out)])
    assert rc == 0
    doc = read_json(out)
    assert doc["format"] == "gma-trace-decomposition"
    assert doc["status"] == "ok"
    assert doc["agreement"] is True
    assert doc["generic"]["reconstructs"] is True
    assert doc["constructive"]["reconstructs"] is True
    assert all(doc["constructive"]["shape_laws"].values())


def test_decompose_trace_rejects_non_centralizing(m3_file, tmp_path, capsys):
    gma = assemble_gma(build_full_matrix(3, 1, F5))
    t = F5.zeros((gma.dim,) * 3)
    for a in range(gma.dim):
        xe = gma.multiply(gma.basis_vector(a), gma.basis_vector(1))
        for b in range(gma.dim):
            t[a, b] = gma.multiply(xe, gma.basis_vector(b))
    qpath = tmp_path / "bad.json"
    save_map(qpath, MapDocument("bilinear", BilinearMapRep(F5, t)))
    rc = main(["decompose-trace", m3_file, str(qpath)])
    assert rc == 2
    out = capsys.readouterr().out
    assert "witness" in out


def test_decompose_trace_names_the_route(tmp_path, capsys):
    # M3(Q) split 1 has a commutative corner A, so only the corner route applies
    ctx = build_full_matrix(3, 1, RATIONAL)
    ctx_path = tmp_path / "m3q.json"
    save_context(ctx_path, ctx)
    qpath = tmp_path / "q.json"
    q = random_proper_trace(assemble_gma(ctx), seed=1)
    save_map(qpath, MapDocument("bilinear", q, seed=1))
    assert main(["decompose-trace", str(ctx_path), str(qpath), "--path", "generic"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "generic: ok (route corner)"


def test_decompose_trace_saves_a_rational_violation_candidate(tmp_path, capsys):
    # a centralizing trace of the diagonal pair over F5, lifted to Q with
    # representatives in [-2, 2], is centralizing over Q but not proper
    basis = trace_space(assemble_gma(build_diagonal_pair(F5)), "centralizing").basis[81]
    lift = [
        [[v if v <= 2 else v - 5 for v in row] for row in plane] for plane in basis.tensor.tolist()
    ]
    ctx_path, qpath, out = tmp_path / "dq.json", tmp_path / "q.json", tmp_path / "dec.json"
    save_context(ctx_path, build_diagonal_pair(RATIONAL))
    save_map(qpath, MapDocument("bilinear", BilinearMapRep(RATIONAL, RATIONAL.array(lift))))
    argv = ["decompose-trace", str(ctx_path), str(qpath), "--path", "constructive"]
    assert main(argv + ["-o", str(out)]) == 1
    stdout = capsys.readouterr().out
    assert "THEOREM-VIOLATION CANDIDATE at nu-centrality, pair (0, 6)" in stdout
    assert "Fraction" not in stdout
    violation = read_json(out)["constructive"]["violation"]
    assert violation["pair"] == [0, 6]
    assert all(isinstance(v, str) for v in violation["residual"])
    assert np.array(violation["q"]).shape == (8, 8, 8)
    assert Fraction(violation["q"][0][0][0]) == Fraction(lift[0][0][0])


def test_decompose_trace_rejects_a_map_over_another_ring(tmp_path, capsys):
    ctx_path, qpath = tmp_path / "t3q.json", tmp_path / "q.json"
    save_context(ctx_path, build_upper_triangular(3, 1, RATIONAL))
    gma = assemble_gma(build_upper_triangular(3, 1, F5))
    save_map(qpath, MapDocument("bilinear", BilinearMapRep(F5, gma.mul)))
    assert main(["decompose-trace", str(ctx_path), str(qpath)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "map is over F_5, but the context is over Q" in captured.err


# ---------------------------------------------------------------------------
# decompose-lti
# ---------------------------------------------------------------------------


def test_decompose_lti_conjugation(m3_file, tmp_path, capsys):
    gma = assemble_gma(build_full_matrix(3, 1, F5))
    l = random_lie_triple_iso(gma, 2, "conjugation")
    lpath = tmp_path / "l.json"
    save_map(lpath, MapDocument("linear", l, seed=2))
    out = tmp_path / "lti.json"
    rc = main(["decompose-lti", m3_file, m3_file, str(lpath), "-o", str(out)])
    assert rc == 0
    doc = read_json(out)
    assert doc["format"] == "gma-lti-decomposition"
    assert doc["sign"] == 1
    assert doc["status"] == "ok"


def test_decompose_lti_ambiguous_is_exit_one(tmp_path, capsys):
    ctx_path = tmp_path / "m2.json"
    save_context(ctx_path, build_full_matrix(2, 1, F5))
    lpath = tmp_path / "id.json"
    save_map(lpath, MapDocument("linear", LinearMapRep.identity(F5, 4)))
    rc = main(["decompose-lti", str(ctx_path), str(ctx_path), str(lpath)])
    assert rc == 1
    assert "ambiguous" in capsys.readouterr().out


def test_decompose_lti_singular_is_exit_two(m3_file, tmp_path, capsys):
    lpath = tmp_path / "zero.json"
    save_map(lpath, MapDocument("linear", LinearMapRep(F5, F5.zeros((9, 9)))))
    assert main(["decompose-lti", m3_file, m3_file, str(lpath)]) == 2


def test_decompose_lti_rejects_a_map_over_another_ring(m3_file, tmp_path, capsys):
    ident = RATIONAL.eye(9)
    ident[0, 0] = Fraction(1, 2)
    lpath = tmp_path / "half.json"
    save_map(lpath, MapDocument("linear", LinearMapRep(RATIONAL, ident)))
    assert main(["decompose-lti", m3_file, m3_file, str(lpath)]) == 2
    assert "map is over Q, but the context is over F_5" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# a lawful context whose center analysis fails
# ---------------------------------------------------------------------------

UNFAITHFUL = (
    "analysis failed: corner isomorphism inverse needs the bimodule faithful on the left;"
    " it is not\n"
)


@pytest.fixture()
def unfaithful_files(tmp_path):
    """The late-annihilator pair, whose M is not faithful on the left, with
    the zero trace and the identity map on its block algebra."""
    ctx = build_late_annihilator_pair(F5)
    d = assemble_gma(ctx).dim
    files = {name: tmp_path / f"{name}.json" for name in ("ctx", "trace", "ident")}
    save_context(files["ctx"], ctx)
    save_map(files["trace"], MapDocument("bilinear", BilinearMapRep(F5, F5.zeros((d, d, d)))))
    save_map(files["ident"], MapDocument("linear", LinearMapRep.identity(F5, d)))
    return {name: str(path) for name, path in files.items()}


@pytest.mark.parametrize(
    "predicate, map_name", [("centralizing-trace", "trace"), ("centralizing-linear", "ident")]
)
def test_verify_map_reports_a_failed_center_analysis(
    unfaithful_files, predicate, map_name, capsys
):
    f = unfaithful_files
    assert main(["verify-map", f["ctx"], f[map_name], "--predicate", predicate]) == 1
    assert capsys.readouterr().out == UNFAITHFUL


def test_decompose_trace_reports_a_failed_center_analysis(unfaithful_files, capsys):
    f = unfaithful_files
    assert main(["decompose-trace", f["ctx"], f["trace"]]) == 1
    assert capsys.readouterr().out == UNFAITHFUL


def test_decompose_lti_reports_a_failed_center_analysis(unfaithful_files, capsys):
    f = unfaithful_files
    assert main(["decompose-lti", f["ctx"], f["ctx"], f["ident"]]) == 1
    assert capsys.readouterr().out == UNFAITHFUL


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def test_suite_on_m3_all_pass(m3_file, tmp_path, capsys):
    out = tmp_path / "suite.txt"
    rc = main(["suite", m3_file, "--count", "3", "-o", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "FAIL" not in text
    assert "suite:" in text
    assert "0 failed" in text


def test_suite_skips_with_reasons_on_non_loyal_instance(tmp_path, capsys):
    ctx_path = tmp_path / "diag.json"
    save_context(ctx_path, build_diagonal_pair(F5))
    rc = main(["suite", str(ctx_path), "--count", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    skip_lines = [l for l in out.splitlines() if l.startswith("SKIP")]
    assert skip_lines
    assert all("(" in l for l in skip_lines)  # every skip explains itself
    assert "0 failed" in out


def peirce_context(alg, idempotent_coords):
    e = alg.ring.zeros(alg.dim)
    e[list(idempotent_coords)] = alg.ring.one
    return build_peirce(alg, e)[0]


SPLIT = "PASS lie-triple-split-shapes (three shapes, expected signs)"
AMBIGUOUS = (
    "PASS lie-triple-split-shapes (identity and three shapes ambiguous: both signs consistent)"
)
# every builder: the split recovers the drawn sign, conjugation and shift,
# or is ambiguous for every drawn map exactly when it is for the identity
LTI_CONTEXTS = {
    "m2-f5": (lambda: build_full_matrix(2, 1, F5), AMBIGUOUS),
    "m3-f5": (lambda: build_full_matrix(3, 1, F5), SPLIT),
    "m4-f5": (lambda: build_full_matrix(4, 2, F5), SPLIT),
    "t2-f5": (lambda: build_upper_triangular(2, 1, F5), AMBIGUOUS),
    "t3-f5": (lambda: build_upper_triangular(3, 1, F5), SPLIT),
    "t4-split2-f5": (lambda: build_upper_triangular(4, 2, F5), SPLIT),
    "diagonal-f5": (lambda: build_diagonal_pair(F5), AMBIGUOUS),
    "diagonal-k3-f7": (lambda: build_diagonal_pair(prime_field(7), 3), AMBIGUOUS),
    "inflated-f5": (lambda: build_inflated(F5, 1, F5.eye(1)), AMBIGUOUS),
    "peirce-m3-f5": (lambda: peirce_context(make_matrix_algebra(3, F5), [0]), SPLIT),
    "peirce-t4-f5": (lambda: peirce_context(make_triangular_algebra(4, F5), [0, 4]), SPLIT),
    "m3-q": (lambda: build_full_matrix(3, 1, RATIONAL), SPLIT),
    "t3-q": (lambda: build_upper_triangular(3, 1, RATIONAL), SPLIT),
}


@pytest.mark.parametrize("name", sorted(LTI_CONTEXTS))
def test_suite_splits_lie_triple_isomorphisms_on_every_builder(name, tmp_path, capsys):
    build, line = LTI_CONTEXTS[name]
    path = tmp_path / f"{name}.json"
    save_context(path, build())
    assert main(["suite", str(path), "--count", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert line in lines
    assert "0 failed" in lines[-1]


def test_suite_decides_trace_spaces_beyond_dim_12(tmp_path, capsys):
    path = tmp_path / "m4.json"
    save_context(path, build_full_matrix(4, 2, F5))
    assert main(["suite", str(path), "--count", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS trace-space-decomposes (dim 153)\n" in out
    assert "PASS trace-space-modes-agree (shared dim 153)\n" in out


def test_suite_builds_one_hypothesis_report(m3_file, monkeypatch, capsys):
    # every property, the round trips and the Lie triple shapes included,
    # reads the algebra's one report
    built = []
    report = center.hypothesis_report

    def counted(*args, **kwargs):
        built.append(args[0])
        return report(*args, **kwargs)

    monkeypatch.setattr(center, "hypothesis_report", counted)
    assert main(["suite", m3_file, "--count", "2"]) == 0
    assert "0 failed" in capsys.readouterr().out
    assert len(built) == 1


def test_suite_reruns_are_byte_identical(t3_file, tmp_path):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    assert main(["suite", t3_file, "--count", "2", "--seed", "9", "-o", str(out1)]) == 0
    assert main(["suite", t3_file, "--count", "2", "--seed", "9", "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "build",
    [lambda: build_diagonal_pair(F5), lambda: build_full_matrix(3, 1, F5)],
    ids=["diagonal", "m3"],
)
def test_suite_seed_moves_neither_the_independent_pair_nor_the_witness(
    build, tmp_path, monkeypatch, capsys
):
    # the diagonal pair has no independent basis pair, and the identity
    # [[x^2, y], [x, y]] = 0 fails on M3
    path = tmp_path / "ctx.json"
    save_context(path, build())
    reports, verdicts = [], []

    def recorded(fn, into):
        def wrapper(*args, **kwargs):
            into.append(fn(*args, **kwargs))
            return into[-1]

        return wrapper

    monkeypatch.setattr(center, "hypothesis_report", recorded(center.hypothesis_report, reports))
    monkeypatch.setattr(cli, "check_identity_42", recorded(cli.check_identity_42, verdicts))
    for seed in range(4):
        assert main(["suite", str(path), "--count", "1", "--seed", str(seed)]) == 0
    assert len(reports) == len(verdicts) == 4
    assert all(r.prop322_m0b0 is not None for r in reports)
    assert len({pickle.dumps(r.prop322_m0b0) for r in reports}) == 1
    assert len({pickle.dumps(v) for v in verdicts}) == 1


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def test_unknown_predicate_is_an_argparse_error(m3_file, tmp_path):
    with pytest.raises(SystemExit) as e:
        main(["verify-map", m3_file, "nope.json", "--predicate", "sideways"])
    assert e.value.code == 2


def test_seed_is_an_option_of_suite_only(m3_file):
    with pytest.raises(SystemExit) as e:
        main(["check", m3_file, "--seed", "3"])
    assert e.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["suite", "CTX", "--max-dim", "99"],
        ["gen", "--kind", "diagonal", "--loyalty-bound", "3"],
        ["verify-map", "CTX", "map.json", "--predicate", "jordan-hom", "--loyalty-bound", "3"],
        ["decompose-lti", "CTX", "CTX", "map.json", "--loyalty-bound", "3"],
        ["check", "CTX", "--loyalty-bound", "3"],
        ["center", "CTX", "--loyalty-bound", "3"],
        ["decompose-trace", "CTX", "map.json", "--loyalty-bound", "3"],
        ["suite", "CTX", "--loyalty-bound", "3"],
    ],
    ids=[
        "suite-max-dim",
        "gen-loyalty-bound",
        "verify-map-loyalty-bound",
        "decompose-lti-loyalty-bound",
        "check-loyalty-bound",
        "center-loyalty-bound",
        "decompose-trace-loyalty-bound",
        "suite-loyalty-bound",
    ],
)
def test_commands_refuse_options_they_do_not_read(m3_file, argv):
    with pytest.raises(SystemExit) as e:
        main([m3_file if a == "CTX" else a for a in argv])
    assert e.value.code == 2


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("suite", "--count", "0"),
        ("suite", "--count", "-1"),
    ],
)
def test_out_of_range_counts_and_bounds_exit_two(m3_file, capsys, command, flag, value):
    assert_input_error([command, m3_file, flag, value], capsys, f"{flag} must be at least")


def test_missing_file_is_exit_two(capsys):
    assert main(["check", "/nonexistent/ctx.json"]) == 2


def assert_input_error(argv, capsys, message="error: "):
    """The command exits 2 with a message and writes nothing to stdout."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize(
    "block, key",
    [("module_M", "right"), ("algebra_B", "mul"), (None, "pairing_NM")],
)
def test_check_rejects_a_boolean_index(m3_file, tmp_path, capsys, block, key):
    """numpy reads a boolean in an index tuple as a mask: [True, 0, 0, 3]
    would set every cell of out[0, 0, :] where the shape allows it, and
    raise an IndexError where it does not."""
    doc = json.loads(open(m3_file).read())
    (doc[block] if block else doc)[key] = [[True, 0, 0, 3]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert_input_error(["check", str(path)], capsys, "index out of range in record [True, 0, 0, 3]")


def test_map_commands_reject_a_boolean_index(t3_file, tmp_path, capsys):
    gma = assemble_gma(build_upper_triangular(3, 1, F5))
    path = tmp_path / "q.json"
    save_map(path, MapDocument("bilinear", BilinearMapRep(F5, gma.mul)))
    doc = json.loads(path.read_text())
    doc["entries"] = [[True, 0, 0, 3]] + doc["entries"]
    path.write_text(json.dumps(doc))
    for argv in (
        ["verify-map", t3_file, str(path), "--predicate", "centralizing-trace"],
        ["decompose-trace", t3_file, str(path)],
    ):
        assert_input_error(argv, capsys, "index out of range in record [True, 0, 0, 3]")


@pytest.mark.parametrize(
    "change, message",
    [
        ({"n": 5}, "meta.n = 5 and meta.k = 1 need block dimensions"),
        ({"n": 0}, "meta.n must be at least 2"),
        ({"n": None}, "meta.n is missing"),
        ({"k": None}, "meta.k is missing"),
        ({"k": 2}, "meta.n = 3 and meta.k = 2 need block dimensions"),
        ({"k": 3}, "meta.k must lie in 1..2"),
    ],
    ids=["n-5", "n-0", "no-n", "no-k", "k-2", "k-3"],
)
def test_full_matrix_meta_must_match_the_blocks(m3_file, tmp_path, capsys, change, message):
    """The Lie triple generators read n and k of a full_matrix context; a
    meta that does not describe M_n split at k exits 2 from every command
    that reads the context."""
    doc = json.loads(open(m3_file).read())
    for key, value in change.items():
        if value is None:
            del doc["meta"][key]
        else:
            doc["meta"][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for argv in (["check", str(path)], ["suite", str(path), "--count", "1"]):
        assert_input_error(argv, capsys, message)


def document_files(tmp_path, ring):
    """A context, a bilinear and a linear map document over ring, as JSON."""
    ctx = build_full_matrix(3, 1, ring)
    gma = assemble_gma(ctx)
    paths = {name: tmp_path / f"{name}.json" for name in ("ctx", "bilinear", "linear")}
    save_context(paths["ctx"], ctx)
    save_map(paths["bilinear"], MapDocument("bilinear", BilinearMapRep(ring, gma.mul), 1, "mul"))
    l = random_lie_triple_iso(gma, 1)
    save_map(paths["linear"], MapDocument("linear", l, 1, "conjugation"))
    return paths


# every field a writer fills with a string (scalars are strings over Q),
# and the meta entries the builders write, by document
STRING_FIELDS = {
    "ctx": [
        ("format",), ("ring", "kind"), ("meta", "builder"), ("meta", "n"), ("meta", "k"),
        ("meta", "prime_certified"), ("algebra_A", "unit", 0), ("algebra_B", "mul", 0, -1),
    ],
    "bilinear": [("format",), ("ring", "kind"), ("kind",), ("provenance",), ("entries", 0, -1)],
    "linear": [("format",), ("ring", "kind"), ("kind",), ("provenance",), ("entries_dense", 0)],
}


@pytest.mark.parametrize("ring", [F5, RATIONAL], ids=["f5", "q"])
@pytest.mark.parametrize("value", [[], {}, ["linear"], {"kind": "linear"}], ids=repr)
def test_unhashable_values_in_string_fields_are_input_errors(tmp_path, capsys, ring, value):
    """A list or dict where a document has a string exits 2 with a message
    from every command that reads the document."""
    paths = document_files(tmp_path, ring)
    ctx = str(paths["ctx"])
    commands = {
        "ctx": lambda p: [["check", p], ["center", p], ["suite", p, "--count", "1"]],
        "bilinear": lambda p: [
            ["verify-map", ctx, p, "--predicate", "centralizing-trace"],
            ["decompose-trace", ctx, p],
        ],
        "linear": lambda p: [
            ["verify-map", ctx, p, "--predicate", "commuting-linear"],
            ["decompose-lti", ctx, ctx, p],
        ],
    }
    for name, fields in STRING_FIELDS.items():
        for path in fields:
            doc = json.loads(paths[name].read_text())
            at = doc
            for key in path[:-1]:
                at = at[key]
            at[path[-1]] = value
            bad = tmp_path / f"bad-{name}.json"
            bad.write_text(json.dumps(doc))
            for argv in commands[name](str(bad)):
                assert_input_error(argv, capsys)


# ---------------------------------------------------------------------------
# golden output
# ---------------------------------------------------------------------------

GOLDEN_CONTEXTS = {
    "t3-f5": lambda: build_upper_triangular(3, 1, F5),
    "m3-f5": lambda: build_full_matrix(3, 1, F5),
    "m3-q": lambda: build_full_matrix(3, 1, RATIONAL),
}

# the full standard output of each command, pinned byte for byte
GOLDEN = {
    ("t3-f5", "check"): """\
morita axioms: pass
morita-axioms: ok
bimodule-faithful: left=True right=True
bimodule-loyal: true (enumeration over 4 candidates)
corner-A-center-matches-projection: True; A-noncommutative: False
corner-B-center-matches-projection: True; B-noncommutative: True
commuting-maps-proper-on-A: True (commuting dim 1, proper dim 1)
commuting-maps-proper-on-B: True (commuting dim 4, proper dim 4)
central-over-scalars: G=True B=True
independent-pair-m0b0: found
two-torsion-free: True
decomposition-route: corner
""",
    ("t3-f5", "center"): """\
center-dim: 1
  z: [1, 0, 0, 1, 0, 1]
corner-A-center-dim: 1 (projection image dim 1)
corner-B-center-dim: 1 (projection image dim 1)
faithful: left=True right=True
loyal: true (enumeration over 4 candidates)
""",
    ("t3-f5", "suite"): """\
PASS axioms-and-file-roundtrip
PASS balanced-pairs-vanish
PASS center-basis-commutes (dim 1)
PASS center-multiplier-regular
PASS center-zero-divisor-free
PASS central-jordan-radical-zero
PASS commuting-maps-proper-on-a-corner (A=True B=True)
PASS cube-annihilating-forms-contained
PASS lie-triple-split-shapes (three shapes, expected signs)
PASS loyalty-certificate (enumeration over 4 candidates)
PASS second-commutator-identity-dichotomy (fails with verified witness)
PASS seeded-proper-roundtrip-constructive (2 seeded traces)
PASS seeded-proper-roundtrip-generic (2 seeded traces)
PASS trace-space-decomposes (dim 28)
PASS trace-space-modes-agree (shared dim 28)
suite: 15 passed, 0 failed, 0 skipped [seed 0]
""",
    ("m3-f5", "check"): """\
morita axioms: pass
morita-axioms: ok
bimodule-faithful: left=True right=True
bimodule-loyal: true (enumeration over 4 candidates)
corner-A-center-matches-projection: True; A-noncommutative: False
corner-B-center-matches-projection: True; B-noncommutative: True
commuting-maps-proper-on-A: True (commuting dim 1, proper dim 1)
commuting-maps-proper-on-B: True (commuting dim 5, proper dim 5)
central-over-scalars: G=True B=True
independent-pair-m0b0: found
two-torsion-free: True
decomposition-route: corner
""",
    ("m3-f5", "center"): """\
center-dim: 1
  z: [1, 0, 0, 0, 0, 1, 0, 0, 1]
corner-A-center-dim: 1 (projection image dim 1)
corner-B-center-dim: 1 (projection image dim 1)
faithful: left=True right=True
loyal: true (enumeration over 4 candidates)
""",
    ("m3-f5", "suite"): """\
PASS axioms-and-file-roundtrip
PASS balanced-pairs-vanish
PASS center-basis-commutes (dim 1)
PASS center-multiplier-regular
PASS center-zero-divisor-free
PASS central-jordan-radical-zero
PASS commuting-maps-proper-on-a-corner (A=True B=True)
PASS cube-annihilating-forms-contained
PASS lie-triple-split-shapes (three shapes, expected signs)
PASS loyalty-certificate (enumeration over 4 candidates)
PASS second-commutator-identity-dichotomy (fails with verified witness)
PASS seeded-proper-roundtrip-constructive (2 seeded traces)
PASS seeded-proper-roundtrip-generic (2 seeded traces)
PASS trace-space-decomposes (dim 55)
PASS trace-space-modes-agree (shared dim 55)
suite: 15 passed, 0 failed, 0 skipped [seed 0]
""",
    ("m3-q", "check"): """\
morita axioms: pass
morita-axioms: ok
bimodule-faithful: left=True right=True
bimodule-loyal: true (dim A = 1 and M right-faithful)
corner-A-center-matches-projection: True; A-noncommutative: False
corner-B-center-matches-projection: True; B-noncommutative: True
commuting-maps-proper-on-A: True (commuting dim 1, proper dim 1)
commuting-maps-proper-on-B: True (commuting dim 5, proper dim 5)
central-over-scalars: G=True B=True
independent-pair-m0b0: found
two-torsion-free: True
decomposition-route: corner
""",
    ("m3-q", "center"): """\
center-dim: 1
  z: ["1", "0", "0", "0", "0", "1", "0", "0", "1"]
corner-A-center-dim: 1 (projection image dim 1)
corner-B-center-dim: 1 (projection image dim 1)
faithful: left=True right=True
loyal: true (dim A = 1 and M right-faithful)
""",
    ("m3-q", "suite"): """\
PASS axioms-and-file-roundtrip
PASS balanced-pairs-vanish
PASS center-basis-commutes (dim 1)
PASS center-multiplier-regular
SKIP center-zero-divisor-free (not enumerable (rational ring or over bound))
PASS central-jordan-radical-zero
PASS commuting-maps-proper-on-a-corner (A=True B=True)
PASS cube-annihilating-forms-contained
PASS lie-triple-split-shapes (three shapes, expected signs)
PASS loyalty-certificate (dim A = 1 and M right-faithful)
PASS second-commutator-identity-dichotomy (fails with verified witness)
PASS seeded-proper-roundtrip-constructive (2 seeded traces)
PASS seeded-proper-roundtrip-generic (2 seeded traces)
PASS trace-space-decomposes (dim 55)
PASS trace-space-modes-agree (shared dim 55)
suite: 14 passed, 0 failed, 1 skipped [seed 0]
""",
}


@pytest.mark.parametrize("name, command", sorted(GOLDEN))
def test_command_output_is_pinned(name, command, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    save_context(path, GOLDEN_CONTEXTS[name]())
    extra = ["--count", "2"] if command == "suite" else []
    assert main([command, str(path)] + extra) == 0
    assert capsys.readouterr().out == GOLDEN[name, command]
