"""The four workloads: per-algebra set-up, seeded inputs, one operation, and
the check of its output.

Inputs are made by ``oracle`` from the run's seed; the program receives only
the resulting coefficient tensors and matrices.  Every check compares the
program's output with values the benchmark drew or computed itself, or with
properties the method must have.  ``self_test`` hands each checker
deliberately corrupted copies of real outputs and reports any it accepts.
"""

from __future__ import annotations

import random

import numpy as np

# Program functions are looked up through their modules at call time, so that
# a traced run sees the wrapped versions.
import gmalg
import gmalg.decompose
import gmalg.maps

import oracle


class Workload:
    name = ""
    p: int | None = 5
    n, k = 3, 1
    setup_repeats = 1
    # whole rounds in each section of a traced run
    trace_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.field = oracle.Field(self.p)
        self.mc = oracle.MatrixCoords(self.field, self.n, self.k)
        self.mul = self.mc.unit_products()
        self.ring = gmalg.prime_field(self.p) if self.p else gmalg.RATIONAL

    def rng(self, tag) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{tag}")

    def build(self):
        """A fresh algebra with its center: the set-up every workload needs."""
        gma = gmalg.assemble_gma(gmalg.build_full_matrix(self.n, self.k, self.ring))
        gma.center
        return gma

    def setup(self) -> dict:
        return {"gma": self.build()}

    def check_setup(self, state) -> list:
        gma = state["gma"]
        errors = []
        if gma.mul.shape != self.mul.shape or not np.all(gma.mul == self.mul):
            errors.append("assembled multiplication tensor differs from the matrix-unit products")
        z_g = gma.center.z_g
        if z_g.shape != (1, self.mc.dim) or not np.all(z_g[0] == self.mc.identity()):
            errors.append("center basis is not the identity")
        return errors

    def warmup_input(self):
        return self.round_inputs("warmup")[0]

    def round_inputs(self, r) -> list:
        raise NotImplementedError

    def run(self, state, inp):
        raise NotImplementedError

    def check(self, state, inp, out) -> str | None:
        raise NotImplementedError

    def corruptions(self, pairs) -> list:
        """(label, input, corrupted output) triples built from real (input, output) pairs."""
        raise NotImplementedError

    def self_test(self, state, pairs) -> list:
        errors = []
        for label, inp, bad in self.corruptions(pairs):
            if self.check(state, inp, bad) is None:
                errors.append(f"checker accepted a corrupted result: {label}")
        return errors


class TraceSpaceM3(Workload):
    """Both trace spaces of M3(F5) (1+2 split); the seed picks the check points."""

    name = "trace-space-m3"
    setup_repeats = 13
    n_points = 30

    def round_inputs(self, r):
        return [None]

    def run(self, state, inp):
        gma = state["gma"]
        cen = gmalg.maps.trace_space(gma, "centralizing")
        com = gmalg.maps.trace_space(gma, "commuting")
        return {
            "cen_rows": cen.raw_rows,
            "com_rows": com.raw_rows,
            "cen_basis": np.stack([b.tensor for b in cen.basis]),
        }

    def check(self, state, inp, out):
        p, d = self.p, self.mc.dim
        pairs = [(i, j) for i in range(d) for j in range(i, d)]
        # z, mu and nu of a one-dimensional center: 1 + d + d(d+1)/2 = 55
        want = 1 + d + len(pairs)
        cen, com = out["cen_rows"], out["com_rows"]
        if cen.shape != (want, len(pairs) * d) or com.shape != cen.shape:
            return f"trace spaces have shapes {cen.shape} and {com.shape}, want {want} rows"
        if not np.array_equal(cen, com):
            return "centralizing and commuting spaces differ"
        if oracle.rank_mod_p(cen, p) != want:
            return "basis rows are not independent"
        coeff = cen.reshape(want, len(pairs), d)
        basis = out["cen_basis"]
        half = pow(2, -1, p)
        for n, (i, j) in enumerate(pairs):
            expect = coeff[:, n] if i == j else coeff[:, n] * half % p
            if not (np.array_equal(basis[:, i, j], expect) and np.array_equal(basis[:, j, i], expect)):
                return f"basis tensors disagree with the basis rows at pair {(i, j)}"
        rng = self.rng("points")
        for _ in range(self.n_points):
            x = self.mc.random_point(rng)
            mono = np.array([x[i] * x[j] for i, j in pairs], dtype=np.int64)
            values = np.tensordot(coeff, mono, axes=([1], [0])) % p  # (row, coordinate)
            X = self.mc.to_matrix(x)
            for row, v in enumerate(values):
                T = self.mc.to_matrix(v)
                if np.any((T @ X - X @ T) % p):
                    return f"basis map {row} has a trace that does not commute with x"
        return None

    def corruptions(self, pairs):
        inp, out = pairs[0]
        rng = self.rng("corrupt")
        row = rng.randrange(out["cen_rows"].shape[0])
        col = rng.randrange(out["cen_rows"].shape[1])
        one_side = dict(out, cen_rows=out["cen_rows"].copy())
        one_side["cen_rows"][row, col] = (one_side["cen_rows"][row, col] + 1) % self.p
        both = dict(one_side, com_rows=one_side["cen_rows"], cen_basis=out["cen_basis"].copy())
        d = self.mc.dim
        pair_list = [(i, j) for i in range(d) for j in range(i, d)]
        i, j = pair_list[col // d]
        step = 1 if i == j else pow(2, -1, self.p)
        for a, b in {(i, j), (j, i)}:
            both["cen_basis"][row, a, b, col % d] = (both["cen_basis"][row, a, b, col % d] + step) % self.p
        return [
            ("centralizing basis row altered", inp, one_side),
            ("basis row altered in both spaces", inp, both),
        ]


class TraceRoundtrip(Workload):
    """Seeded traces through both decomposition routes, against a prepared
    generic system and hypothesis report.  A perturbed input is a proper trace
    plus one stray tensor entry; its trace is not centralizing for any stray
    entry, so both routes must reject it with a witness."""

    # perturbed flag of each input of a round, and of the warm-up input
    pattern = (False,)
    warmup_perturbed = False

    def setup(self):
        gma = self.build()
        return {
            "gma": gma,
            "report": gmalg.hypothesis_report(gma),
            "system": gmalg.decompose.build_generic_system(gma),
        }

    def check_setup(self, state):
        errors = super().check_setup(state)
        K = state["system"].matrix
        d = self.mc.dim
        cols = 1 + d + d * (d + 1) // 2
        if self.p:
            rank = oracle.rank_mod_p(K, self.p)
        else:
            rank = oracle.rank_over_q_of_integer_matrix(K)
        if K.shape[1] != cols or rank != cols:
            errors.append(f"generic system has rank {rank} of {K.shape[1]} columns, want {cols}")
        return errors

    def make_input(self, rng, perturbed):
        d = self.mc.dim
        z, mu, nu = oracle.draw_proper(self.field, d, rng)
        q = oracle.proper_trace(self.mc, self.mul, z, mu, nu)
        if perturbed:
            i, j, r = rng.randrange(d), rng.randrange(d), rng.randrange(d)
            q[i, j, r] = self.field.reduce(q[i, j, r] + self.field.draw_nonzero(rng))
        return {"z": z, "mu": mu, "nu": nu, "q": q, "perturbed": perturbed}

    def warmup_input(self):
        return self.make_input(self.rng("warmup"), self.warmup_perturbed)

    def round_inputs(self, r):
        rng = self.rng(f"round{r}")
        return [self.make_input(rng, flag) for flag in self.pattern]

    def run(self, state, inp):
        gma = state["gma"]
        q = gmalg.BilinearMapRep(self.ring, inp["q"])
        routes = (
            lambda: gmalg.decompose_trace_generic(
                q, gma, "centralizing", system=state["system"], report=state["report"]
            ),
            lambda: gmalg.decompose_trace_constructive(q, gma, report=state["report"]),
        )
        out = []
        for route in routes:
            try:
                dec = route()
            except gmalg.PredicateNotSatisfied as e:
                out.append(("reject", e.witness))
                continue
            if dec.status != "ok":
                out.append((dec.status, None))
            else:
                out.append(("ok", (dec.form.z.copy(), dec.form.mu.copy(), dec.form.nu.copy())))
        return out

    def check(self, state, inp, out):
        d = self.mc.dim
        for route, (status, data) in zip(("generic", "constructive"), out):
            if inp["perturbed"]:
                if status != "reject" or data is None:
                    return f"{route} route did not reject a perturbed trace ({status})"
                w = np.asarray(data)
                if w.shape != (d,):
                    return f"{route} witness has shape {w.shape}"
                if self.mc.is_scalar(self.mc.trace_commutator(inp["q"], w)):
                    return f"{route} witness does not witness: [q(w,w), w] is scalar"
                continue
            if status != "ok":
                return f"{route} route returned {status} on a proper trace"
            z, mu, nu = data
            if z.shape != (1,) or mu.shape != (1, d) or nu.shape != (d, d, 1):
                return f"{route} form has shapes {z.shape}, {mu.shape}, {nu.shape}"
            if z[0] != inp["z"] or not np.all(mu[0] == inp["mu"]) or not np.all(nu[:, :, 0] == inp["nu"]):
                return f"{route} route did not return the drawn (z, mu, nu)"
        return None

    def corruptions(self, pairs):
        found = []
        accepted = next(((i, o) for i, o in pairs if not i["perturbed"]), None)
        if accepted:
            inp, out = accepted
            z, mu, nu = out[0][1]
            shifted = [("ok", (self.field.reduce(z + self.field.num(1)), mu, nu)), out[1]]
            found.append(("generic z shifted by one", inp, shifted))
        rejected = next(((i, o) for i, o in pairs if i["perturbed"]), None)
        if rejected:
            inp, _ = rejected
            form = (
                np.array([inp["z"]], dtype=inp["mu"].dtype),
                inp["mu"].reshape(1, -1),
                inp["nu"].reshape(inp["nu"].shape + (1,)),
            )
            found.append(("perturbed trace accepted", inp, [("ok", form), ("ok", form)]))
        return found


class RoundtripM4(TraceRoundtrip):
    name = "roundtrip-m4"
    n, k = 4, 2
    pattern = (False, False, False, True)
    setup_repeats = 4


class QLaneM3(TraceRoundtrip):
    """Proper traces over Q; the untimed warm-up input is the perturbed one."""

    name = "q-lane-m3"
    p = None
    pattern = (False,)
    warmup_perturbed = True
    setup_repeats = 2


class LtiM3(Workload):
    """Lie-triple splits on one reused M3(F5): a conjugation, a central shift
    and a negated-transpose conjugation per round, each with a seeded U."""

    name = "lti-m3"
    setup_repeats = 13
    trace_rounds = 3
    shapes = ("conjugation", "central-shift", "neg-transpose")

    def random_invertible(self, rng):
        while True:
            U = self.field.zeros((3, 3))
            for r in range(3):
                for c in range(3):
                    U[r, c] = self.field.draw(rng)
            Uinv = oracle.inverse3(self.field, U)
            if Uinv is not None:
                return U, Uinv

    def make_input(self, rng, shape):
        mc, p, d = self.mc, self.p, self.mc.dim
        U, Uinv = self.random_invertible(rng)
        conj = np.zeros((d, d), dtype=np.int64)
        transposed = np.zeros((d, d), dtype=np.int64)
        trace_map = np.zeros((d, d), dtype=np.int64)
        for i in range(d):
            E = mc.unit_matrix(i)
            conj[:, i] = mc.to_coords(U @ E @ Uinv % p)
            transposed[:, i] = mc.to_coords(U @ E.T @ Uinv % p)
            trace_map[:, i] = mc.identity() * int(np.trace(E))
        if shape == "conjugation":
            l, lam, m, n = conj, 1, conj, np.zeros_like(conj)
        elif shape == "central-shift":
            l, lam, m, n = (conj + trace_map) % p, 1, conj, trace_map
        else:
            l, lam, m, n = (-transposed) % p, -1, transposed, np.zeros_like(conj)
        return {"shape": shape, "l": l, "lam": lam, "m": m, "n": n}

    def round_inputs(self, r):
        rng = self.rng(f"round{r}")
        return [self.make_input(rng, s) for s in self.shapes]

    def run(self, state, inp):
        gma = state["gma"]
        res = gmalg.decompose_lie_triple_iso(gmalg.LinearMapRep(self.ring, inp["l"]), gma, gma)
        return {
            "status": res.status,
            "lam": res.lam,
            "m": None if res.m is None else res.m.matrix.copy(),
            "n": None if res.n is None else res.n.matrix.copy(),
        }

    def check(self, state, inp, out):
        shape = inp["shape"]
        if out["status"] != "ok":
            return f"{shape}: status {out['status']}"
        if out["lam"] != inp["lam"]:
            return f"{shape}: sign {out['lam']}, want {inp['lam']}"
        if not np.array_equal(out["m"], inp["m"]):
            return f"{shape}: m is not the expected Jordan map"
        if not np.array_equal(out["n"], inp["n"]):
            return f"{shape}: n is not the expected central map"
        return None

    def corruptions(self, pairs):
        inp, out = pairs[0]
        return [("sign flipped", inp, dict(out, lam=-out["lam"]))]


WORKLOADS = {w.name: w for w in (TraceSpaceM3, RoundtripM4, QLaneM3, LtiM3)}
