"""The three benchmark workloads, each a fixed list of checked verdicts.

A verdict is one closed-loop call into moritalab whose answer is compared
with a stored golden answer.  A workload fixes the work and the sizes; the
seed changes only the content: which Hom elements are drawn, which
faithful states are used, and which bimodules fill each chain shape.

Library functions are always reached through their package namespace
(``mr.tensor_product``, not a local import) so that the traced run, which
rebinds those names, sees every call made from here.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from moritalab import bicategory as mb
from moritalab import cli
from moritalab import rings as mr
from moritalab import wstar as mw

TOL = 1e-8
# Eigenvalue floor of the seeded faithful states.  With the library default
# (1e-3) the worst residual of a pass is set by its single worst-conditioned
# state and moves by a decade between seeds.
STATE_FLOOR = 0.05
# Reference draw that fixes the coherence chain shapes; the run seed only
# refills those shapes.
SHAPE_SEED = 20030301


@dataclass
class Verdict:
    """One checked call: ``call(state)`` returns (answer, residuals)."""

    key: str
    golden: str
    call: Callable[[dict], tuple[Any, dict[str, float]]]


@dataclass
class Workload:
    verdicts: list[Verdict]
    headline: str                  # key of the verdict reported as big_verdict_s
    warmup: tuple[str, ...]        # keys run once, untimed, before the pass
    fresh_state: Callable[[], dict] = dict
    # scaling series: metric name -> (family, verdict key, size)
    series: dict[str, tuple[str, str, int]] = field(default_factory=dict)


def _sub_rng(seed: int, key: str) -> random.Random:
    """A generator fixed by (seed, verdict key), so repeated passes agree."""
    return random.Random(f"{seed}/{key}")


def _sub_np_rng(seed: int, key: str) -> np.random.Generator:
    return np.random.default_rng(_sub_rng(seed, key).getrandbits(64))


# ------------------------------------------------------------ ring-morita

def _ring_label(R, n: int) -> str:
    return f"{R.name}^{n}"


def _round_trip_chain(cert, U):
    """The canonical map (U (x) Q) (x) P -> U through the certificate."""
    P, Q = cert.module, cert.inverse
    t_uq = mr.tensor_product(U, Q)
    t_uq_p = mr.tensor_product(t_uq.module, P)
    t_qp = cert.tensor_to_right
    t_u_qp = mr.tensor_product(U, t_qp.module)
    assoc = mr.tensor_associator(t_uq, t_uq_p, t_qp, t_u_qp)
    t_u_b = mr.tensor_product(U, cert.iso_to_right.target)
    mid = mr.tensor_of_maps(t_u_qp, t_u_b, mr.identity_map(U), cert.iso_to_right)
    full = mr.right_unitor(t_u_b).after(mid).after(assoc)
    return t_uq, t_uq_p, full


def ring_morita(seed: int) -> Workload:
    Z2, Z4 = mr.cyclic_ring(2), mr.cyclic_ring(4)
    F2x2 = mr.truncated_polynomial_ring(2, 2)
    F2x3 = mr.truncated_polynomial_ring(2, 3)
    cases = [(Z2, 2), (Z2, 3), (Z4, 2), (Z4, 3), (F2x2, 2), (F2x2, 3),
             (Z2, 4), (F2x3, 2)]
    families = {R.name: mr.right_module_family(R, 16)
                for R in (Z2, Z4, F2x2, F2x3)}
    verdicts: list[Verdict] = []
    series = {}

    def cert_call(P, label):
        def call(state):
            cert = mr.certify_invertible_bimodule(P)
            state[label] = cert
            return {"equivalent": cert.equivalent, "reason": cert.reason}, {}
        return call

    def end_ring_call(P):
        def call(state):
            E = mr.end_ring(P, side="right")
            return mr.ring_iso_search(E, P.left_ring) is not None, {}
        return call

    def round_trip_call(label, i, U):
        def call(state):
            chain = _round_trip_chain(state[label], U)
            state[(label, i)] = chain
            return chain[2].is_bijective(), {}
        return call

    def square_call(label, key, i, j, U, V):
        def call(state):
            cert = state[label]
            t_uq, t_uq_p, full_U = state[(label, i)]
            t_vq, t_vq_p, full_V = state[(label, j)]
            H = mr.hom_group(U, V, side="right")
            rng = _sub_rng(seed, key)
            f = H.from_coordinates([rng.randrange(m)
                                    for m in H.group.invariant_factors])
            s1 = mr.tensor_of_maps(t_uq, t_vq, f, mr.identity_map(cert.inverse))
            s2 = mr.tensor_of_maps(t_uq_p, t_vq_p, s1,
                                   mr.identity_map(cert.module))
            return mr.maps_equal(full_V.after(s2), f.after(full_U)), {}
        return call

    for R, n in cases:
        label = _ring_label(R, n)
        P = mr.column_module(R, n)
        verdicts.append(Verdict(f"cert:{label}", f"cert:{label}",
                                cert_call(P, label)))
        tag = f"rings.certify_col.{_series_tag(R.name)}"
        series[f"{tag}_{n}_s"] = (tag, f"cert:{label}", P.rank)
        verdicts.append(Verdict(f"endring:{label}", "iso", end_ring_call(P)))
        family = families[R.name]
        for i, U in enumerate(family):
            verdicts.append(Verdict(f"roundtrip:{label}:{i}", "bijective",
                                    round_trip_call(label, i, U)))
        nonzero = [i for i, U in enumerate(family) if U.rank][:3]
        for i in nonzero:
            for j in nonzero:
                key = f"square:{label}:{i}->{j}"
                verdicts.append(Verdict(key, "square", square_call(
                    label, key, i, j, family[i], family[j])))

    doubled = mr.scalar_bimodule(Z4, Z4, 2)

    def refute(state):
        cert = mr.certify_invertible_bimodule(doubled)
        return {"equivalent": cert.equivalent, "reason": cert.reason}, {}
    verdicts.append(Verdict("refute:2.Z/4", "refute:2.Z/4", refute))

    def tensor_call(M, N):
        def call(state):
            t = mr.tensor_product(M, N)
            return list(t.module.carrier.invariant_factors), {}
        return call
    for idx, (M, N) in enumerate(mr.tensor_oracle_corpus()):
        verdicts.append(Verdict(f"tensor:{idx}", f"tensor:{idx}",
                                tensor_call(M, N)))

    return Workload(verdicts,
                    headline=f"cert:{_ring_label(F2x2, 3)}",
                    warmup=("cert:Z/2^2", "tensor:0"), series=series)


def _series_tag(ring_name: str) -> str:
    return {"Z/2": "z2", "Z/4": "z4", "Z/2[x]/(x^2)": "f2x2",
            "Z/2[x]/(x^3)": "f2x3"}[ring_name]


# ------------------------------------------------------------ wstar-morita

PATTERNS = ((2,), (3,), (2, 3))
STD_BOUNDS = {"polar": 1e-9, "involution": 1e-9, "commutant": 1e-8,
              "center": 1e-9}


def _cert_answer(cert) -> tuple[dict, dict[str, float]]:
    answer = {"equivalent": cert.equivalent, "reason": cert.reason}
    return answer, ({"residual": cert.residual} if cert.equivalent else {})


def _unitor_balancing_verdicts(tag, H, std_M, std_N, seed) -> list[Verdict]:
    def right(state):
        fus = mw.connes_fusion(H, mw.identity_correspondence(std_N), std_N)
        return mw.right_unitor(H, std_N, fus).is_unitary(TOL), {}

    def left(state):
        fus = mw.connes_fusion(mw.identity_correspondence(std_M), H, std_M)
        return mw.left_unitor(H, std_M, fus).is_unitary(TOL), {}

    key = f"balancing:{tag}"

    def balancing(state):
        fus = mw.connes_fusion(H, mw.conjugate_correspondence(H), std_N)
        res = mw.twisted_balancing_residual(fus, std_N, _sub_np_rng(seed, key),
                                            samples=120)
        return True, {"balancing": res}

    return [Verdict(f"right_unitor:{tag}", "unitary", right),
            Verdict(f"left_unitor:{tag}", "unitary", left),
            Verdict(key, "balancing", balancing)]


def wstar_morita(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    verdicts: list[Verdict] = []
    series = {}

    def cert_call(H):
        return lambda state: _cert_answer(mw.certify_morita_equivalent(H))

    for n in range(2, 7):
        verdicts.append(Verdict(f"cert:M{n}", "cert",
                                cert_call(mw.vector_correspondence(n))))
        series[f"wstar.certify_mn.n{n}_s"] = ("wstar.certify_mn",
                                              f"cert:M{n}", n)

    def l2_call(A):
        def call(state):
            std = mw.gns_standard_form(A, mw.trace_state(A))
            return _cert_answer(mw.certify_morita_equivalent(
                mw.identity_correspondence(std)))
        return call
    for blocks in PATTERNS:
        verdicts.append(Verdict(f"l2:{blocks}", "cert",
                                l2_call(mw.MultiMatrixAlgebra(blocks))))

    refutations = {
        "refute:not-faithful": mw.block_correspondence(
            mw.MultiMatrixAlgebra((2, 1)), mw.MultiMatrixAlgebra((1,)),
            [[1], [0]]),
        "refute:commutant": mw.block_correspondence(
            mw.MultiMatrixAlgebra((2,)), mw.MultiMatrixAlgebra((1,)), [[2]]),
    }
    for key, H in refutations.items():
        verdicts.append(Verdict(key, key, cert_call(H)))

    def std_call(A, phi):
        def call(state):
            std = mw.gns_standard_form(A, phi)
            return True, mw.standard_form_residuals(std)
        return call
    for blocks in PATTERNS + ((4,),):
        A = mw.MultiMatrixAlgebra(blocks)
        for k in range(25):
            phi = mw.random_faithful_state(A, rng, floor=STATE_FLOOR)
            verdicts.append(Verdict(f"std:{blocks}#{k}", "standard_form",
                                    std_call(A, phi)))

    # the three unitor / balancing instances of acceptance criterion 8
    M2 = mw.MultiMatrixAlgebra((2,))
    skew = mw.State(M2, np.diag([2.0 / 3.0, 1.0 / 3.0]).astype(np.complex128))
    std_skew = mw.gns_standard_form(M2, skew)
    verdicts += _unitor_balancing_verdicts(
        "skew", mw.identity_correspondence(std_skew), std_skew, std_skew, seed)
    B = mw.MultiMatrixAlgebra((2, 1))
    std_m = mw.gns_standard_form(
        M2, mw.random_faithful_state(M2, rng, floor=STATE_FLOOR))
    std_b = mw.gns_standard_form(
        B, mw.random_faithful_state(B, rng, floor=STATE_FLOOR))
    verdicts += _unitor_balancing_verdicts(
        "block", mw.block_correspondence(M2, B, [[1, 1]]), std_m, std_b, seed)
    H3 = mw.vector_correspondence(3)
    verdicts += _unitor_balancing_verdicts(
        "vector3", H3,
        mw.gns_standard_form(H3.left_algebra, mw.trace_state(H3.left_algebra)),
        mw.gns_standard_form(H3.right_algebra, mw.trace_state(H3.right_algebra)),
        seed)

    return Workload(verdicts, headline="cert:M6",
                    warmup=("cert:M3", "std:(2, 3)#0"), series=series)


# --------------------------------------------------------- coherence-batch

def _ring_chain_shapes(pool) -> list[list]:
    shape_rng = random.Random(SHAPE_SEED)
    return [pool.sample_chain(shape_rng, 4, max_order=16) for _ in range(50)]


def _refill_chain(pool, rng: random.Random, shape: list) -> list:
    """A chain over the same rings with cells of the same generator counts.

    A chain's cost is set by its rings and ranks, so redrawing only the
    cells keeps each pass's work fixed while the seed changes the content.
    """
    index = {id(R): i for i, R in enumerate(pool.rings)}
    out = []
    for cell in shape:
        i, j = index[id(cell.left_ring)], index[id(cell.right_ring)]
        for _ in range(64):
            M = pool.sample_bimodule(rng, i, j, 16)
            if M.rank == cell.rank:
                break
        else:
            M = cell
        out.append(M)
    return out


def coherence_batch(seed: int, out_dir: str) -> Workload:
    pool = mr.CoherencePool()
    rng = random.Random(seed)
    ring_chains = [_refill_chain(pool, rng, shape)
                   for shape in _ring_chain_shapes(pool)]
    shape_rng = np.random.default_rng(SHAPE_SEED)
    wstar_chains = [mb.sample_wstar_chain(shape_rng, 4, dim_cap=24)[1]
                    for _ in range(20)]
    state_rng = np.random.default_rng(seed)
    algebras = sorted({H.left_algebra for c in wstar_chains for H in c}
                      | {H.right_algebra for c in wstar_chains for H in c},
                      key=lambda A: A.block_sizes)
    states = {A: mw.random_faithful_state(A, state_rng, floor=STATE_FLOOR)
              for A in algebras}

    def fresh_state():
        return {"rings": mb.RingsBicategory(),
                "wstar": mb.WStarBicategory(states=states, tol=TOL)}

    def exact(result):
        return {"holds": result.holds, "discrepancy": result.discrepancy}, {}

    def analytic(result):
        return result.holds, {"discrepancy": result.discrepancy}

    verdicts: list[Verdict] = []
    for k, (P, Q, R, S) in enumerate(ring_chains):
        verdicts += [
            Verdict(f"pentagon.rings:{k}", "pentagon.rings",
                    lambda st, c=(P, Q, R, S):
                    exact(mb.verify_pentagon(st["rings"], *c))),
            Verdict(f"triangle.rings:{k}", "triangle.rings",
                    lambda st, P=P, Q=Q:
                    exact(mb.verify_triangle(st["rings"], P, Q))),
        ]
    for k, (P, Q, R, S) in enumerate(wstar_chains):
        assoc, unitor = f"naturality.wstar:{k}:associator", \
            f"naturality.wstar:{k}:unitor"
        verdicts += [
            Verdict(f"pentagon.wstar:{k}", "analytic",
                    lambda st, c=(P, Q, R, S):
                    analytic(mb.verify_pentagon(st["wstar"], *c))),
            Verdict(f"triangle.wstar:{k}", "analytic",
                    lambda st, P=P, Q=Q:
                    analytic(mb.verify_triangle(st["wstar"], P, Q))),
            Verdict(assoc, "analytic",
                    lambda st, c=(P, Q, R), key=assoc:
                    analytic(mb.verify_associator_naturality(
                        st["wstar"], *c, _sub_np_rng(seed, key)))),
            Verdict(unitor, "analytic",
                    lambda st, P=P, key=unitor:
                    analytic(mb.verify_unitor_naturality(
                        st["wstar"], P, _sub_np_rng(seed, key)))),
        ]

    def demo_call(name):
        report = os.path.join(out_dir, f"demo-{name}.json")

        def call(state):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["demo", name, "--report", report])
            with open(report, encoding="utf-8") as fh:
                all_pass = json.load(fh)["all_pass"]
            return {"exit": code, "all_pass": all_pass}, {}
        return call
    for name in sorted(cli.DEMOS):
        verdicts.append(Verdict(f"demo:{name}", "demo", demo_call(name)))

    # the W* demos move by a quarter between runs on a shared host, the
    # exact-side demo by half that
    return Workload(verdicts, headline="demo:matrix-ring-pair",
                    warmup=("pentagon.rings:0", "pentagon.wstar:0",
                            "demo:non-tracial-fusion"),
                    fresh_state=fresh_state)


def build(name: str, seed: int, out_dir: str) -> Workload:
    if name == "ring-morita":
        return ring_morita(seed)
    if name == "wstar-morita":
        return wstar_morita(seed)
    if name == "coherence-batch":
        return coherence_batch(seed, out_dir)
    raise ValueError(f"unknown workload {name!r}")

