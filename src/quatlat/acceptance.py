"""The acceptance suite: every required finite computation, runnable via
`quatlat repro` or through tests/test_acceptance.py.

Each check is exact (integer and field arithmetic throughout, no
tolerances) and returns a result record; run_all prints one pass/fail
line per check.  The gamma3 signed mixed-equation check asserts the
stated target set verbatim; see the package tests for the same
enumeration validated against the endomorphism-transport derivation.
"""

from __future__ import annotations

import random
import time

from .ff import Field, QuadExt, Value, find_nonsquare, norm_fiber, sigma_k
from .lattice import (
    LatticeParams,
    build_generators,
    build_square_table,
    check_finite_lemmas,
    compute_k_tau,
    letter_map,
    oracle_check_table,
    phi_k_map,
    verify_homomorphism,
)
from .parikh import compare, enumerate_parikh, membership
from .presets import ENDOMORPHISMS, EXAMPLES, GAMMA3_DICTIONARY, get_presentation
from .presets import first_commuting_language, gamma3_orbits
from .quat import QuatAlgebra, gamma3_matrix_relations, verify_power_lemma
from .rewrite import free_reduce, normal_form, pi_action


class CheckResult(Value):
    __slots__ = ("name", "ok", "detail", "seconds")

    def __init__(self, name: str, ok: bool, detail: str, seconds: float):
        self._set(name, ok, detail, seconds)


def check_construction_fidelity():
    params = get_presentation("q3").params
    ext = params.ext
    fiber_a, fiber_b = build_generators(params)
    want_a = {ext.element(1), ext.element(-1), ext.element(0, 1), ext.element(0, -1)}
    want_b = {ext.element(1, 1), ext.element(1, -1), ext.element(-1, 1), ext.element(-1, -1)}
    ok_sets = set(fiber_a) == want_a and set(fiber_b) == want_b
    pres = build_square_table(params)
    g3 = get_presentation("gamma3")
    ok_table = len(pres.swap) == 16 and verify_homomorphism(g3, pres, letter_map(g3, pres, GAMMA3_DICTIONARY))["ok"]
    ok = ok_sets and ok_table
    return ok, (
        f"fibers {'match' if ok_sets else 'MISMATCH'}; "
        f"16-entry table vs letter dictionary {'consistent' if ok_table else 'INCONSISTENT'}"
    )


def check_oracle_equivalence():
    rep3 = oracle_check_table(get_presentation("q3"))
    rep5 = oracle_check_table(get_presentation("q5"))
    rels = gamma3_matrix_relations()
    ok = rep3["ok"] and rep5["ok"] and all(rels.values())
    return ok, (
        f"q=3 algebra oracle {rep3['checked'] - len(rep3['failures'])}/{rep3['checked']}, "
        f"q=5 {rep5['checked'] - len(rep5['failures'])}/{rep5['checked']}, "
        f"matrix relations {sum(rels.values())}/4"
    )


def check_orbits():
    o1, o2 = gamma3_orbits(get_presentation("gamma3"))
    return (o1 == 12 and o2 == 12), f"pi_a orbit of x^2 = {o1}, pi_x orbit of a^2 = {o2}"


def check_k_tau_sigma():
    q3, q5 = get_presentation("q3"), get_presentation("q5")
    ok = q3.k_tau == 2 and q5.k_tau == 1
    details = [f"k_tau(3,-1,-1)={q3.k_tau}", f"k_tau(5,2,3)={q5.k_tau}"]
    for pres in (q3, q5):
        ext, k = pres.params.ext, pres.k_tau
        fixed = all(sigma_k(ext, l.index, k) == l.index for l in pres.alphabet_a + pres.alphabet_b)
        ok = ok and fixed
        if not fixed:
            details.append(f"sigma_{k} not identity at q={pres.params.field.q}")
    checked = 0
    for q in (3, 5, 7):
        field = Field(q)
        c = find_nonsquare(field)
        ext = QuadExt(field, c)
        for idx in range(2, q):
            tau = field.from_index(idx)
            params = LatticeParams(ext, tau)
            k = compute_k_tau(params)
            checked += 1
            if tau ** (field.p**k) != tau or field.p**k > field.q**2:
                ok = False
                details.append(f"bound fails at q={q}, tau={tau!r}")
    details.append(f"{checked} tau values bounded")
    return ok, "; ".join(details)


def check_endomorphisms():
    pres = get_presentation("q3")
    rep_ktau = verify_homomorphism(pres, pres, phi_k_map(pres, pres, 2))
    rep_phi1 = verify_homomorphism(pres, pres, phi_k_map(pres, pres, 1))
    g4 = get_presentation("gamma4")
    rep_g4 = verify_homomorphism(g4, g4, letter_map(g4, g4, ENDOMORPHISMS["gamma4"][1]))
    lemma_ok, lemma_count = True, 0
    for params in (pres.params, get_presentation("q5").params):
        algebra = QuatAlgebra(params.ext)
        fa, fb = build_generators(params)
        for k in (1, 2):
            for xi in fa + fb:
                lemma_count += 1
                if not verify_power_lemma(algebra, xi, None, k):
                    lemma_ok = False
    ok = rep_ktau["ok"] and rep_phi1["ok"] and rep_g4["ok"] and lemma_ok
    return ok, (
        f"phi_(k_tau) ninth powers {rep_ktau['ok']}, phi_1 cube map {rep_phi1['ok']}, "
        f"gamma4 fourth-power map {rep_g4['ok']}, power closed form {lemma_count} cases {lemma_ok}"
    )


def check_p_power_relations():
    rep3 = check_finite_lemmas(get_presentation("q3"), powers=(1, 2, 3, 4))
    rep5 = check_finite_lemmas(get_presentation("q5"), powers=(1, 2, 3))
    ok = rep3["ok"] and rep5["ok"]
    n3 = sum(1 for v in rep3["powers"].values() if v)
    n5 = sum(1 for v in rep5["powers"].values() if v)
    return ok, (
        f"q=3: power relation holds {n3}/{len(rep3['powers'])} (n in {{2,4}} only), "
        f"q=5: holds {n5}/{len(rep5['powers'])} (all n, k_tau=1); "
        f"index lemmas clean: {rep3['ok'] and rep5['ok']}"
    )


def check_parikh_gamma3_diagonal():
    g3 = get_presentation("gamma3")
    ex = EXAMPLES["gamma3/a;x;b^-1;x"]
    spec = ex.spec(g3)
    points = enumerate_parikh(g3, spec, 30)
    want = ((0, 0, 0, 0), (1, 1, 1, 1), (9, 9, 9, 9))
    probes = (
        membership(g3, spec, (81, 81, 81, 81)),
        not membership(g3, spec, (27, 27, 27, 27)),
        not membership(g3, spec, (81, 81, 81, 80)),
    )
    ok = points == want and all(probes)
    return ok, f"N=30 -> {points}; probes 81^4/27^4/(81,81,81,80): {probes}"


def check_parikh_gamma3_signed():
    # target set as stated: {0} u {(0,n,-n,0)} u {+-(3,-3,3,3)} u {+-(9,9,9,9)}
    g3 = get_presentation("gamma3")
    ex = EXAMPLES["gamma3/a;x;b;x"]
    spec = ex.spec(g3)
    points = enumerate_parikh(g3, spec, 10)
    want = {(0, 0, 0, 0), (3, -3, 3, 3), (-3, 3, -3, -3), (9, 9, 9, 9), (-9, -9, -9, -9)}
    for n in range(1, 11):
        want.add((0, n, -n, 0))
        want.add((0, -n, n, 0))
    got = set(points)
    missing = sorted(want - got)
    extra = sorted(got - want)
    ok = not missing and not extra
    detail = f"N=10: {len(points)} points"
    if not ok:
        detail += f"; missing from enumeration: {missing}; not in stated set: {extra}"
    return ok, detail


def _check_languages(lattice: str, bound: int, how_many: str):
    """Every registered language of one lattice against its expected set
    at one bound; `how_many` spells their number for the detail."""
    pres = get_presentation(lattice)
    fails = []
    for key, ex in EXAMPLES.items():
        if ex.lattice != lattice:
            continue
        rep = compare(enumerate_parikh(pres, ex.spec(pres), bound), ex.expected, bound)
        if not rep.ok:
            fails.append((key, rep.missing, rep.extra))
    return not fails, f"{how_many} languages at N={bound}; failures: {fails or 'none'}"


def check_parikh_gamma4():
    return _check_languages("gamma4", 15, "four")


def check_parikh_gamma32():
    return _check_languages("gamma32", 10, "five")


def check_parikh_q5_commuting():
    pres = get_presentation("q5")
    spec, expected = first_commuting_language(pres)
    points = enumerate_parikh(pres, spec, 10)
    rep = compare(points, expected, 10)
    return rep.ok, f"(n,m,n,m) at N=10: {len(points)} points, exact: {rep.ok}"


def check_prune_oracle():
    fails = []
    for key, ex in EXAMPLES.items():
        pres = get_presentation(ex.lattice)
        spec = ex.spec(pres)
        bound = 6
        pruned = enumerate_parikh(pres, spec, bound, prune=True)
        brute = enumerate_parikh(pres, spec, bound, prune=False)
        if pruned != brute:
            fails.append(key)
    pres = get_presentation("q5")
    spec, _ = first_commuting_language(pres)
    if enumerate_parikh(pres, spec, 6, True) != enumerate_parikh(pres, spec, 6, False):
        fails.append("q5-commuting")
    return not fails, f"pruned == brute force at N<=6 on {len(EXAMPLES) + 1} specs; failures: {fails or 'none'}"


def _random_word(rng, pres, length, side=None):
    pool = [
        l
        for l in pres.alphabet_a + pres.alphabet_b
        if side is None or l.side == side
    ]
    return tuple(rng.choice(pool) for _ in range(length))


def _random_reduced(rng, pres, length, side):
    pool = [l for l in (pres.alphabet_a if side == "A" else pres.alphabet_b)]
    out = []
    while len(out) < length:
        g = rng.choice(pool)
        if out and out[-1] == pres.inverse[g]:
            continue
        out.append(g)
    return tuple(out)


def check_normal_form_lengths():
    rng = random.Random(20240811)
    bad = 0
    for name in ("gamma3", "q5"):
        pres = get_presentation(name)
        for _ in range(500):
            w = _random_word(rng, pres, rng.randint(0, 24))
            ab = normal_form(pres, w, "AB")
            ba = normal_form(pres, w, "BA")
            if len(ab.a_part) != len(ba.a_part) or len(ab.b_part) != len(ba.b_part):
                bad += 1
            if len(ab) > len(w):
                bad += 1
    return bad == 0, f"AB/BA component lengths agree on 1000 random words; {bad} failures"


def check_pi_preservation():
    rng = random.Random(20240812)
    bad = 0
    for name in ("gamma3", "q5"):
        pres = get_presentation(name)
        for _ in range(500):
            g = _random_reduced(rng, pres, rng.randint(1, 7), "A")
            h = _random_reduced(rng, pres, rng.randint(1, 7), "B")
            pg_h, ph_g = pi_action(pres, g, h)
            if len(pg_h) != len(h) or len(ph_g) != len(g):
                bad += 1
                continue
            cut = rng.randint(1, len(h))
            if pi_action(pres, g, h[:cut])[0] != pg_h[:cut]:
                bad += 1
    return bad == 0, f"pi length and prefix preservation on 1000 random pairs; {bad} failures"


def check_free_reduction():
    rng = random.Random(20240813)
    bad = 0
    for name in ("gamma3", "q5"):
        pres = get_presentation(name)
        for _ in range(500):
            side = rng.choice("AB")
            w = _random_word(rng, pres, rng.randint(0, 20), side)
            # reference: cancel a random adjacent inverse pair until none left
            ref = list(w)
            while True:
                spots = [
                    i
                    for i in range(len(ref) - 1)
                    if ref[i + 1] == pres.inverse[ref[i]]
                ]
                if not spots:
                    break
                i = rng.choice(spots)
                del ref[i : i + 2]
            if tuple(ref) != free_reduce(pres, w):
                bad += 1
    return bad == 0, f"random-order cancellation agrees on 1000 words; {bad} failures"


def check_field_axioms():
    rng = random.Random(20240814)
    bad = 0
    for p, e in ((3, 2), (5, 2)):
        field = Field(p, e)
        elems = list(field.elements())
        for _ in range(500):
            x, y, z = (rng.choice(elems) for _ in range(3))
            if (x + y) + z != x + (y + z) or (x * y) * z != x * (y * z):
                bad += 1
            if x * (y + z) != x * y + x * z or x * y != y * x:
                bad += 1
            if not x.is_zero() and x * x.inverse() != field.one:
                bad += 1
    fiber_ok = True
    for q in (3, 5, 7, 9):
        field = Field(3, 2) if q == 9 else Field(q)
        ext = QuadExt(field, find_nonsquare(field))
        total = 0
        for k in range(1, field.q):
            s = field.from_index(k)
            fiber = norm_fiber(ext, s)
            total += len(fiber)
            if len(fiber) != field.q + 1:
                fiber_ok = False
            if any(-x not in fiber or x.conj() not in fiber for x in fiber):
                fiber_ok = False
        if total != field.q**2 - 1:
            fiber_ok = False
    ok = bad == 0 and fiber_ok
    return ok, f"1000 random axiom triples ({bad} failures); fibers partition with size q+1: {fiber_ok}"


ALL_CHECKS = (
    ("1-construction-fidelity", check_construction_fidelity),
    ("2-oracle-equivalence", check_oracle_equivalence),
    ("3-orbits", check_orbits),
    ("4-k-tau-sigma", check_k_tau_sigma),
    ("5-endomorphisms", check_endomorphisms),
    ("6-p-power-relations", check_p_power_relations),
    ("7a-parikh-gamma3-diagonal", check_parikh_gamma3_diagonal),
    ("7b-parikh-gamma3-signed", check_parikh_gamma3_signed),
    ("7c-parikh-gamma4", check_parikh_gamma4),
    ("7d-parikh-gamma32", check_parikh_gamma32),
    ("7e-parikh-q5-commuting", check_parikh_q5_commuting),
    ("8a-prune-oracle", check_prune_oracle),
    ("8b-normal-form-lengths", check_normal_form_lengths),
    ("8c-pi-preservation", check_pi_preservation),
    ("8d-free-reduction", check_free_reduction),
    ("8e-field-axioms-fibers", check_field_axioms),
)


def run_check(name: str, func) -> CheckResult:
    t0 = time.perf_counter()
    ok, detail = func()
    return CheckResult(name, ok, detail, time.perf_counter() - t0)


def run_all(stream=None) -> list:
    results = []
    for name, func in ALL_CHECKS:
        result = run_check(name, func)
        results.append(result)
        if stream is not None:
            status = "PASS" if result.ok else "FAIL"
            stream.write(f"{status} {name} ({result.seconds:.2f}s): {result.detail}\n")
            stream.flush()
    return results
