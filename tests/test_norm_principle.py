"""Norm-compatibility witnesses: symmetric/antisymmetric splitting, the
invertible-corner domain, direct and factored witnesses, and the
brute-force set comparison they are checked against."""

import dataclasses
import hashlib
import itertools
import random
from functools import cached_property

import pytest
from hypothesis import assume, given, settings, strategies as st
from ring_laws import dense_apply

from azunorm import norm_principle, presets
from azunorm.algebras import AlgebraWithInvolution, MatrixAlgebra, hermitian_involution
from azunorm.groups import enumerate_unitary
from azunorm.hilbert90 import h90_witness
from azunorm.norm_principle import (NPWitness, PreconditionError, PlusMinusSplit,
                                    direct_np_witness, np_bruteforce_check,
                                    np_witness, open_set_member, pm_split)
from azunorm.rings import ClassificationError, RingMatrix


def m2_split():
    aw = presets.unitary_m2_f3i("identity")
    return aw, pm_split(aw)


def scalar(alg, n):
    return alg.elem(alg.scale_base_p(alg.one_p(), alg.base.int_p(n)))


def test_split_shape_matrix_case():
    aw, sp = m2_split()
    alg = aw.algebra
    assert sp.m == 4
    assert sp.basis_plus[0] == alg.one_p()
    assert len(sp.basis_plus) == len(sp.basis_minus) == 4
    for p in sp.basis_plus:
        assert aw.sigma_p(p) == p
    for p in sp.basis_minus:
        assert aw.sigma_p(p) == alg.neg_p(p)


def test_split_needs_unitary_involution():
    from azunorm.algebras import (AlgebraWithInvolution, MatrixAlgebra,
                                  transpose_involution)
    from azunorm.rings import PrimeField
    a = MatrixAlgebra(PrimeField(3), 2)
    aw = AlgebraWithInvolution(a, transpose_involution(a))
    with pytest.raises(ClassificationError):
        pm_split(aw)


def test_membership_frozen():
    aw, sp = m2_split()
    alg = aw.algebra
    assert open_set_member(sp, alg.elem(sp.sqrt_b))
    assert not open_set_member(sp, alg.elem(alg.one_p()))


def test_direct_witness_on_root_scalar():
    aw, sp = m2_split()
    alg = aw.algebra
    w = direct_np_witness(sp, alg.elem(sp.sqrt_b))
    assert w.route == "direct" and w.verified
    assert w.w.payload == scalar(alg, 2).payload


def test_direct_witness_outside_domain_rejected():
    aw, sp = m2_split()
    alg = aw.algebra
    with pytest.raises(PreconditionError):
        direct_np_witness(sp, alg.elem(alg.one_p()))


def test_factored_witness_on_identity():
    aw, sp = m2_split()
    alg = aw.algebra
    w = np_witness(sp, alg.elem(alg.one_p()))
    assert w.route == "factored" and w.verified
    assert w.w.payload == alg.one_p()
    assert w.seed is None            # anchored candidates sufficed
    w1, w2 = w.parts
    assert w1.route == w2.route == "direct"
    assert (w1.w * w2.w).payload == w.w.payload


def test_witness_needs_a_unit():
    aw, sp = m2_split()
    alg = aw.algebra
    with pytest.raises(PreconditionError):
        np_witness(sp, alg.elem(alg.zero_p()))


def test_witness_identities_replay():
    aw, sp = m2_split()
    alg = aw.algebra
    C = aw.center_ring
    checked = 0
    for idx in range(0, alg.size, 97):
        p = alg.decode(idx)
        if not alg.is_unit_p(p):
            continue
        w = np_witness(sp, alg.elem(p), seed=11)
        assert w.verified
        wp = w.w.payload
        assert alg.mul_p(wp, aw.sigma_p(wp)) == alg.one_p()
        na = aw.nrd_p(p)
        want = C.mul_p(na, C.inv_p(C.sigma_p(na)))
        assert aw.nrd_p(wp) == want
        checked += 1
    assert checked >= 40


def test_degree_one_split_and_witnesses():
    d1 = presets.degree_one_unitary("f3i")
    alg = d1.algebra
    sp = pm_split(d1)
    assert sp.m == 1
    root = alg.elem(sp.sqrt_b)
    one = alg.elem(alg.one_p())
    assert open_set_member(sp, root) and open_set_member(sp, one)
    w_root = np_witness(sp, root)
    w_one = np_witness(sp, one)
    assert w_root.route == w_one.route == "direct"
    assert w_root.verified and w_one.verified
    assert w_root.w.payload == scalar(alg, 2).payload
    assert w_one.w.payload == alg.one_p()


def test_bruteforce_m2_f3i():
    rep = np_bruteforce_check(presets.unitary_m2_f3i("identity"))
    assert rep.ok and rep.equal
    assert rep.lhs_size == rep.rhs_size == 4
    assert rep.unitary_count == 96
    assert rep.lhs == rep.rhs


def test_bruteforce_degree_one_frozen():
    rep = np_bruteforce_check(presets.degree_one_unitary("f3i"))
    assert rep.ok
    assert (rep.lhs_size, rep.rhs_size) == (4, 4)
    assert (rep.unit_count, rep.unitary_count) == (8, 4)


def test_bruteforce_first_kind_rejected():
    from azunorm.algebras import (AlgebraWithInvolution, MatrixAlgebra,
                                  transpose_involution)
    from azunorm.rings import PrimeField
    a = MatrixAlgebra(PrimeField(3), 2)
    aw = AlgebraWithInvolution(a, transpose_involution(a))
    with pytest.raises(ClassificationError):
        np_bruteforce_check(aw)


def test_anchored_candidates_land_in_domain():
    aw, sp = m2_split()
    alg = aw.algebra
    count = 0
    for v, vinv in sp.anchored_candidates():
        assert alg.mul_p(v, vinv) == alg.one_p()
        assert open_set_member(sp, alg.elem(v))
        count += 1
        if count >= 20:
            break
    assert count == 20


def test_direct_route_computes_omega_once(monkeypatch):
    aw, sp = m2_split()
    alg = aw.algebra
    a = next(alg.elem(p) for p in alg.elements_p()
             if alg.is_unit_p(p) and open_set_member(sp, alg.elem(p)))
    real = norm_principle._omega
    calls = []

    def counted(split, payload):
        calls.append(payload)
        return real(split, payload)

    monkeypatch.setattr(norm_principle, "_omega", counted)
    w = np_witness(sp, a)
    assert w.route == "direct" and w.verified
    assert calls == [a.payload]


# every shipped unitary split, with the code stride its elements are checked at:
# all elements of the degree-one cases and of h = identity, strides prime to
# the digit sizes through the others
SPLIT_STRIDES = {"m2-f3i-identity": 1, "m2-f3i-diag": 7, "m2-f3i-hyperbolic": 7,
                 "m2-f5split": 401, **{f"deg1-{n}": 1 for n in presets.ETALE_NAMES}}


def _shipped_unitary(name):
    if name.startswith("m2-f3i-"):
        return presets.unitary_m2_f3i(name[len("m2-f3i-"):])
    if name == "m2-f5split":
        return presets.unitary_m2_f5split()
    return presets.degree_one_unitary(name[len("deg1-"):])


@pytest.mark.parametrize("name", sorted(SPLIT_STRIDES))
def test_minus_map_stacks_the_fixed_coordinates_of_minus_products(name):
    aw = _shipped_unitary(name)
    sp = pm_split(aw)
    alg = aw.algebra
    r, m = alg.rank, sp.m
    assert (sp.minus_map.nrows, sp.minus_map.ncols) == (m * r, r)
    for code in range(0, alg.size, SPLIT_STRIDES[name]):
        a = alg.decode(code)
        coords = alg.coords_p(a)
        got = sp.minus_map.apply(coords)
        assert got == dense_apply(sp.minus_map, coords)
        assert sp.basis_inverse.apply(coords) == dense_apply(sp.basis_inverse, coords)
        assert [got[j * r:(j + 1) * r] for j in range(m)] == \
            [sp.to_fixed(alg.mul_p(a, b)) for b in sp.basis_minus]


@pytest.mark.parametrize("name", sorted(SPLIT_STRIDES))
def test_split_coordinates_are_explicit_combinations(name):
    # from_minus_coords and from_plus_coords against sum c_k * b_k, on every
    # coordinate vector; the minus one is also sqrt_b times the plus one
    aw = _shipped_unitary(name)
    sp = pm_split(aw)
    alg = aw.algebra
    base = alg.base

    def combination(coords, basis):
        acc = alg.zero_p()
        for c, b in zip(coords, basis):
            acc = alg.add_p(acc, alg.scale_base_p(b, c))
        return acc

    zeros = [base.zero_p()] * sp.m
    for combo in itertools.product(list(base.elements_p()), repeat=sp.m):
        minus = sp.from_minus_coords(combo)
        plus = sp.from_plus_coords(combo)
        assert minus == combination(combo, sp.basis_minus)
        assert plus == combination(combo, sp.basis_plus)
        assert minus == alg.mul_p(sp.sqrt_b, plus)
        assert sp.to_fixed(minus) == list(combo) + zeros
        assert sp.to_fixed(plus) == zeros + list(combo)
    if sp.m == 1:
        # the degree-one corner is empty: every record's companion is basis_minus[0]
        records = [norm_principle._omega(sp, p) for p in alg.elements_p()]
        records = [rec for rec in records if rec is not None]
        assert records
        for v, av, r, u in records:
            assert v == sp.basis_minus[0]
            assert u == combination(sp.to_fixed(av)[:1], sp.basis_minus)
            assert alg.add_p(alg.scale_base_p(alg.one_p(), r), u) == av


def test_omega_on_a_unit_multiplies_once(monkeypatch):
    # the corner columns come from minus_map; a*v is the one algebra product
    aw, sp = m2_split()
    alg = aw.algebra
    a = next(p for p in alg.elements_p()
             if alg.is_unit_p(p) and norm_principle._omega(sp, p) is not None)
    real = MatrixAlgebra.mul_p
    calls = []

    def counted(self, x, y):
        calls.append((x, y))
        return real(self, x, y)

    monkeypatch.setattr(MatrixAlgebra, "mul_p", counted)
    v, av, _, _ = norm_principle._omega(sp, a)
    assert calls == [(a, v)]
    assert av == real(alg, a, v)


def test_bruteforce_sweep_tests_unitarity_without_products(monkeypatch):
    # one is_unitary_p per unit whose nrd lies on the 4-point circle (2,880
    # of the 5,760 units) and no full product a*sigma(a)
    aw = presets.unitary_m2_f3i("identity")
    counts = {"mul_p": 0, "is_unitary_p": 0}

    def counted(cls, name):
        real = getattr(cls, name)

        def wrapper(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(cls, name, wrapper)

    counted(MatrixAlgebra, "mul_p")
    counted(AlgebraWithInvolution, "is_unitary_p")
    rep = np_bruteforce_check(aw)
    assert counts == {"mul_p": 0, "is_unitary_p": 2880}
    assert (rep.unit_count, rep.unitary_count) == (5760, 96)
    assert rep.lhs == rep.rhs == {(0, 1), (0, 2), (1, 0), (2, 0)}
    assert rep.equal and (rep.lhs_size, rep.rhs_size) == (4, 4)


def _hermitian_m2_f3split():
    c = presets.etale_preset("f3split")
    a = MatrixAlgebra(c, 2)
    return AlgebraWithInvolution(a, hermitian_involution(a, RingMatrix.identity(c, 2)))


# the criterion-1 cases of at most 6,561 elements, and hermitian M2(f3split)
SMALL_SWEEPS = {**{f"deg1-{n}": lambda n=n: presets.degree_one_unitary(n)
                   for n in presets.ETALE_NAMES},
                **{f"m2-f3i-{h}": lambda h=h: presets.unitary_m2_f3i(h)
                   for h in presets.H_NAMES},
                "m2-f3split": _hermitian_m2_f3split}


def _plain_sweep(awi):
    """The norm identity's report by a sweep with no circle filter: every
    unit is tested for unitarity."""
    alg, C = awi.algebra, awi.center_ring
    nrds, lhs = set(), set()
    units = unitary = 0
    for p in alg.elements_p():
        if not alg.is_unit_p(p):
            continue
        units += 1
        nv = awi.nrd_p(p)
        nrds.add(nv)
        if awi.is_unitary_p(p):
            unitary += 1
            lhs.add(nv)
    rhs = {C.mul_p(z, C.inv_p(C.sigma_p(z))) for z in nrds}
    return norm_principle.NPBruteReport(
        equal=lhs == rhs, lhs_size=len(lhs), rhs_size=len(rhs),
        unit_count=units, unitary_count=unitary, lhs=lhs, rhs=rhs)


@pytest.mark.parametrize("case", sorted(SMALL_SWEEPS))
def test_bruteforce_equals_a_plain_sweep(case):
    awi = SMALL_SWEEPS[case]()
    got = np_bruteforce_check(awi)
    want = _plain_sweep(awi)
    for f in dataclasses.fields(want):
        assert getattr(got, f.name) == getattr(want, f.name), f.name
    assert got.equal


CIRCLE_CASES = {**SMALL_SWEEPS, "m2-f5split": presets.unitary_m2_f5split}


@pytest.mark.parametrize("case", sorted(CIRCLE_CASES))
def test_reduced_norms_of_listed_unitaries_lie_on_the_circle(case):
    # the inclusion np_bruteforce_check assumes, on U listed by frames
    awi = CIRCLE_CASES[case]()
    C = awi.center_ring
    one = C.one_p()
    unitary = enumerate_unitary(awi)
    assert unitary
    for u in unitary:
        z = awi.nrd_p(u.payload)
        assert C.mul_p(z, C.sigma_p(z)) == one, u


def test_anchored_records_are_a_plain_attribute_built_on_first_use():
    aw, sp = m2_split()
    assert not any(isinstance(x, cached_property) for x in vars(PlusMinusSplit).values())
    assert vars(sp)["_anchored"] is None
    pairs = sp.anchored_candidates()
    records = sp._anchored
    assert [(v, vinv) for v, vinv, _ in records] == pairs
    sp.anchored_candidates()
    assert sp._anchored is records


def _seeded_units(alg, count, seed=7):
    rng = random.Random(seed)
    units = []
    while len(units) < count:
        p = alg.decode(rng.randrange(alg.size))
        if alg.is_unit_p(p):
            units.append(p)
    return units


def test_anchored_factor_witness_built_once(monkeypatch):
    aw, sp = m2_split()
    alg = aw.algebra
    real = norm_principle._direct_witness
    records = []

    def counted(split, a, rec):
        records.append(rec)
        return real(split, a, rec)

    monkeypatch.setattr(norm_principle, "_direct_witness", counted)
    anchored = sp.anchored_candidates()
    assert len(records) == len(anchored)
    ws = [np_witness(sp, alg.elem(p), seed=i)
          for i, p in enumerate(_seeded_units(alg, 120))]
    randomly = sum(w.seed is not None for w in ws)
    assert sum(w.route == "factored" for w in ws) - randomly >= 40
    # one build per direct witness and per first factor, and per second
    # factor drawn at random; the anchored second factors were built above
    assert len(records) == len(anchored) + len(ws) + randomly
    assert len({id(rec) for rec in records}) == len(records)


def test_witnesses_frozen_on_seeded_units():
    aw, sp = m2_split()
    alg = aw.algebra
    digest = hashlib.sha256()
    routes = []
    for i, p in enumerate(_seeded_units(alg, 120)):
        w = np_witness(sp, alg.elem(p), seed=i)
        routes.append(w.route)
        parts = w.parts and tuple((x.route, x.w.payload, x.verified) for x in w.parts)
        digest.update(repr((w.route, w.w.payload, w.verified, w.seed, parts)).encode())
    assert (routes.count("direct"), routes.count("factored")) == (31, 89)
    assert digest.hexdigest() == \
        "313a14982ff1209e89bf36f619a3d46254bc11053f737383cef1cb2ffaf6fffa"


# -- both witness identities, recomputed from det and the center's sigma ----------

@pytest.fixture(scope="module", params=("m2-f5split",) + presets.ETALE_NAMES)
def witness_case(request):
    aw = presets.unitary_m2_f5split() if request.param == "m2-f5split" \
        else presets.degree_one_unitary(request.param)
    return aw, pm_split(aw), enumerate_unitary(aw)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_np_witness_identities(witness_case, data):
    aw, sp, _ = witness_case
    alg = aw.algebra
    C = alg.center
    a = alg.decode(data.draw(st.integers(0, alg.size - 1)))
    assume(alg.is_unit_p(a))
    w = np_witness(sp, alg.elem(a), seed=data.draw(st.integers(0, 2 ** 16))).w.payload
    assert alg.mul_p(w, aw.sigma_p(w)) == alg.one_p()
    na = alg.det_p(a)
    assert alg.det_p(w) == C.mul_p(na, C.inv_p(C.sigma_p(na)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_h90_witness_identity(witness_case, data):
    aw, _, unitary = witness_case
    alg = aw.algebra
    a = data.draw(st.sampled_from(unitary))
    b = h90_witness(aw, a).b.payload
    assert alg.mul_p(b, alg.inv_p(aw.sigma_p(b))) == a.payload
