import dataclasses
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabshare import catalog, classify, infogroup, key_transport
from stabshare.code import load
from stabshare.pauli import pairing, parse, symplectic_vector
from stabshare.twirl import (
    intermediate_group,
    sample_twirl,
    twirl_operator,
    twirl_plan,
)

from conftest import count_calls, random_code

DATA_CODES = sorted((Path(__file__).parent / "data").glob("*.json"))


def plan_for(name, n=None):
    c = catalog(name, n)
    t = classify(c)
    return c, t, twirl_plan(c, t)


def test_intermediate_group_examples(cnot, five_qubit):
    _, t, _ = plan_for("cnot_2_1")
    assert intermediate_group(cnot, t).generators == ((0, 1),)
    g5 = catalog("ghz_n", 5)
    t5 = classify(g5)
    assert intermediate_group(g5, t5).generators == ((0, 1),)
    tf = classify(five_qubit)
    assert intermediate_group(five_qubit, tf).is_trivial


def test_plan_certifies_key_length(monkeypatch):
    real = infogroup.canonical_form

    def unpaired(group):
        # The partner of c_1 becomes c_1 itself, which pairs to 0 with c_1:
        # r + s is unchanged, but c_1 now survives the twirl.
        form = real(group)
        c_1 = form.basis[2 * form.r]
        return dataclasses.replace(form, partners=(c_1,) + form.partners[1:])

    c = catalog("cnot_2_1")
    assert twirl_plan(c).key_length == 1
    monkeypatch.setattr(infogroup, "canonical_form", unpaired)
    with pytest.raises(infogroup.SchemeConsistencyError,
                       match="pair with rank 0"):
        twirl_plan(c)


def test_cnot_plan_is_x_twirl():
    _, _, plan = plan_for("cnot_2_1")
    assert [str(g) for g in plan.twirl_generators] == ["X"]
    assert plan.key_length == 1
    assert (plan.canonical.r, plan.canonical.s) == (0, 1)
    assert plan.prescription.threshold_q == 2


def test_ghz_plans_have_unit_key():
    for n in (3, 4, 5, 6):
        _, _, plan = plan_for("ghz_n", n)
        assert [str(g) for g in plan.twirl_generators] == ["X"]
        assert plan.key_length == 1
        assert plan.prescription.threshold_q == n


def test_four_two_two_plan():
    _, _, plan = plan_for("four_two_two")
    assert plan.canonical.r + plan.canonical.s == 2  # r + s = k
    assert plan.key_length == 2 * plan.canonical.r + plan.canonical.s
    assert plan.k <= plan.key_length <= 2 * plan.k
    assert plan.prescription.threshold_q == 3


def test_empty_plan_for_perfect_schemes(five_qubit, steane):
    for c in (five_qubit, steane):
        plan = twirl_plan(c)
        assert plan.is_empty
        assert plan.key_length == 0
        assert plan.twirl_generators == ()
        with pytest.raises(ValueError):
            sample_twirl(plan, 1)


def test_key_length_bounds_and_pair_count(catalog_codes):
    for c in catalog_codes:
        t = classify(c)
        plan = twirl_plan(c, t)
        if not t.intermediate:
            continue
        assert plan.canonical.r + plan.canonical.s == c.k
        assert c.k <= plan.key_length <= 2 * c.k
        if plan.canonical.r == 0:
            assert plan.key_length == c.k


def test_sample_twirl_examples():
    _, _, plan = plan_for("cnot_2_1")
    assert twirl_operator(plan, (0,)).is_identity
    assert twirl_operator(plan, (1,)) == parse("X")
    key, op = sample_twirl(plan, seed=7)
    assert key == sample_twirl(plan, seed=7)[0]  # deterministic
    assert op == twirl_operator(plan, key)
    with pytest.raises(ValueError, match="digits"):
        twirl_operator(plan, (0, 1))


def test_twirl_kills_every_intermediate_element(catalog_codes):
    # Conjugating g by a keyed product only scales it by a root of unity, so
    # the key average vanishes iff some twirl generator pairs nonzero with g.
    for c in catalog_codes:
        plan = twirl_plan(c)
        if plan.is_empty:
            continue
        group = plan.intermediate
        for coeffs in itertools.product(range(c.d), repeat=group.rank):
            vec = np.array(coeffs, dtype=np.int64) @ group.generator_rows() % c.d
            if not vec.any():
                continue
            assert any(pairing(symplectic_vector(t), vec, c.d)
                       for t in plan.twirl_generators), (c.name, vec)


def test_twirl_generators_target_one_canonical_generator_each(catalog_codes):
    for c in catalog_codes:
        plan = twirl_plan(c)
        if plan.is_empty:
            continue
        basis = [np.array(v) for v in plan.canonical.basis]
        r = plan.canonical.r
        for idx, gen in enumerate(plan.twirl_generators):
            gvec = symplectic_vector(gen)
            # twirl generator order: a_1, b_1, ..., a_r, b_r, d_1, ..., d_s
            if idx < 2 * r:
                target = idx + 1 if idx % 2 == 0 else idx - 1
            else:
                target = 2 * r + (idx - 2 * r)
            for j, b in enumerate(basis):
                val = pairing(gvec, b, c.d)
                assert (val != 0) == (j == target), (c.name, idx, j)


def test_frame_consistency(catalog_codes):
    # The twirl generators are the hyperbolic pairs a_1, b_1, ..., a_r, b_r
    # of the canonical basis followed by the partners w_1, ..., w_s.
    for c in catalog_codes:
        plan = twirl_plan(c)
        if plan.is_empty:
            continue
        form = plan.canonical
        want = list(form.basis[:2 * form.r] + form.partners)
        assert len(want) == plan.key_length
        assert [tuple(symplectic_vector(g)) for g in plan.twirl_generators] \
            == want, c.name


def test_plan_report_round_trip():
    import json

    _, _, plan = plan_for("four_two_two")
    payload = plan.to_dict()
    again = json.loads(json.dumps(payload))
    assert again == payload
    assert again["key_length"] == plan.key_length
    assert again["r"] + again["s"] == plan.k


def _assert_prescription_merges_f_and_i(c):
    t = classify(c)
    forbidden = twirl_plan(c, t).prescription.forbidden
    expected = sorted(t.forbidden + t.intermediate, key=lambda s: (len(s), s))
    assert forbidden == tuple(expected)


@pytest.mark.parametrize("c", [
    *(pytest.param(catalog(name), id=name) for name in
      ("cnot_2_1", "five_qubit", "four_two_two", "steane")),
    *(pytest.param(catalog("ghz_n", n), id=f"ghz_{n}") for n in range(2, 14)),
    *(pytest.param(load(path), id=path.stem) for path in DATA_CODES)])
def test_prescription_merges_f_and_i_by_size(c):
    _assert_prescription_merges_f_and_i(c)


@given(d=st.sampled_from([2, 3, 5, 7]),
       nk=st.integers(1, 7).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(1, n))),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_prescription_merges_f_and_i_on_random_codes(d, nk, seed):
    _assert_prescription_merges_f_and_i(
        random_code(np.random.default_rng(seed), d, *nk))


@pytest.mark.parametrize("c", [
    pytest.param(catalog("ghz_n", 13), id="ghz_13"),
    pytest.param(load(Path(__file__).parent / "data" / "rand_3_5_1.json"),
                 id="rand_3_5_1")])
def test_key_sharing_derives_no_subset_list(c, monkeypatch):
    # ghz_13 shares its key by Shamir, rand_3_5_1 by the monotone scheme:
    # neither reads a list of A, F or I sets, which covers all 2^n subsets.
    calls = count_calls(monkeypatch, infogroup, "_subsets_of_class")
    t = classify(c)
    plan = twirl_plan(c, t)
    shares = key_transport(plan, t, seed=1)
    assert shares.kind == ("threshold" if c.n == 13 else "monotone")
    assert calls["_subsets_of_class"] == 0
    # The structured output still lists every subset, from the classes.
    listed = plan.to_dict()["classical_scheme"]
    assert calls["_subsets_of_class"] == 2
    rows = list(zip(infogroup.subsets_in_order(c.n), t.classes))
    assert listed["authorized"] == [list(s) for s, x in rows if x == "A"]
    assert listed["forbidden"] == [list(s) for s, x in rows if x != "A"]
