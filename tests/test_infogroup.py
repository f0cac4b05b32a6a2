from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabshare import catalog, cli, infogroup, oracle, primefield
from stabshare.code import StabilizerCode, load
from stabshare.infogroup import (
    InfoGroup,
    canonical_form,
    classify,
    complement,
    group_from_rows,
    info_group,
    subsets_in_order,
    threshold_q,
)
from stabshare.pauli import ResourceLimitError, multiply, pairing
from stabshare.primefield import mod_rank
from stabshare.twirl import intermediate_group

from conftest import (commutant_reference, count_calls, info_group_reference,
                      random_code, records, walk_leaves)

DATA_CODES = sorted((Path(__file__).parent / "data").glob("*.json"))


def all_subsets_of_size(n, sizes):
    return tuple(s for s in subsets_in_order(n) if len(s) in sizes)


def test_cnot_singletons_are_z(cnot):
    one, two = info_group(cnot, [(1,), (2,)])
    assert one.generators == two.generators == ((0, 1),)


def test_groups_compare_by_span(cnot):
    # Equal generators mean the same subgroup, whichever subset or rows
    # produced it.
    one, two = info_group(cnot, [(1,), (2,)])
    assert one == two == group_from_rows(2, 1, [[0, 1], [0, 1], [0, 0]])


def test_ghz_proper_subsets_are_z():
    g = catalog("ghz_n", 4)
    proper = [s for s in subsets_in_order(4) if 0 < len(s) < 4]
    assert {group.generators for group in info_group(g, proper)} == {
        ((0, 1),)}


def test_five_qubit_pairs_learn_nothing(five_qubit):
    for g in info_group(five_qubit, all_subsets_of_size(5, {1, 2})):
        assert g.is_trivial


def test_four_two_two_pair_matches_bruteforce(four_two_two):
    [symbolic] = info_group(four_two_two, [(1, 2)])
    assert not symbolic.is_trivial and not symbolic.is_full
    [brute] = oracle.info_group_bruteforce(four_two_two, [(1, 2)])
    assert symbolic.generators == brute.generators


def test_full_and_empty_subsets(catalog_codes):
    for c in catalog_codes:
        full, empty = info_group(c, [tuple(range(1, c.n + 1)), ()])
        assert full.is_full
        assert empty.is_trivial


def test_bad_subset_rejected(cnot):
    with pytest.raises(ValueError, match="out of range"):
        info_group(cnot, [(0, 1)])
    with pytest.raises(ValueError, match="out of range"):
        info_group(cnot, [(1,), (3,)])


@given(d=st.sampled_from([2, 3, 5, 7]),
       nk=st.integers(1, 6).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(1, n))),
       seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=60, deadline=None)
def test_batched_info_group_matches_the_reference(d, nk, seed, data):
    n, k = nk
    c = random_code(np.random.default_rng(seed), d, n, k)
    # Mixed sizes in any order; carriers unsorted and repeated; the empty
    # and the full set always among them.
    carriers = st.lists(st.integers(1, n), max_size=2 * n)
    subsets = data.draw(st.lists(carriers, max_size=12))
    subsets = data.draw(st.permutations(
        subsets + [[], list(range(n, 0, -1))]))
    assert info_group(c, subsets) == [
        info_group_reference(c, s) for s in subsets]
    # One carrier outside 1..n anywhere in the batch rejects the batch.
    bad = [data.draw(st.sampled_from([-1, 0, n + 1])), n]
    at = data.draw(st.integers(0, len(subsets)))
    for solve in (lambda s: info_group(c, s),
                  lambda s: [info_group_reference(c, t) for t in s]):
        with pytest.raises(ValueError, match="out of range"):
            solve(subsets[:at] + [bad] + subsets[at:])


@given(d=st.sampled_from([2, 3, 5]),
       nk=st.integers(1, 6).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(1, n))),
       seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=40, deadline=None)
def test_info_group_slots_put_each_echelon_row_at_its_pivot(d, nk, seed,
                                                            data):
    # The duality check reads ranks, pairings and rows off the slots, so
    # slice j must hold G(S_j)'s echelon rows, each in the slot of its
    # pivot, and zeros elsewhere, in any order and with repeats.
    n, k = nk
    c = random_code(np.random.default_rng(seed), d, n, k)
    every = list(subsets_in_order(n))
    subsets = data.draw(st.lists(st.sampled_from(every), max_size=12))
    subsets = data.draw(st.permutations(subsets + subsets[:4]))
    expected = np.zeros((len(subsets), 2 * k, 2 * k), dtype=np.int64)
    for j, s in enumerate(subsets):
        for row in info_group_reference(c, s).generators:
            expected[j, np.flatnonzero(row)[0]] = row
    slots = info_group(c, subsets, slots=True)
    assert slots.dtype == np.int64 and np.array_equal(slots, expected)


def test_is_full_examples(five_qubit, cnot):
    assert info_group(five_qubit, [(1, 2, 3)])[0].is_full
    assert not info_group(cnot, [(1,)])[0].is_full


# ---------------------------------------------------------------------------
# Canonical form.
# ---------------------------------------------------------------------------

def test_canonical_single_z():
    g = group_from_rows(2, 1, [[0, 1]])
    form = canonical_form(g)
    assert (form.r, form.s) == (0, 1)
    assert form.basis == ((0, 1),)


def test_canonical_full_single_qudit():
    g = group_from_rows(2, 1, [[1, 0], [0, 1]])
    form = canonical_form(g)
    assert (form.r, form.s) == (1, 0)


def test_canonical_hyperbolic_pair_two_qudits():
    # <X1 Z2, Z1>: pairing 1, so one hyperbolic pair and nothing isotropic
    g = group_from_rows(2, 2, [[1, 0, 0, 1], [0, 0, 1, 0]])
    form = canonical_form(g)
    assert (form.r, form.s) == (1, 0)
    rows = g.generator_rows()
    gram = pairing(rows, rows, 2)
    assert mod_rank(gram, 2) == 2 * form.r


def test_canonical_trivial_group():
    form = canonical_form(group_from_rows(2, 2, np.zeros((0, 4))))
    assert (form.r, form.s) == (0, 0)
    assert form.basis == () and form.partners == ()


def _assert_canonical_invariants(group: InfoGroup):
    form = canonical_form(group)
    d, k, r, s = group.d, group.k, form.r, form.s
    assert 2 * r + s == group.rank
    assert 2 * r + s <= 2 * k

    basis = [np.array(v) for v in form.basis]
    # mutual pairings: hyperbolic pairs pair to 1, everything else to 0
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            want = 0
            if i < 2 * r and j == i + 1 and i % 2 == 0:
                want = 1
            if i < 2 * r and j == i - 1 and i % 2 == 1:
                want = (-1) % d
            assert pairing(u, v, d) == want, (i, j)

    # the basis spans the original group
    assert group_from_rows(d, k, np.array(basis)).generators == group.generators

    # partner w_j pairs to 1 with c_j and to 0 with every other basis vector
    # and every other partner
    partners = [np.array(w) for w in form.partners]
    assert len(partners) == s
    for j, w in enumerate(partners):
        for i, v in enumerate(basis):
            assert pairing(w, v, d) == (1 if i == 2 * r + j else 0), (j, i)
        for i, u in enumerate(partners):
            assert pairing(w, u, d) == 0, (j, i)

    # pairing-matrix rank equals 2r
    rows = group.generator_rows()
    gram = pairing(rows, rows, d)
    assert (mod_rank(gram, d) if gram.size else 0) == 2 * r

    # classify's stacked class and (r, s), on the group's echelon slots
    slots = np.zeros((1, 2 * k, 2 * k), dtype=np.int64)
    slots[0, (rows != 0).argmax(axis=1)] = rows
    cls, r_of, s_of = infogroup._class_rs(slots, d)[:, 0].tolist()
    assert (infogroup._CLASSES[cls], r_of, s_of) == (group.access_class, r, s)


@st.composite
def random_group(draw):
    d = draw(st.sampled_from([2, 3, 5, 7, 10007, 65537]))
    k = draw(st.integers(1, 3))
    n_rows = draw(st.integers(0, 2 * k))
    rows = draw(st.lists(
        st.lists(st.integers(0, d - 1), min_size=2 * k, max_size=2 * k),
        min_size=n_rows, max_size=n_rows))
    base = np.array(rows, dtype=np.int64) if rows else np.zeros((0, 2 * k))
    return group_from_rows(d, k, base)


@given(random_group())
@settings(max_examples=120)
def test_canonical_form_invariants(group):
    _assert_canonical_invariants(group)


# ---------------------------------------------------------------------------
# Classification.
# ---------------------------------------------------------------------------

def test_five_qubit_is_a_threshold_scheme(five_qubit):
    t = classify(five_qubit)
    assert set(t.authorized) == set(all_subsets_of_size(5, {3, 4, 5}))
    assert set(t.forbidden) == set(all_subsets_of_size(5, {0, 1, 2}))
    assert t.intermediate == ()
    assert threshold_q(t) == 3


def test_four_two_two_triplet(four_two_two):
    t = classify(four_two_two)
    assert set(t.authorized) == set(all_subsets_of_size(4, {3, 4}))
    assert set(t.forbidden) == set(all_subsets_of_size(4, {0, 1}))
    assert set(t.intermediate) == set(all_subsets_of_size(4, {2}))
    assert threshold_q(t) == 3


def test_cnot_triplet(cnot):
    t = classify(cnot)
    assert t.authorized == ((1, 2),)
    assert t.forbidden == ((),)
    assert set(t.intermediate) == {(1,), (2,)}
    assert threshold_q(t) == 2


def test_steane_not_threshold_but_perfect(steane):
    t = classify(steane)
    assert t.intermediate == ()
    assert threshold_q(t) is None  # some 3-subsets are authorized, others not


def test_records_and_summary(four_two_two):
    t = classify(four_two_two)
    rec = {subset: rest for subset, *rest in records(t)}
    assert rec[(1, 2)] == ["I", 0, 2]
    assert rec[(1, 2, 3)] == ["A", 2, 0]
    listed = t.to_dict()["records"]
    assert listed[0] == {"subset": [], "class": "F", "r": 0, "s": 0}
    assert {"subset": [1, 2], "class": "I", "r": 0, "s": 2} in listed
    assert listed[-1] == {"subset": [1, 2, 3, 4], "class": "A", "r": 2,
                          "s": 0}
    assert dict((sz, (a, f, i)) for sz, a, f, i in t.size_summary)[2] == (0, 0, 6)
    assert set(t.minimal_authorized) == set(all_subsets_of_size(4, {3}))
    assert set(t.maximal_forbidden) == {(1,), (2,), (3,), (4,)}


def test_duality_and_monotonicity(catalog_codes):
    for c in catalog_codes:
        t = classify(c)
        authorized = set(t.authorized)
        forbidden = set(t.forbidden)
        for s in subsets_in_order(c.n):
            assert (s in authorized) == (complement(s, c.n) in forbidden)
        for s in authorized:
            for extra in range(1, c.n + 1):
                if extra not in s:
                    assert tuple(sorted(set(s) | {extra})) in authorized
        for s in forbidden:
            for drop in s:
                assert tuple(sorted(set(s) - {drop})) in forbidden
        total = len(t.authorized) + len(t.forbidden) + len(t.intermediate)
        assert total == 2**c.n
        direct = info_group(c, list(subsets_in_order(c.n)))
        for rec, g in zip(records(t), direct, strict=True):
            assert rec[1] == g.access_class, (c.name, rec)


def test_ramp_bounds_against_classification(catalog_codes):
    from stabshare.code import distance

    for c in catalog_codes:
        delta = distance(c)
        t = classify(c)
        authorized = set(t.authorized)
        subsets = list(subsets_in_order(c.n))
        for s, g in zip(subsets, info_group(c, subsets)):
            if len(s) >= c.n - delta + 1:
                assert s in authorized, (c.name, s)
            if len(s) <= delta - 1:
                assert g.is_trivial, (c.name, s)


def test_classification_is_representative_independent(catalog_codes):
    rng = np.random.default_rng(11)
    for c in catalog_codes[:4]:
        stab = c.stabilizer
        def randomize(p):
            out = p
            for g in stab:
                out = multiply(out, g**int(rng.integers(c.d)))
            return out
        variant = StabilizerCode(
            c.name + "-variant", c.d, c.n, c.k, stab,
            tuple(randomize(p) for p in c.logical_x),
            tuple(randomize(p) for p in c.logical_z))
        assert classify(variant).authorized == classify(c).authorized
        assert classify(variant).intermediate == classify(c).intermediate


def test_classify_cap():
    big = catalog("ghz_n", 21)
    with pytest.raises(ResourceLimitError):
        classify(big)


def test_subset_enumeration_order():
    order = list(subsets_in_order(3))
    assert order == [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
    for n in range(11):
        every = {tuple(i + 1 for i in range(n) if mask >> i & 1)
                 for mask in range(1 << n)}
        assert list(subsets_in_order(n)) == sorted(
            every, key=lambda s: (len(s), s))


def test_subset_masks_follow_the_subset_order():
    for n in range(11):
        masks, sizes = infogroup._subset_masks(n)
        order = list(subsets_in_order(n))
        assert masks.tolist() == [sum(1 << i - 1 for i in s) for s in order]
        assert sizes.tolist() == [len(s) for s in order]


def one_smaller(subset) -> list[tuple[int, ...]]:
    """Every subset with one carrier of the sorted `subset` removed."""
    return [subset[:j] + subset[j + 1:] for j in range(len(subset))]


def one_larger(subset, n: int) -> list[tuple[int, ...]]:
    """Every subset of {1..n} with one carrier added to `subset`."""
    return [tuple(sorted(subset + (i,)))
            for i in range(1, n + 1) if i not in subset]


_LISTED = ("authorized", "forbidden", "intermediate", "minimal_authorized",
           "maximal_forbidden", "size_summary")


def _reference_listing(c):
    """The listed fields of the triplet, filtered from ``subsets_in_order``
    by each subset's class from its own solve."""
    n = c.n
    subsets = list(subsets_in_order(n))
    cls = {s: g.access_class for s, g in zip(subsets, info_group(c, subsets))}

    def where(test):
        return tuple(s for s in subsets if test(s))

    return dict(zip(_LISTED, (
        where(lambda s: cls[s] == "A"),
        where(lambda s: cls[s] == "F"),
        where(lambda s: cls[s] == "I"),
        where(lambda s: cls[s] == "A"
              and all(cls[t] != "A" for t in one_smaller(s))),
        where(lambda s: cls[s] == "F"
              and all(cls[t] != "F" for t in one_larger(s, n))),
        tuple((size, *(sum(len(s) == size and cls[s] == x for s in subsets)
                       for x in "AFI")) for size in range(n + 1)),
    )))


@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.text("AFI", min_size=1 << n,
                                             max_size=1 << n))))
@settings(max_examples=200, deadline=None)
@example((3, "FFFFIIIA"))
@example((3, "FFFFIIAI"))
@example((2, "IFFA"))
def test_extremal_flags_and_monotonicity_match_the_reference(n_classes):
    # Any class column, monotone or not: the minimal A sets, the maximal F
    # sets and the monotone verdict that simulate's checks read.
    n, classes = n_classes
    order = list(subsets_in_order(n))
    cls = dict(zip(order, classes))
    first_a, last_f, monotone = cli._extremal_and_monotone(
        SimpleNamespace(n=n, classes=classes))
    assert list(map(bool, first_a)) == [
        cls[s] == "A" and all(cls[t] != "A" for t in one_smaller(s))
        for s in order]
    assert list(map(bool, last_f)) == [
        cls[s] == "F" and all(cls[t] != "F" for t in one_larger(s, n))
        for s in order]
    assert monotone == all(
        (cls[s] != "A" or cls[t] == "A") and (cls[t] != "F" or cls[s] == "F")
        for s in order for t in one_larger(s, n))


def _assert_listing_matches_the_reference(c):
    t = classify(c)
    assert {field: getattr(t, field) for field in _LISTED} == \
        _reference_listing(c)


@given(d=st.sampled_from([2, 3, 5, 7]),
       nk=st.integers(1, 7).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(1, n))),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_classify_lists_in_subset_order_on_random_codes(d, nk, seed):
    # Pins the order of the A, F and I lists and of the extremal sets, not
    # only their contents.
    _assert_listing_matches_the_reference(
        random_code(np.random.default_rng(seed), d, *nk))


@pytest.mark.parametrize("c", [
    pytest.param(catalog("ghz_n", 13), id="ghz_13"),
    pytest.param(random_code(np.random.default_rng(13), 3, 13, 2),
                 id="random_3_13_2")])
def test_classify_lists_in_subset_order_past_the_listing_cap(c):
    assert c.n > infogroup.FULL_LISTING_MAX_N
    _assert_listing_matches_the_reference(c)


def test_random_qubit_codes_match_bruteforce():
    rng = np.random.default_rng(5)
    for (n, k) in [(2, 1), (3, 1), (3, 2)]:
        for trial in range(3):
            c = random_code(rng, 2, n, k, name=f"rand2_{n}{k}_{trial}")
            subsets = list(subsets_in_order(n))
            brutes = oracle.info_group_bruteforce(c, subsets)
            assert brutes == info_group(c, subsets), c


def test_classify_solves_half_the_subsets(monkeypatch):
    calls = count_calls(monkeypatch, infogroup, "info_group")
    leaves = walk_leaves(monkeypatch)
    classify(catalog("ghz_n", 8))
    # The lattice walk solves each subset without carrier 8 once, and the
    # duality rule fills in the other 128: no per-subset solve.
    assert not calls
    assert sorted(leaves) == list(range(128))


def _reference_records(c):
    """The direct algorithm: solve every subset's group on its own."""
    out = []
    for s in subsets_in_order(c.n):
        g = info_group_reference(c, s)
        form = canonical_form(g)
        out.append((s, g.access_class, form.r, form.s))
    return out


def _walk_leaves(c):
    """(subset, echelon) for every leaf of the lattice walk."""
    return [(tuple(i + 1 for i in range(c.n) if mask >> i & 1), echelon)
            for masks, state, echelons in infogroup._walk(c)
            for mask, echelon in zip(masks.tolist(), echelons[state])]


def _assert_walk_matches_direct_solves(c):
    """The lattice walk against the reference solve, and classify's
    columns."""
    n = c.n
    leaves = _walk_leaves(c)
    # One leaf for each subset without carrier n.
    assert sorted(s for s, _ in leaves) == sorted(
        s for s in subsets_in_order(n) if n not in s)
    for s, echelon in leaves:
        # Slot j holds the basis row with pivot j; the rest are zero.
        assert echelon.shape == (2 * c.k, 2 * c.k)
        basis = tuple(map(tuple, echelon[echelon.any(axis=1)].tolist()))
        assert basis == info_group_reference(c, s).generators, s
    assert records(classify(c)) == _reference_records(c)


@given(d=st.sampled_from([2, 3, 5, 7]),
       nk=st.integers(1, 6).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(1, n))),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_walk_matches_info_group_on_random_codes(d, nk, seed):
    # k = n draws codes with no stabilizer at all.
    n, k = nk
    _assert_walk_matches_direct_solves(
        random_code(np.random.default_rng(seed), d, n, k))


@pytest.mark.parametrize("path", DATA_CODES, ids=lambda p: p.stem)
def test_walk_matches_info_group_on_data_codes(path):
    _assert_walk_matches_direct_solves(load(path))


@pytest.mark.parametrize("c", [
    *(pytest.param(catalog("ghz_n", n), id=f"ghz_{n}") for n in range(6, 11)),
    pytest.param(catalog("steane"), id="steane"),
    *(pytest.param(load(p), id=p.stem) for p in DATA_CODES
      if p.stem in ("rand_3_5_1", "rand_10007_8_2"))])
def test_classify_solves_each_distinct_leaf_once(c, monkeypatch):
    _assert_walk_matches_direct_solves(c)
    chunks = [{echelon.tobytes() for echelon in echelons}
              for _, _, echelons in infogroup._walk(c)]
    real, seen = infogroup._class_rs, []

    def recording(slots, d):
        seen.append({echelon.tobytes() for echelon in slots})
        assert len(seen[-1]) == len(slots)
        return real(slots, d)

    monkeypatch.setattr(infogroup, "_class_rs", recording)
    t = classify(c)
    # One call per chunk, on that chunk's distinct echelons.
    assert seen == chunks
    assert sum(map(len, seen)) < 2 ** (c.n - 1)
    # Only each chunk's distinct intermediate groups reach the span; they
    # must lose nothing.
    rows = [row for g in info_group(c, t.intermediate) for row in g.generators]
    assert t.intermediate_span == group_from_rows(
        c.d, c.k, np.array(rows, dtype=np.int64).reshape(-1, 2 * c.k))


def test_classify_makes_no_list_elimination_per_group(monkeypatch):
    # About 200 distinct groups, all decided and spanned on stacks: no
    # list elimination at all.
    c = random_code(np.random.default_rng(0), 3, 12, 2)
    assert len({echelon.tobytes() for _, echelon in _walk_leaves(c)}) > 100
    calls = count_calls(monkeypatch, primefield, "_rref_lists")
    classify(c)
    assert not calls


def test_walk_batches_stay_under_the_solve_budget(monkeypatch):
    # Every ``_clear`` of the walk holds at most half the budget in cells,
    # or a single node, whose rows cannot be split further.
    c = random_code(np.random.default_rng(0), 3, 12, 2)
    clear, cells = infogroup._clear, []

    def recording(rows, at, d):
        cells.append(rows.size if len(rows) > 1 else 0)
        return clear(rows, at, d)

    monkeypatch.setattr(infogroup, "_clear", recording)
    classify(c)
    assert 0 < max(cells) <= infogroup._SOLVE_BUDGET // 2


def test_walk_merges_equal_nodes_on_ghz_12(monkeypatch):
    # Without merging, the leaf echelons of ghz_12 cover all 2,048 leaves;
    # merged level by level, a few dozen distinct nodes reach the leaves.
    real, states = infogroup.mod_rref_stack, []

    def recording(rows, d):
        states.append(len(rows))
        return real(rows, d)

    monkeypatch.setattr(infogroup, "mod_rref_stack", recording)
    c = catalog("ghz_n", 12)
    batches = list(infogroup._walk(c))
    assert 0 < sum(states) <= 64
    # Every node of a batch is some leaf's, and each leaf is covered once.
    for masks, state, echelons in batches:
        assert np.array_equal(np.unique(state), np.arange(len(echelons)))
    assert sorted(m for masks, _, _ in batches for m in masks.tolist()) == \
        list(range(2 ** 11))


@pytest.mark.parametrize("shape", [(0, 3), (1, 3), (2, 1), (9, 2), (300, 4)])
def test_distinct_rows_finds_each_rows_first_copy(shape):
    rows = np.random.default_rng(shape[0]).integers(-2, 3, shape)
    first, inverse = infogroup._distinct_rows(rows)
    want_first = np.unique(rows, axis=0, return_index=True)[1]
    # One first index per distinct row, and every row maps to its copy.
    assert np.array_equal(np.sort(first), np.sort(want_first))
    assert np.array_equal(rows[first][inverse], rows)
    assert sorted(set(inverse.tolist())) == list(range(len(first)))


def test_fold_reduces_only_distinct_nonzero_rows(monkeypatch):
    rows = np.array([[1, 2, 0, 0], [0, 0, 0, 0], [1, 2, 0, 0],
                     [0, 1, 1, 0], [2, 4, 0, 0], [0, 0, 0, 0]])
    real, seen = infogroup.mod_rref_stack, []

    def recording(a, p):
        seen.append(a.copy())
        return real(a, p)

    monkeypatch.setattr(infogroup, "mod_rref_stack", recording)
    folded = infogroup._fold(rows, 5)
    # One reduction, of the three distinct nonzero rows in some order.
    assert len(seen) == 1 and len(seen[0]) == 1
    assert sorted(seen[0][0].tolist()) == [[0, 1, 1, 0], [1, 2, 0, 0],
                                           [2, 4, 0, 0]]
    assert np.array_equal(folded, real(rows[None], 5)[0])
    # No nonzero row at all: the zero span.
    assert not infogroup._fold(np.zeros((3, 4), dtype=np.int64), 5).any()


@pytest.mark.parametrize("c", [
    pytest.param(catalog("steane"), id="steane"),
    pytest.param(catalog("ghz_n", 6), id="ghz_6"),
    *(pytest.param(load(p), id=p.stem) for p in DATA_CODES)])
def test_walk_chunks_do_not_change_the_triplet(c, monkeypatch):
    whole = classify(c)
    # At the smallest budget every batch is split down to one node before
    # each level, so a leaf batch holds that node's two children, or one
    # if they match; every echelon is some mask's, and together the masks
    # cover every leaf once.  The rows kept for the intermediate span are
    # reduced after every batch.
    monkeypatch.setattr(infogroup, "_SOLVE_BUDGET", 0)
    batches = list(infogroup._walk(c))
    assert all(len(echelons) <= 2 and np.array_equal(
        np.unique(state), np.arange(len(echelons)))
        for _, state, echelons in batches)
    assert sorted(m for masks, _, _ in batches for m in masks.tolist()) == \
        list(range(2 ** (c.n - 1)))
    _assert_walk_matches_direct_solves(c)
    assert classify(c) == whole


def test_classify_at_the_largest_prime():
    # 2^31 - 1 is the largest prime that int64 admits (at n = 1): every
    # fraction-free product in the walk and the stacked echelon is < p^2.
    c = random_code(np.random.default_rng(3), 2**31 - 1, 1, 1)
    _assert_walk_matches_direct_solves(c)
    assert records(classify(c)) == [((), "F", 0, 0), ((1,), "A", 1, 0)]


def test_classify_builds_no_records_past_the_listing_cap():
    assert len(classify(catalog("ghz_n", 12)).to_dict()["records"]) == 2**12
    t = classify(catalog("ghz_n", 13))
    assert "records" not in t.to_dict()
    # The columns are kept at every n.  On ghz_13 every proper nonempty
    # subset is intermediate with (r, s) = (0, 1).
    assert t.classes == "F" + "I" * (2**13 - 2) + "A"
    assert t.r == bytes(2**13 - 1) + b"\1"
    assert t.s == b"\0" + b"\1" * (2**13 - 2) + b"\0"


def _enumerated_threshold(t):
    """q if the authorized sets are exactly those of size >= q, by listing."""
    if not t.authorized:
        return None
    q = min(len(s) for s in t.authorized)
    at_least_q = [s for s in subsets_in_order(t.n) if len(s) >= q]
    return q if sorted(t.authorized) == sorted(at_least_q) else None


@pytest.mark.parametrize("c", [
    *(pytest.param(catalog(name), id=name) for name in
      ("cnot_2_1", "five_qubit", "four_two_two", "steane")),
    *(pytest.param(catalog("ghz_n", n), id=f"ghz_{n}") for n in range(3, 11)),
    *(pytest.param(load(path), id=path.stem) for path in DATA_CODES)])
def test_threshold_q_matches_enumeration(c):
    t = classify(c)
    assert threshold_q(t) == _enumerated_threshold(t)


@given(d=st.sampled_from([2, 3, 5, 7]),
       nk=st.integers(1, 7).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(1, n))),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_threshold_q_matches_enumeration_on_random_codes(d, nk, seed):
    # threshold_q reads the size summary; the reference lists the A sets.
    t = classify(random_code(np.random.default_rng(seed), d, *nk))
    assert threshold_q(t) == _enumerated_threshold(t)


@pytest.mark.parametrize("c", [
    *(pytest.param(catalog(name), id=name) for name in
      ("cnot_2_1", "five_qubit", "four_two_two", "steane")),
    *(pytest.param(catalog("ghz_n", n), id=f"ghz_{n}") for n in range(3, 11)),
    *(pytest.param(load(path), id=path.stem) for path in DATA_CODES)])
def test_intermediate_group_spans_the_direct_groups(c):
    t = classify(c)
    rows = [row for g in info_group(c, t.intermediate) for row in g.generators]
    spanned = group_from_rows(c.d, c.k, np.array(rows).reshape(-1, 2 * c.k))
    group = intermediate_group(c, t)
    assert group == spanned
    if t.intermediate:
        assert not group.is_trivial
        # Coisotropic: the group contains its own commutant, hence r + s = k.
        with_commutant = (group.generators
                          + commutant_reference(group).generators)
        assert group_from_rows(c.d, c.k, with_commutant) == group


@given(d=st.sampled_from([2, 3, 5, 7]),
       nk=st.integers(1, 6).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(1, n))),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_commutant_duality_on_random_codes(d, nk, seed):
    n, k = nk
    c = random_code(np.random.default_rng(seed), d, n, k)
    subsets = list(subsets_in_order(n))
    solved = dict(zip(subsets, info_group(c, subsets)))
    # G(S-bar) = C(G(S)): the two pair to zero and their ranks sum to 2k.
    for s, g in solved.items():
        other = solved[complement(s, n)]
        assert g.rank + other.rank == 2 * k, s
        assert not pairing(g.generator_rows(), other.generator_rows(),
                           d).any(), s

    assert records(classify(c)) == _reference_records(c)


@given(d=st.sampled_from([2, 3, 5, 7]),
       nk=st.integers(1, 6).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(1, n))),
       seed=st.integers(0, 2**32 - 1))
@example(d=3, nk=(2, 2), seed=1)  # C(G(L)) spanned with the wrong sign fails
@settings(max_examples=40, deadline=None)
def test_intermediate_group_spans_the_direct_groups_on_random_codes(d, nk,
                                                                    seed):
    c = random_code(np.random.default_rng(seed), d, *nk)
    t = classify(c)
    rows = [row for g in info_group(c, t.intermediate) for row in g.generators]
    assert intermediate_group(c, t) == group_from_rows(
        d, c.k, np.array(rows, dtype=np.int64).reshape(-1, 2 * c.k))
