import itertools
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stabshare import catalog, classify
from stabshare.classical import (
    ClassicalShareSet,
    InsufficientSharesError,
    key_transport,
    monotone_share,
    reconstruct,
    shamir_reconstruct,
    shamir_share,
    smallest_prime_above,
)
from stabshare.infogroup import complement, subsets_in_order
from stabshare.twirl import sample_twirl, twirl_plan

from conftest import random_code


def poly_shares(coeffs, n, p):
    """Reference evaluation, independent of the library implementation."""
    return {i: sum(c * i**e for e, c in enumerate(coeffs)) % p
            for i in range(1, n + 1)}


def test_worked_polynomial_example():
    # digit 3 with polynomial 3 + 2x over Z_5 for three players
    shares = poly_shares([3, 2], 3, 5)
    assert shares == {1: 0, 2: 2, 3: 4}
    got = shamir_reconstruct({1: (0,), 2: (2,)}, q=2, modulus=5)
    assert got == [3]
    assert shamir_reconstruct({2: (2,), 3: (4,)}, 2, 5) == [3]
    assert shamir_reconstruct({1: (0,), 2: (2,), 3: (4,)}, 2, 5) == [3]


def test_degenerate_threshold_q1():
    shares = shamir_share([4, 1], q=1, n=3, modulus=5, seed=0)
    for i in (1, 2, 3):
        assert shares.shares[i] == (4, 1)


def test_too_few_shares_refused():
    shares = shamir_share([3], q=2, n=3, modulus=5, seed=1)
    with pytest.raises(InsufficientSharesError):
        shamir_reconstruct({1: shares.shares[1]}, 2, 5)


def test_input_validation():
    with pytest.raises(ValueError, match="exceed the player count"):
        shamir_share([1], q=2, n=5, modulus=5, seed=0)
    with pytest.raises(ValueError, match="1 <= q <= n"):
        shamir_share([1], q=4, n=3, modulus=7, seed=0)
    with pytest.raises(ValueError, match="prime"):
        shamir_share([1], q=2, n=3, modulus=6, seed=0)
    with pytest.raises(ValueError, match="inconsistent"):
        shamir_reconstruct({1: (1, 2), 2: (1,)}, 2, 5)


def test_smallest_prime_above():
    assert smallest_prime_above(2) == 3
    assert smallest_prime_above(4) == 5
    assert smallest_prime_above(7) == 11


def test_share_determinism():
    a = shamir_share([1, 0, 1], q=3, n=5, modulus=7, seed=42)
    b = shamir_share([1, 0, 1], q=3, n=5, modulus=7, seed=42)
    assert a == b
    c = shamir_share([1, 0, 1], q=3, n=5, modulus=7, seed=43)
    assert a != c


@given(st.data())
@settings(max_examples=60)
def test_shamir_round_trip(data):
    p = data.draw(st.sampled_from([5, 7, 11]))
    n = data.draw(st.integers(2, min(4, p - 1)))
    q = data.draw(st.integers(1, n))
    width = data.draw(st.integers(1, 3))
    key = data.draw(st.lists(st.integers(0, p - 1),
                             min_size=width, max_size=width))
    seed = data.draw(st.integers(0, 2**16))
    shares = shamir_share(key, q, n, p, seed)
    players = data.draw(st.permutations(list(range(1, n + 1))))[:q]
    got = shamir_reconstruct({i: shares.shares[i] for i in players}, q, p)
    assert got == [v % p for v in key]


def shamir_secrecy_multisets(q, n, p, players):
    """Multiset of share tuples seen by `players`, per key, enumerating all
    polynomials exhaustively (independent of the seeded sampler)."""
    out = {}
    for key in range(p):
        views = Counter()
        for tail in itertools.product(range(p), repeat=q - 1):
            shares = poly_shares([key, *tail], n, p)
            views[tuple(shares[i] for i in players)] += 1
        out[key] = views
    return out


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 4), (3, 5)])
def test_shamir_perfect_secrecy_exhaustive(q, n, p):
    if p <= n:
        pytest.skip("outside the P > n precondition")
    for size in range(1, q):
        for players in itertools.combinations(range(1, n + 1), size):
            views = shamir_secrecy_multisets(q, n, p, players)
            baseline = views[0]
            for key in range(1, p):
                assert views[key] == baseline, (players, key)


def test_single_share_reveals_nothing_q2_p3():
    views = shamir_secrecy_multisets(2, 2, 3, (1,))
    assert views[0] == views[1] == views[2]


# ---------------------------------------------------------------------------
# Monotone replicated scheme.
# ---------------------------------------------------------------------------

def test_monotone_pair_example():
    shares = monotone_share([1], [(1, 2)], modulus=2, seed=3)
    a = shares.shares[1][0]
    b = shares.shares[2][0]
    assert (a + b) % 2 == 1
    assert reconstruct(shares, (1, 2)) == [1]
    with pytest.raises(InsufficientSharesError):
        reconstruct(shares, (1,))


def test_monotone_two_minimal_sets():
    shares = monotone_share([1, 0], [(1, 2), (2, 3)], modulus=5, seed=9)
    assert reconstruct(shares, (1, 2)) == [1, 0]
    assert reconstruct(shares, (2, 3)) == [1, 0]
    assert reconstruct(shares, (1, 2, 3)) == [1, 0]
    for bad in [(2,), (1, 3), (1,), (3,)]:
        with pytest.raises(InsufficientSharesError):
            reconstruct(shares, bad)


@pytest.mark.parametrize("shares", [
    shamir_share([1, 0], 2, 3, 5, 1),
    monotone_share([1, 0], [(1, 2), (2, 3)], modulus=5, seed=9)],
    ids=["threshold", "monotone"])
@pytest.mark.parametrize("outsider", [9, 0, -1])
def test_reconstruct_rejects_unknown_player(shares, outsider):
    # Even with an authorized set present, a player outside 1..n is refused.
    with pytest.raises(ValueError, match=f"player {outsider} is outside 1..3"):
        reconstruct(shares, [1, 2, outsider])
    with pytest.raises(ValueError, match=f"player {outsider} is outside 1..3"):
        reconstruct(shares, [outsider])


def test_monotone_reconstructs_iff_superset_of_minimal():
    minimal = [(1, 2), (3, 4), (2, 4)]
    shares = monotone_share([2, 3], minimal, modulus=5, seed=1)
    for size in range(5):
        for subset in itertools.combinations(range(1, 5), size):
            ok = any(set(m) <= set(subset) for m in minimal)
            if ok:
                assert reconstruct(shares, subset) == [2, 3]
            else:
                with pytest.raises(InsufficientSharesError):
                    reconstruct(shares, subset)


def test_monotone_antichain_enforced():
    with pytest.raises(ValueError, match="antichain"):
        monotone_share([1], [(1,), (1, 2)], modulus=3, seed=0)
    with pytest.raises(ValueError,
                       match=r"\(2, 3\) is inside \(1, 2, 3\)$"):
        monotone_share([1], [(1, 2, 3), (3, 2), (1, 4)], modulus=5, seed=0)
    # A repeated minimal set is not a strict inclusion.
    shares = monotone_share([1], [(1, 2), (2, 1)], modulus=3, seed=0)
    assert reconstruct(shares, (1, 2)) == [1]
    with pytest.raises(ValueError, match="nonempty"):
        monotone_share([1], [], modulus=3, seed=0)


def test_monotone_rejects_an_empty_set_and_unknown_players():
    # The empty set as a minimal authorized set would let every subset,
    # the empty one too, reconstruct the key.
    for n in (2, None):
        with pytest.raises(ValueError, match="must have a player"):
            monotone_share([2], [(), ()], modulus=3, seed=0, n=n)
    with pytest.raises(ValueError, match="must have a player"):
        monotone_share([2], [()], modulus=3, seed=0)
    with pytest.raises(ValueError, match=r"player 3 is outside 1\.\.2"):
        monotone_share([2], [(1, 3)], modulus=3, seed=0, n=2)
    for bad in (0, -1):
        with pytest.raises(ValueError, match=f"player {bad} is outside"):
            monotone_share([2], [(bad, 1)], modulus=3, seed=0)
    shares = monotone_share([2], [(1, 2)], modulus=3, seed=0, n=3)
    assert shares.n == 3 and shares.shares[3] == ()


def _first_inclusion(sets):
    """The message of the first strict inclusion, by a double loop."""
    for a in sets:
        for b in sets:
            if set(a) < set(b):
                return f"minimal sets must form an antichain: {a} is inside {b}"
    return None


@given(family=st.lists(st.sets(st.integers(1, 7), max_size=5).map(sorted),
                       min_size=1, max_size=8),
       plant=st.tuples(st.integers(0, 7), st.integers(0, 8)))
@settings(max_examples=200, deadline=None)
def test_antichain_check_reports_the_first_inclusion(family, plant):
    # Plant a violation: set i plus the smallest player it lacks, inserted
    # at position j.  The error names the double loop's first inclusion.
    i, j = plant[0] % len(family), plant[1] % (len(family) + 1)
    extra = min(set(range(1, 9)) - set(family[i]))
    family.insert(j, sorted(family[i] + [extra]))
    with pytest.raises(ValueError) as err:
        monotone_share([1], family, modulus=3, seed=0)
    assert str(err.value) == _first_inclusion([tuple(s) for s in family])


def _reference_monotone_shares(key_digits, sets, p, seed, n):
    """The replicated scheme as a plain loop over ``randrange`` draws."""
    rng = random.Random(seed)
    shares = {i: [] for i in range(1, n + 1)}
    for members in sets:
        parts = {i: [] for i in members}
        for digit in (int(v) % p for v in key_digits):
            draw = [rng.randrange(p) for _ in range(len(members) - 1)]
            last = (digit - sum(draw)) % p
            for member, part in zip(members, draw + [last]):
                parts[member].append(part)
        for member in members:
            shares[member].extend(parts[member])
    return {i: tuple(v) for i, v in shares.items()}


@given(p=st.sampled_from([2, 3, 5, 7, 10007, 65537, 2**31 - 1, 4294967291]),
       family=st.lists(st.sets(st.integers(1, 8), min_size=1, max_size=5)
                       .map(sorted), min_size=1, max_size=10),
       digits=st.lists(st.integers(0, 2**33), max_size=5),
       seed=st.integers(0, 2**32 - 1), extra=st.integers(0, 2))
@settings(max_examples=300, deadline=None)
def test_monotone_draws_replay_the_randrange_loop(p, family, digits, seed,
                                                  extra):
    # Keep the sets with no strict subset in the family: an antichain, in
    # the drawn order, size-1 sets and repeats included.
    sets = [tuple(a) for a in family
            if not any(set(b) < set(a) for b in family)]
    n = max(i for s in sets for i in s) + extra
    shares = monotone_share(digits, sets, modulus=p, seed=seed, n=n)
    assert shares.shares == _reference_monotone_shares(digits, sets, p,
                                                       seed, n)
    assert all(type(v) is int for part in shares.shares.values()
               for v in part)


def test_monotone_modulus_is_below_2_to_the_32():
    shares = monotone_share([5], [(1, 2)], modulus=4294967291, seed=0)
    assert reconstruct(shares, (1, 2)) == [5]
    with pytest.raises(ValueError, match=r"must be below 2\*\*32"):
        monotone_share([5], [(1, 2)], modulus=4294967311, seed=0)


def test_monotone_partial_view_is_uniform():
    """Exhaustive secrecy oracle: enumerate the splitting draws directly."""
    p = 3
    members = (1, 2, 3)
    for viewers in [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]:
        views = {}
        for key in range(p):
            counter = Counter()
            for draw in itertools.product(range(p), repeat=len(members) - 1):
                parts = dict(zip(members[:-1], draw))
                parts[members[-1]] = (key - sum(draw)) % p
                counter[tuple(parts[v] for v in viewers)] += 1
            views[key] = counter
        assert views[0] == views[1] == views[2]


# ---------------------------------------------------------------------------
# Key transport.
# ---------------------------------------------------------------------------

def test_key_transport_cnot():
    c = catalog("cnot_2_1")
    t = classify(c)
    plan = twirl_plan(c, t)
    shares = key_transport(plan, t, seed=5)
    assert shares.kind == "threshold"
    assert (shares.q, shares.n, shares.modulus) == (2, 2, 3)
    assert shares.key_length == 1
    assert shares.source_modulus == 2
    key, _ = sample_twirl(plan, seed=5)
    assert reconstruct(shares, (1, 2)) == list(key)
    with pytest.raises(InsufficientSharesError):
        reconstruct(shares, (1,))


def test_key_transport_ghz4():
    c = catalog("ghz_n", 4)
    t = classify(c)
    plan = twirl_plan(c, t)
    shares = key_transport(plan, t, seed=9)
    assert (shares.q, shares.n, shares.modulus) == (4, 4, 5)
    key, _ = sample_twirl(plan, seed=9)
    assert reconstruct(shares, (1, 2, 3, 4)) == list(key)


def test_key_transport_four_two_two():
    c = catalog("four_two_two")
    t = classify(c)
    plan = twirl_plan(c, t)
    shares = key_transport(plan, t, seed=2)
    assert (shares.q, shares.n, shares.modulus) == (3, 4, 5)
    assert shares.key_length == plan.key_length == 4
    key, _ = sample_twirl(plan, seed=2)
    for trio in itertools.combinations(range(1, 5), 3):
        assert reconstruct(shares, trio) == list(key)


def test_key_transport_explicit_key_and_errors():
    c = catalog("cnot_2_1")
    t = classify(c)
    plan = twirl_plan(c, t)
    shares = key_transport(plan, t, seed=1)
    key, _ = sample_twirl(plan, seed=1)
    assert reconstruct(shares, (1, 2)) == list(key)
    empty = twirl_plan(catalog("five_qubit"))
    with pytest.raises(ValueError, match="empty"):
        key_transport(empty, classify(catalog("five_qubit")), seed=0)


def test_key_transport_monotone_fallback():
    # Synthetic non-threshold access structure exercises the monotone path.
    c = catalog("cnot_2_1")
    t = classify(c)
    plan = twirl_plan(c, t)
    # A is {1, 2}, {2, 3} and {1, 2, 3}, in subsets_in_order order.
    classes = "FFFFAFAA"
    pres = replace(plan.prescription, threshold_q=None, classes=classes, n=3)
    plan = replace(plan, prescription=pres)
    triplet = replace(t, n=3, classes=classes,
                      minimal_authorized=((1, 2), (2, 3)))
    assert pres.authorized == triplet.authorized == ((1, 2), (2, 3),
                                                     (1, 2, 3))
    shares = key_transport(plan, triplet, seed=4)
    assert shares.kind == "monotone"
    assert shares.minimal_sets == ((1, 2), (2, 3))
    key, _ = sample_twirl(plan, seed=4)
    assert reconstruct(shares, (1, 2)) == list(key)
    assert reconstruct(shares, (2, 3)) == list(key)
    with pytest.raises(InsufficientSharesError):
        reconstruct(shares, (1, 3))


@given(d=st.sampled_from([3, 5, 7]),
       nk=st.integers(3, 6).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_key_transport_monotone_on_random_codes(d, nk, seed):
    n, k = nk
    c = random_code(np.random.default_rng(seed), d, n, k)
    t = classify(c)
    plan = twirl_plan(c, t)
    assume(plan.prescription.threshold_q is None and not plan.is_empty)
    shares = key_transport(plan, t, seed)
    assert shares.kind == "monotone"
    assert shares.minimal_sets == t.minimal_authorized
    key, _ = sample_twirl(plan, seed)
    for members in t.minimal_authorized:
        assert reconstruct(shares, members) == list(key)
    authorized = set(t.authorized)
    maximal_unauthorized = [
        s for s in subsets_in_order(n) if s not in authorized
        and all(tuple(sorted(s + (i,))) in authorized
                for i in complement(s, n))]
    assert maximal_unauthorized
    for members in maximal_unauthorized:
        with pytest.raises(InsufficientSharesError):
            reconstruct(shares, members)


def test_share_set_dict_round_trip():
    shares = shamir_share([1, 0], q=2, n=3, modulus=5, seed=8)
    again = ClassicalShareSet.from_dict(shares.to_dict())
    assert again == shares
    mono = monotone_share([1], [(1, 2)], modulus=3, seed=2)
    assert ClassicalShareSet.from_dict(mono.to_dict()) == mono
