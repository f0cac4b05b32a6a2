import itertools
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabshare import catalog, classify, info_group, load, oracle, pauli
from stabshare.code import StabilizerCode
from stabshare.infogroup import subsets_in_order
from stabshare.pauli import (PauliProduct, ResourceLimitError, pairing,
                             parse, symplectic_vector)
from stabshare.primefield import mod_rank
from stabshare.twirl import twirl_operator, twirl_plan

from conftest import concealment_reference, random_code


def test_cnot_codewords(cnot):
    words = oracle.encoding_isometry(cnot).T
    assert np.allclose(words[0], [1, 0, 0, 0])
    assert np.allclose(words[1], [0, 0, 0, 1])


def test_ghz3_codewords():
    words = oracle.encoding_isometry(catalog("ghz_n", 3)).T
    zero = np.zeros(8); zero[0] = 1
    one = np.zeros(8); one[-1] = 1
    assert np.allclose(words[0], zero)
    assert np.allclose(words[1], one)


def test_five_qubit_codewords_are_stabilized(five_qubit):
    words = oracle.encoding_isometry(five_qubit).T
    assert len(words) == 2
    assert len(five_qubit.stabilizer) == 4
    for generator in five_qubit.stabilizer:
        dense = pauli.dense_matrix(generator, cap=32)
        for w in words:
            assert np.max(np.abs(dense @ w - w)) < 1e-12
    assert abs(np.vdot(words[0], words[1])) < 1e-12


@pytest.mark.parametrize("name", ["ghz_6", "rand_3_3_2"])
def test_encoding_builds_no_dense_pauli(monkeypatch, name):
    code = (catalog("ghz_n", 6) if name == "ghz_6"
            else load(Path(__file__).parent / "data" / f"{name}.json"))
    built = []
    real = pauli.dense_matrix

    def counting(p, *args, **kwargs):
        built.append(p.m)
        return real(p, *args, **kwargs)

    monkeypatch.setattr(pauli, "dense_matrix", counting)
    # A fresh name and the uncached function keep every cache out of the way.
    fresh = replace(code, name=f"{code.name}-uncached")
    v = oracle.encoding_isometry.__wrapped__(fresh)
    assert v.shape == (code.d**code.n, code.d**code.k)
    assert np.allclose(v.conj().T @ v, np.eye(code.d**code.k))
    assert not built


def test_encode_examples(cnot):
    plus = np.array([1, 1]) / np.sqrt(2)
    bell = oracle.encode(cnot, plus)
    assert np.allclose(bell, np.array([1, 0, 0, 1]) / np.sqrt(2))
    for j in (0, 1):
        assert np.allclose(oracle.encode(cnot, oracle.basis_secret(2, 1, j)),
                           oracle.encoding_isometry(cnot)[:, j])
    g = catalog("ghz_n", 3)
    alpha, beta = 0.6, 0.8j
    state = oracle.encode(g, [alpha, beta])
    expected = np.zeros(8, dtype=complex)
    expected[0], expected[-1] = alpha, beta
    assert np.allclose(state, expected)
    with pytest.raises(ValueError, match="dimension"):
        oracle.encode(cnot, [1, 0, 0])


def test_encode_preserves_inner_products(catalog_codes):
    rng = np.random.default_rng(0)
    for c in catalog_codes:
        a = oracle.random_secret(c.d, c.k, rng)
        b = oracle.random_secret(c.d, c.k, rng)
        va, vb = oracle.encode(c, a), oracle.encode(c, b)
        assert abs(np.vdot(va, vb) - np.vdot(a, b)) < 1e-12


def test_reduced_state_examples(cnot):
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert np.allclose(oracle.reduced_state(bell, (1,), 2), np.eye(2) / 2)
    product = np.kron([1, 0], [0, 1]).astype(complex)
    assert np.allclose(oracle.reduced_state(product, (1,), 2),
                       [[1, 0], [0, 0]])
    plus = np.array([1, 1]) / np.sqrt(2)
    rho = oracle.reduced_state(oracle.encode(cnot, plus), (1,), 2)
    assert np.allclose(rho, np.eye(2) / 2)


def test_partial_trace_properties():
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = raw @ raw.conj().T
    rho /= np.trace(rho)
    for keep in [(1,), (2,), (1, 3), (1, 2, 3), ()]:
        red = oracle.partial_trace(rho, 2, keep)
        assert abs(np.trace(red) - 1) < 1e-12
        assert np.min(np.linalg.eigvalsh((red + red.conj().T) / 2)) > -1e-12
        # A stack is traced matrix by matrix.
        stacked = oracle.partial_trace(np.array([rho, rho.T]), 2, keep)
        assert np.allclose(stacked[0], red)
        assert np.allclose(stacked[1], oracle.partial_trace(rho.T, 2, keep))
    with pytest.raises(ValueError, match="out of range"):
        oracle.partial_trace(rho, 2, (4,))


def test_partial_trace_qutrit():
    a = np.array([1, 0, 0], dtype=complex)
    b = np.array([0, 1, 0], dtype=complex)
    state = np.kron(a, b)
    assert np.allclose(oracle.reduced_state(state, (2,), 3), np.outer(b, b))


@st.composite
def _vector_and_keep(draw):
    d = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(0, 4))
    mask = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=d**m) + 1j * rng.normal(size=d**m)
    return d, vec, tuple(i + 1 for i, kept in enumerate(mask) if kept)


_QUTRIT_VECTOR = np.random.default_rng(2).normal(size=27) + 0j


@given(_vector_and_keep())
@example((3, _QUTRIT_VECTOR, ()))
@example((3, _QUTRIT_VECTOR, (1, 2, 3)))
@settings(max_examples=80, deadline=None)
def test_reduced_state_of_vector_matches_projector_trace(case):
    d, vec, keep = case
    # A unit vector keeps the absolute tolerance independent of its scale.
    vec = vec / np.linalg.norm(vec)
    want = oracle.partial_trace(np.outer(vec, vec.conj()), d, keep)
    got = oracle.reduced_state(vec, keep, d)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-12


@st.composite
def _code_op_and_keep(draw):
    d = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, {2: 5, 3: 3, 5: 2}[d]))
    k = draw(st.integers(1, n))
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    op = rng.normal(size=(d**k, d**k)) + 1j * rng.normal(size=(d**k, d**k))
    return (random_code(rng, d, n, k), op,
            tuple(i + 1 for i, kept in enumerate(mask) if kept))


@given(_code_op_and_keep())
@settings(max_examples=60, deadline=None)
def test_traced_lift_matches_partial_trace(case):
    c, op, keep = case
    v = oracle.encoding_isometry(c)
    want = oracle.partial_trace(v @ op @ v.conj().T, c.d, keep)
    rho = oracle._choi_state(oracle._kept_first(v, c.d, keep)[None])
    [[got]] = oracle._images(rho, op[None])
    assert got.shape == (want.size,)
    assert np.max(np.abs(got.reshape(want.shape) - want)) < 1e-12


@st.composite
def _small_code(draw):
    d = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, {2: 4, 3: 3, 5: 2}[d]))
    k = draw(st.integers(1, min(n, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_code(rng, d, n, k)


@given(_small_code())
@settings(max_examples=40, deadline=None)
def test_scan_norms_match_partial_trace(c):
    v = oracle.encoding_isometry(c)
    ops = oracle._logical_paulis(c.d, c.k)[1]
    lifts = v @ ops @ v.conj().T
    ranks, norms, _, _ = oracle._scan(c, None)
    for row, subset in enumerate(subsets_in_order(c.n)):
        want = np.linalg.norm(oracle.partial_trace(lifts, c.d, subset),
                              axis=(1, 2))
        assert np.max(np.abs(norms[row] - want)) < 1e-12, subset
        assert ranks[row] == min(c.d**len(subset),
                                 c.d**(c.n - len(subset) + c.k))


@given(_small_code())
@settings(max_examples=40, deadline=None)
def test_scan_stores_each_distance_exactly_or_as_a_lower_bound(c):
    subsets = list(subsets_in_order(c.n))
    _, _, stored, exact = oracle._scan(c, None)
    # Every subset's distance afresh, from the same chunks as the scan.
    want = oracle._distances(c, subsets, None)
    assert np.all(stored <= want)
    close = stored <= oracle.DETECTION_TOL
    assert np.array_equal(exact, close)
    assert np.array_equal(stored[close], want[close])
    assert np.array_equal(close, want <= oracle.DETECTION_TOL)
    assert oracle.choi_decoupled(c, subsets) == close.tolist()
    assert np.max(np.abs(oracle.choi_decoupling(c, subsets) - want)) < 1e-13


@pytest.mark.parametrize("name", ["ghz_8", "four_two_two"])
def test_scan_takes_eigenvalues_only_of_decoupling_candidates(
        monkeypatch, name):
    c = catalog("ghz_n", 8) if name == "ghz_8" else catalog(name)
    real = np.linalg.eigvalsh
    matrices = []

    def counting(a, *args, **kwargs):
        matrices.append(int(np.prod(np.shape(a)[:-2])))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    oracle._scan.cache_clear()
    scan = oracle._scan(c, None)
    # Only forbidden subsets decouple: ghz_8's empty set, and
    # four_two_two's empty set and four single carriers.
    forbidden = set(classify(c).forbidden)
    assert sum(matrices) == len(forbidden) == {"ghz_8": 1,
                                               "four_two_two": 5}[name]
    assert scan[3].tolist() == [s in forbidden for s in subsets_in_order(c.n)]


def _random_density(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = raw @ raw.conj().T
    return rho / np.trace(rho)


@pytest.mark.parametrize("count,dim", [(1, 4), (2, 4), (7, 8), (8, 3)])
def test_pairwise_distance_matches_trace_distance(count, dim):
    rng = np.random.default_rng(count * dim)
    states = [_random_density(rng, dim) for _ in range(count)]
    want = max((oracle.trace_distance(a, b)
                for a, b in itertools.combinations(states, 2)), default=0.0)
    assert abs(oracle._max_pairwise_distance(states) - want) < 1e-12
    # A stack (c, count, r, r) compares states within each of its c groups.
    stacked = np.array([[_random_density(rng, dim) for _ in range(count)]
                        for _ in range(3)])
    want = max((oracle.trace_distance(a, b) for group in stacked
                for a, b in itertools.combinations(group, 2)), default=0.0)
    assert abs(oracle._max_pairwise_distance(stacked) - want) < 1e-12


@st.composite
def _code_and_subsets(draw):
    """A random code and a list of its subsets, in any order and possibly
    repeated; n reaches the sizes where equal-size subsets span chunks."""
    d = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, {2: 8, 3: 5, 5: 4}[d]))
    k = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    masks = draw(st.lists(st.integers(0, 2**n - 1), max_size=3 * 2**n))
    subsets = [tuple(i + 1 for i in range(n) if mask >> i & 1)
               for mask in masks]
    return random_code(rng, d, n, k), subsets


@given(_code_and_subsets())
@example((catalog("ghz_n", 8), list(subsets_in_order(8))))
@settings(max_examples=60, deadline=None)
def test_lifts_gather_each_subsets_kept_first(case):
    c, subsets = case
    v = oracle.encoding_isometry(c)
    seen = []
    for positions, w in oracle._lifts(v, c.d, subsets):
        size = len(subsets[positions[0]])
        assert len(positions) == len(w) >= 1
        # The chunk's W, and per subset one d^|S| x d^|S| operator and one
        # Choi marginal on the support, stay within the amplitude cap
        # unless the chunk holds one subset.
        choi = (c.d**c.k * min(c.d**size, c.d**(c.n - size + c.k)))**2
        assert (len(w) == 1 or len(w) * max(v.size, c.d**(2 * size), choi)
                <= pauli.DEFAULT_AMPLITUDE_CAP)
        for i, lift in zip(positions, w):
            assert len(subsets[i]) == size
            assert np.array_equal(lift, oracle._kept_first(v, c.d, subsets[i]))
        seen.extend(positions)
    assert sorted(seen) == list(range(len(subsets)))


@pytest.mark.parametrize("name", ["ghz_8", "rand_3_3_2"])
def test_chunked_checks_match_one_subset_calls(name):
    c = (catalog("ghz_n", 8) if name == "ghz_8"
         else load(Path(__file__).parent / "data" / f"{name}.json"))
    subsets = list(subsets_in_order(c.n))
    if name == "ghz_8":
        fours = [s for s in subsets if len(s) == 4]
        chunks = list(oracle._lifts(oracle.encoding_isometry(c), c.d, fours))
        assert len(fours) == 70 and len(chunks) > 2
    rng = np.random.default_rng(9)
    secrets = [oracle.basis_secret(c.d, c.k, 0)]
    secrets += [oracle.random_secret(c.d, c.k, rng) for _ in range(3)]
    # An empty twirl makes the intermediate subsets' distances nonzero.
    plan = twirl_plan(c, classify(c))
    plan = replace(plan, twirl_generators=(), key_length=0)
    singles = [[s] for s in subsets]
    assert oracle.info_group_bruteforce(c, subsets) == [
        oracle.info_group_bruteforce(c, one)[0] for one in singles]
    decs = oracle.choi_decoupling(c, subsets)
    for dec, one in zip(decs, singles, strict=True):
        assert abs(dec - oracle.choi_decoupling(c, one)[0]) < 1e-13, one
    for check in [
            lambda group: oracle.verify_concealment(c, plan, group),
            lambda group: oracle.verify_absence(c, group, secrets)]:
        each = [check(one) for one in singles]
        assert max(each) > 0.1
        assert abs(check(subsets) - max(each)) < 1e-13


@pytest.mark.parametrize("source", ["cnot_2_1", "four_two_two", "rand_3_3_2"])
def test_concealment_matches_per_key_reference(source):
    if source == "rand_3_3_2":
        c = load(Path(__file__).parent / "data" / "rand_3_3_2.json")
    else:
        c = catalog(source)
    t = classify(c)
    plan = twirl_plan(c, t)
    rng = np.random.default_rng(4)
    secrets = [oracle.basis_secret(c.d, c.k, j) for j in (0, 1)]
    secrets += [oracle.random_secret(c.d, c.k, rng) for _ in range(3)]
    # The full plan (distance ~0) and every plan with one generator dropped.
    plans = [plan]
    gens = plan.twirl_generators
    for drop in range(len(gens)):
        kept = gens[:drop] + gens[drop + 1:]
        plans.append(replace(plan, twirl_generators=kept,
                             key_length=len(kept)))
    # The bound holds for every plan and vanishes for the full one.
    assert oracle.verify_concealment(c, plan, t.intermediate) < oracle.STATE_TOL
    for p in plans:
        want = concealment_reference(c, p, secrets, t.intermediate)
        got = oracle.verify_concealment(c, p, t.intermediate)
        assert want <= got + 1e-12, (source, p.twirl_generators, got, want)


def test_info_group_bruteforce_examples(cnot, four_two_two):
    one, empty = oracle.info_group_bruteforce(cnot, [(1,), ()])
    assert one.generators == ((0, 1),)
    assert empty.is_trivial
    subsets = list(subsets_in_order(4))
    brutes = oracle.info_group_bruteforce(four_two_two, subsets)
    assert brutes == info_group(four_two_two, subsets)


def test_absence_examples(cnot, five_qubit):
    rng = np.random.default_rng(1)
    secrets = [oracle.random_secret(2, 1, rng) for _ in range(5)]
    assert oracle.verify_absence(five_qubit, [(1, 2), (1, 4), (3, 5)],
                                 secrets) < 1e-10
    zero_one = [oracle.basis_secret(2, 1, 0), oracle.basis_secret(2, 1, 1)]
    assert abs(oracle.verify_absence(cnot, [(1,)], zero_one) - 1.0) < 1e-12
    assert abs(oracle.verify_absence(cnot, [(), (1,)], zero_one) - 1.0) < 1e-12
    assert oracle.verify_absence(cnot, [()], zero_one) < 1e-12


def test_choi_decoupling_tracks_classification(five_qubit, four_two_two):
    for c in (five_qubit, four_two_two):
        t = classify(c)
        forbidden = set(t.forbidden)
        authorized = set(t.authorized)
        subsets = list(subsets_in_order(c.n))
        comps = [tuple(sorted(set(range(1, c.n + 1)) - set(s)))
                 for s in subsets]
        decs = oracle.choi_decoupling(c, subsets)
        comp_decs = oracle.choi_decoupling(c, comps)
        assert len(decs) == len(comp_decs) == len(subsets)
        for s, dec, comp_dec in zip(subsets, decs, comp_decs):
            assert (dec < 1e-10) == (s in forbidden), (c.name, s)
            assert (comp_dec < 1e-10) == (s in authorized), (c.name, s)


def test_choi_golden_values(four_two_two):
    # Frozen from a verified run.
    [dec] = oracle.choi_decoupling(four_two_two, [(1, 2)])
    assert abs(dec - 0.75) < 1e-12


def _reference_decoupling(v: np.ndarray, d: int, subset) -> float:
    """Decoupling of the reference+subset marginal of (I (x) v)|Phi+>, from
    the full Choi projector, one partial trace at a time."""
    k = round(np.log(v.shape[1]) / np.log(d))
    omega = (v.T / np.sqrt(d**k)).reshape(-1)
    keep = list(range(1, k + 1)) + [k + i for i in subset]
    rho_rs = oracle.partial_trace(np.outer(omega, omega.conj()), d, keep)
    rho_r = oracle.partial_trace(rho_rs, d, range(1, k + 1))
    rho_s = oracle.partial_trace(rho_rs, d, range(k + 1, len(keep) + 1))
    return oracle.trace_distance(rho_rs, np.kron(rho_r, rho_s))


@pytest.mark.parametrize("source", ["cnot_2_1", "four_two_two", "rand_3_3_2"])
def test_choi_decoupling_matches_per_subset_reference(source):
    if source == "rand_3_3_2":
        c = load(Path(__file__).parent / "data" / "rand_3_3_2.json")
    else:
        c = catalog(source)
    subsets = list(subsets_in_order(c.n))
    v = oracle.encoding_isometry(c)
    decs = oracle.choi_decoupling(c, subsets)
    assert len(decs) == len(subsets)
    for subset, dec in zip(subsets, decs):
        assert abs(dec - _reference_decoupling(v, c.d, subset)) < 1e-12, subset


@st.composite
def _code_and_plans(draw):
    """A random code with k < n (so the full subset's support is proper),
    its twirl plan, that plan with one generator dropped, and secrets."""
    d = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(2, {2: 4, 3: 3, 5: 2}[d]))
    k = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = random_code(rng, d, n, k)
    plan = twirl_plan(c, classify(c))
    plans = [plan]
    gens = plan.twirl_generators
    if gens:
        drop = draw(st.integers(0, len(gens) - 1))
        kept = gens[:drop] + gens[drop + 1:]
        plans.append(replace(plan, twirl_generators=kept, key_length=len(kept)))
    secrets = [oracle.basis_secret(d, k, j) for j in (0, d**k - 1)]
    secrets += [oracle.random_secret(d, k, rng) for _ in range(2)]
    return c, plans, secrets


@given(_code_and_plans())
@settings(max_examples=30, deadline=None)
def test_support_reduction_matches_full_size_references(case):
    # Every subset size is checked, including |S| > (n + k)/2, where the
    # support has fewer than d^|S| dimensions.
    c, plans, secrets = case
    subsets = list(subsets_in_order(c.n))
    v = oracle.encoding_isometry(c)
    for subset, dec in zip(subsets, oracle.choi_decoupling(c, subsets),
                           strict=True):
        assert abs(dec - _reference_decoupling(v, c.d, subset)) < 1e-12, subset
    intermediate = classify(c).intermediate
    assert oracle.verify_concealment(c, plans[0], intermediate) < oracle.STATE_TOL
    for p in plans:
        for subset in subsets:
            want = concealment_reference(c, p, secrets, [subset])
            got = oracle.verify_concealment(c, p, [subset])
            assert want <= got + 1e-12, (subset, p.twirl_generators)


def test_concealment_cnot(cnot):
    plan = twirl_plan(cnot)
    assert oracle.verify_concealment(cnot, plan, [(1,), (2,)]) < 1e-10


def test_concealment_fails_without_the_generator(cnot):
    plan = twirl_plan(cnot)
    crippled = replace(plan, twirl_generators=(), key_length=0)
    dist = oracle.verify_concealment(cnot, crippled, [(1,)])
    assert dist > 0.99


@st.composite
def _code_and_kept_generators(draw):
    """A random code, its triplet and its twirl plan with a random subset
    of the twirl generators kept."""
    d = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(2, {2: 4, 3: 3, 5: 2}[d]))
    k = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = random_code(rng, d, n, k)
    t = classify(c)
    plan = twirl_plan(c, t)
    mask = draw(st.lists(st.booleans(), min_size=plan.key_length,
                         max_size=plan.key_length))
    kept = tuple(g for g, keep in zip(plan.twirl_generators, mask) if keep)
    return c, t, replace(plan, twirl_generators=kept, key_length=len(kept))


@given(_code_and_kept_generators())
@settings(max_examples=40, deadline=None)
def test_concealment_bound_vanishes_iff_no_surviving_pauli_is_seen(case):
    # A nonidentity logical Pauli survives the twirl iff it commutes with
    # every kept generator.  The dense bound must vanish exactly when no
    # survivor lies in the symbolic G(S) of an intermediate subset.
    c, t, plan = case
    d, k = c.d, c.k
    paulis = np.array(list(itertools.product(range(d), repeat=2 * k)))[1:]
    kept = np.array([symplectic_vector(g) for g in plan.twirl_generators],
                    dtype=np.int64).reshape(-1, 2 * k)
    survivors = paulis[~pairing(paulis, kept, d).any(axis=1)]
    seen = False
    for g in info_group(c, t.intermediate):
        group = g.generator_rows()
        seen = seen or any(
            mod_rank(np.vstack([group, p]), d) == len(group) for p in survivors)
    bound = oracle.verify_concealment(c, plan, t.intermediate)
    assert (bound < oracle.STATE_TOL) == (not seen), (c, plan.twirl_generators)


def test_one_generator_of_a_minimal_key_can_conceal():
    # The intermediate groups are <XZ> and <XZ^2>.  Their span is every
    # Pauli, so a twirl that kills all of G_I needs both X and Z; but X
    # alone, or Z alone, already kills XZ and XZ^2 and all their powers.
    c = load(Path(__file__).parent / "data" / "rand_3_5_1.json")
    t = classify(c)
    assert {g.generators for g in info_group(c, t.intermediate)} == {
        ((1, 1),), ((1, 2),)}
    plan = twirl_plan(c, t)
    assert [str(g) for g in plan.twirl_generators] == ["x1z0", "x0z1"]
    rng = np.random.default_rng(6)
    secrets = [oracle.basis_secret(3, 1, j) for j in range(3)]
    secrets += [oracle.random_secret(3, 1, rng) for _ in range(2)]
    for g in plan.twirl_generators:
        single = replace(plan, twirl_generators=(g,), key_length=1)
        assert oracle.verify_concealment(c, single, t.intermediate) < 1e-12
        assert concealment_reference(c, single, secrets,
                                     t.intermediate) < 1e-12


def test_keyed_recovery_is_channel_equivalent(four_two_two):
    # Encoding a twirled secret with a known key keeps every authorized
    # subset's channel perfect: the complement stays decoupled.  The key's
    # operator U acts on the reference alone, (I (x) V U)|Phi+> =
    # (U^T (x) V)|Phi+>, so every keyed decoupling equals the unkeyed one.
    plan = twirl_plan(four_two_two)
    t = classify(four_two_two)
    v = oracle.encoding_isometry(four_two_two)
    comps = [tuple(sorted(set(range(1, 5)) - set(target)))
             for target in t.minimal_authorized]
    unkeyed = oracle.choi_decoupling(four_two_two, comps)
    for key in itertools.product(range(2), repeat=plan.key_length):
        u = pauli.dense_matrix(twirl_operator(plan, key), cap=4)
        for comp, plain in zip(comps, unkeyed):
            keyed = _reference_decoupling(v @ u, 2, comp)
            assert abs(keyed - plain) < 1e-12, (key, comp)
            assert keyed < 1e-10


def test_expansion_consistency(catalog_codes):
    rng = np.random.default_rng(5)
    for c in catalog_codes:
        secret = oracle.random_secret(c.d, c.k, rng)
        subsets = [(1,), tuple(range(1, c.n + 1))]
        assert oracle.expansion_consistency(c, secret, subsets) < 1e-10


@given(_small_code())
@settings(max_examples=30, deadline=None)
def test_expansion_consistency_on_random_codes(c):
    # Qudit encodings are complex, so mapping the support back needs Q's
    # conjugate.
    secret = oracle.random_secret(c.d, c.k, np.random.default_rng(c.n))
    assert oracle.expansion_consistency(
        c, secret, subsets_in_order(c.n)) < 1e-10


def test_scan_readers_take_each_subset_as_its_carrier_set(four_two_two):
    c = four_two_two
    # An empty twirl makes the concealment bound differ between subsets.
    bare = replace(twirl_plan(c, classify(c)), twirl_generators=(),
                   key_length=0)
    readers = [
        lambda subsets: oracle.info_group_bruteforce(c, subsets),
        lambda subsets: oracle.choi_decoupling(c, subsets),
        lambda subsets: [oracle.verify_concealment(c, bare, [s])
                         for s in subsets]]
    messy = [(2, 1), (3, 3, 1), (4, 2, 1, 3), (2,)]
    clean = [(1, 2), (1, 3), (1, 2, 3, 4), (2,)]
    for read in readers:
        assert read(messy) == read(clean)
        for bad in [(0,), (1, 5)]:
            with pytest.raises(ValueError, match="out of range"):
                read([(1,), bad])


def test_resource_caps():
    big = catalog("ghz_n", 13)
    with pytest.raises(ResourceLimitError):
        oracle.encoding_isometry(big)
    with pytest.raises(ResourceLimitError):
        oracle.encoding_isometry(catalog("ghz_n", 5), cap=8)


def test_invalid_code_rejected_by_projector():
    bad = StabilizerCode("not-commuting", 2, 2, 1,
                         (parse("XI"),), (parse("IX"),), (parse("IZ"),))
    # XI and the logicals are fine, but seed a contradictory stabilizer:
    # replace with a generator set whose group average is not a projector.
    worse = StabilizerCode("phase-broken", 2, 2, 1,
                           (parse("YI"),), (parse("IX"),), (parse("IZ"),))
    with pytest.raises(ValueError, match="not well formed"):
        oracle.encoding_isometry(worse)
    assert oracle.encoding_isometry(bad) is not None  # valid single-X stabilizer


def test_random_qutrit_codes_match_bruteforce():
    rng = np.random.default_rng(17)
    for (n, k) in [(2, 1), (3, 1), (3, 2)]:
        for trial in range(3):
            c = random_code(rng, 3, n, k, name=f"rand3_{n}{k}_{trial}")
            subsets = list(subsets_in_order(n))
            brutes = oracle.info_group_bruteforce(c, subsets)
            assert brutes == info_group(c, subsets), c


def test_qutrit_code_with_mixed_information_line():
    # G({1}) here is the line through X Z, a generator with both exponent
    # halves nonzero; pins the exponent-sign convention of the symbolic map
    # against the dense encoding (for D = 3 the two differ if mishandled).
    c = StabilizerCode(
        "qutrit_mixed", 3, 2, 1,
        (PauliProduct(3, (0, 1), (1, 0)),),
        (PauliProduct(3, (1, 0), (0, 1)),),
        (PauliProduct(3, (2, 0), (1, 2)),))
    from stabshare.code import validate

    assert validate(c).is_valid
    brutes = oracle.info_group_bruteforce(c, [(1,), (2,)])
    for symbolic, brute in zip(info_group(c, [(1,), (2,)]), brutes,
                               strict=True):
        assert symbolic.generators == ((1, 1),)
        assert brute.generators == ((1, 1),)


def test_qutrit_ghz_like_code():
    # [[2,1]]_3 with stabilizer <ZZ>: each site alone sees only Z information.
    c = StabilizerCode(
        "qutrit_zz", 3, 2, 1,
        (PauliProduct(3, (0, 0), (1, 1)),),
        (PauliProduct(3, (1, 2), (0, 0)),),   # X (x) X^2 commutes with ZZ
        (PauliProduct(3, (0, 0), (1, 0)),))
    from stabshare.code import validate

    assert validate(c).is_valid
    brutes = oracle.info_group_bruteforce(c, [(1,), (2,)])
    for symbolic, brute in zip(info_group(c, [(1,), (2,)]), brutes,
                               strict=True):
        assert symbolic.generators == ((0, 1),)
        assert brute.generators == ((0, 1),)
    assert info_group(c, [(1, 2)])[0].is_full


@pytest.mark.parametrize("d,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                 (5, 1), (7, 1)])
def test_logical_pauli_stack_equals_each_dense_pauli(d, k):
    # The Kronecker stack is bit for bit the dense matrix of each Pauli.
    exps, ops = oracle._logical_paulis(d, k)
    assert exps.shape == (d ** (2 * k), 2 * k)
    assert (exps[0] == 0).all()
    dense = np.array([pauli.dense_matrix(
        PauliProduct(d, tuple(e[:k]), tuple(e[k:])), cap=d**k) for e in exps])
    assert ops.shape == dense.shape
    assert np.max(np.abs(ops - dense)) == 0
    assert not exps.flags.writeable and not ops.flags.writeable
