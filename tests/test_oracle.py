from dataclasses import replace

import numpy as np
import pytest

from stabshare import catalog, classify, info_group, oracle, pauli
from stabshare.code import StabilizerCode
from stabshare.infogroup import subsets_in_order
from stabshare.pauli import PauliProduct, ResourceLimitError, parse
from stabshare.twirl import twirl_plan

from conftest import random_code


def test_cnot_codewords(cnot):
    words = oracle.codewords(cnot)
    assert np.allclose(words[0], [1, 0, 0, 0])
    assert np.allclose(words[1], [0, 0, 0, 1])


def test_ghz3_codewords():
    words = oracle.codewords(catalog("ghz_n", 3))
    zero = np.zeros(8); zero[0] = 1
    one = np.zeros(8); one[-1] = 1
    assert np.allclose(words[0], zero)
    assert np.allclose(words[1], one)


def test_five_qubit_codewords_are_stabilized(five_qubit):
    words = oracle.codewords(five_qubit)
    assert len(words) == 2
    elements = oracle.stabilizer_elements(five_qubit)
    assert len(elements) == 16
    for element in elements:
        dense = pauli.dense_matrix(element, cap=32)
        for w in words:
            assert np.max(np.abs(dense @ w - w)) < 1e-12
    assert abs(np.vdot(words[0], words[1])) < 1e-12


def test_encode_examples(cnot):
    plus = np.array([1, 1]) / np.sqrt(2)
    bell = oracle.encode(cnot, plus)
    assert np.allclose(bell, np.array([1, 0, 0, 1]) / np.sqrt(2))
    for j in (0, 1):
        assert np.allclose(oracle.encode(cnot, oracle.basis_secret(2, 1, j)),
                           oracle.codewords(cnot)[j])
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
    with pytest.raises(ValueError, match="out of range"):
        oracle.partial_trace(rho, 2, (4,))


def test_partial_trace_qutrit():
    a = np.array([1, 0, 0], dtype=complex)
    b = np.array([0, 1, 0], dtype=complex)
    state = np.kron(a, b)
    assert np.allclose(oracle.reduced_state(state, (2,), 3), np.outer(b, b))


def test_info_group_bruteforce_examples(cnot, four_two_two):
    assert oracle.info_group_bruteforce(cnot, (1,)).generators == ((0, 1),)
    assert oracle.info_group_bruteforce(cnot, ()).is_trivial
    for s in subsets_in_order(4):
        sym = info_group(four_two_two, s)
        assert oracle.info_group_bruteforce(four_two_two, s).generators == \
            sym.generators


def test_absence_examples(cnot, five_qubit):
    rng = np.random.default_rng(1)
    secrets = [oracle.random_secret(2, 1, rng) for _ in range(5)]
    for s in [(1, 2), (1, 4), (3, 5)]:
        assert oracle.verify_absence(five_qubit, s, secrets) < 1e-10
    zero_one = [oracle.basis_secret(2, 1, 0), oracle.basis_secret(2, 1, 1)]
    assert abs(oracle.verify_absence(cnot, (1,), zero_one) - 1.0) < 1e-12
    assert oracle.verify_absence(cnot, (), zero_one) < 1e-12


def test_choi_check_full_set(cnot, five_qubit):
    for c in (cnot, five_qubit):
        purity, defect = oracle.choi_check(c, tuple(range(1, c.n + 1)))
        assert abs(purity - 1.0) < 1e-12
        assert defect < 1e-10


def test_choi_decoupling_tracks_classification(five_qubit, four_two_two):
    for c in (five_qubit, four_two_two):
        t = classify(c)
        forbidden = set(t.forbidden)
        authorized = set(t.authorized)
        for s in subsets_in_order(c.n):
            dec = oracle.choi_decoupling(c, s)
            comp = tuple(sorted(set(range(1, c.n + 1)) - set(s)))
            assert (dec < 1e-10) == (s in forbidden), (c.name, s)
            assert (oracle.choi_decoupling(c, comp) < 1e-10) == \
                (s in authorized), (c.name, s)


def test_choi_golden_values(five_qubit, four_two_two):
    # Frozen from a verified run: mixedness of the traced-out carriers keeps
    # the reference+subset marginal away from purity one on proper subsets.
    purity, defect = oracle.choi_check(five_qubit, (1, 2, 3))
    assert abs(purity - 0.25) < 1e-12 and defect < 1e-10
    purity, _ = oracle.choi_check(five_qubit, (1, 2))
    assert abs(purity - 0.125) < 1e-12
    purity, defect = oracle.choi_check(four_two_two, (1, 2))
    assert abs(purity - 0.25) < 1e-12 and defect < 1e-10
    assert abs(oracle.choi_decoupling(four_two_two, (1, 2)) - 0.75) < 1e-12


def test_concealment_cnot(cnot):
    plan = twirl_plan(cnot)
    rng = np.random.default_rng(7)
    secrets = [oracle.basis_secret(2, 1, 0), oracle.basis_secret(2, 1, 1),
               np.array([1, 1]) / np.sqrt(2)]
    secrets += [oracle.random_secret(2, 1, rng) for _ in range(3)]
    for s in [(1,), (2,)]:
        assert oracle.verify_concealment(cnot, plan, secrets, s) < 1e-10


def test_concealment_fails_without_the_generator(cnot):
    plan = twirl_plan(cnot)
    crippled = replace(plan, twirl_generators=(), key_length=0)
    secrets = [oracle.basis_secret(2, 1, 0), oracle.basis_secret(2, 1, 1)]
    dist = oracle.verify_concealment(cnot, crippled, secrets, (1,))
    assert dist > 0.99


def test_keyed_recovery_is_channel_equivalent(four_two_two):
    # Encoding a twirled secret with a known key keeps every authorized
    # subset's channel perfect: the complement stays decoupled.
    from stabshare.twirl import enumerate_keys, twirl_operator

    plan = twirl_plan(four_two_two)
    t = classify(four_two_two)
    for key in list(enumerate_keys(plan))[:4]:
        op = twirl_operator(plan, key)
        for target in t.minimal_authorized[:2]:
            comp = tuple(sorted(set(range(1, 5)) - set(target)))
            assert oracle.choi_decoupling(four_two_two, comp,
                                          pre_operator=op) < 1e-10


def test_expansion_consistency(catalog_codes):
    rng = np.random.default_rng(5)
    for c in catalog_codes:
        secret = oracle.random_secret(c.d, c.k, rng)
        for s in [(1,), tuple(range(1, c.n + 1))]:
            assert oracle.expansion_consistency(c, secret, s) < 1e-10


def test_resource_caps():
    big = catalog("ghz_n", 13)
    with pytest.raises(ResourceLimitError):
        oracle.codewords(big)
    with pytest.raises(ResourceLimitError):
        oracle.codewords(catalog("ghz_n", 5), cap=8)


def test_invalid_code_rejected_by_projector():
    bad = StabilizerCode("not-commuting", 2, 2, 1,
                         (parse("XI"),), (parse("IX"),), (parse("IZ"),))
    # XI and the logicals are fine, but seed a contradictory stabilizer:
    # replace with a generator set whose group average is not a projector.
    worse = StabilizerCode("phase-broken", 2, 2, 1,
                           (parse("YI"),), (parse("IX"),), (parse("IZ"),))
    with pytest.raises(ValueError, match="not well formed"):
        oracle.code_projector(worse)
    assert oracle.code_projector(bad) is not None  # valid single-X stabilizer


def test_random_qutrit_codes_match_bruteforce():
    rng = np.random.default_rng(17)
    for (n, k) in [(2, 1), (3, 1), (3, 2)]:
        for trial in range(3):
            c = random_code(rng, 3, n, k, name=f"rand3_{n}{k}_{trial}")
            for s in subsets_in_order(n):
                sym = info_group(c, s)
                brute = oracle.info_group_bruteforce(c, s)
                assert sym.generators == brute.generators, (c, s)


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
    for s in [(1,), (2,)]:
        assert info_group(c, s).generators == ((1, 1),)
        assert oracle.info_group_bruteforce(c, s).generators == ((1, 1),)


def test_qutrit_ghz_like_code():
    # [[2,1]]_3 with stabilizer <ZZ>: each site alone sees only Z information.
    c = StabilizerCode(
        "qutrit_zz", 3, 2, 1,
        (PauliProduct(3, (0, 0), (1, 1)),),
        (PauliProduct(3, (1, 2), (0, 0)),),   # X (x) X^2 commutes with ZZ
        (PauliProduct(3, (0, 0), (1, 0)),))
    from stabshare.code import validate

    assert validate(c).is_valid
    for s in [(1,), (2,)]:
        assert info_group(c, s).generators == ((0, 1),)
        assert oracle.info_group_bruteforce(c, s).generators == ((0, 1),)
    assert info_group(c, (1, 2)).is_full
