"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdicts.
"""

import itertools
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from stabshare import catalog, classify, info_group, oracle
from stabshare.classical import monotone_share, reconstruct, shamir_share
from stabshare.classical import InsufficientSharesError, shamir_reconstruct
from stabshare.code import distance, ramp_parameters
from stabshare.infogroup import canonical_form, complement, subsets_in_order
from stabshare.pauli import PauliProduct, dense_matrix
from stabshare.twirl import intermediate_group, twirl_operator, twirl_plan

from conftest import concealment_reference


@contextmanager
def criterion(number, description):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} FAIL: {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number:>2} PASS: {description} [{elapsed:.2f}s]")


def sized(n, sizes):
    return {s for s in subsets_in_order(n) if len(s) in sizes}


def all_codes():
    codes = [catalog("cnot_2_1"), catalog("four_two_two"),
             catalog("five_qubit"), catalog("steane")]
    codes += [catalog("ghz_n", n) for n in (3, 4, 5, 6)]
    return codes


def test_criterion_1_five_qubit_threshold():
    with criterion(1, "five-qubit code classifies as the (3,5) threshold"):
        start = time.monotonic()
        t = classify(catalog("five_qubit"))
        assert set(t.authorized) == sized(5, {3, 4, 5})
        assert len(t.authorized) == 16
        assert set(t.forbidden) == sized(5, {0, 1, 2})
        assert t.intermediate == ()
        assert time.monotonic() - start < 5.0


def test_criterion_2_four_two_two_ramp():
    with criterion(2, "[[4,2,2]] ramp triplet; intermediate group has r+s=2"):
        start = time.monotonic()
        c = catalog("four_two_two")
        t = classify(c)
        assert set(t.authorized) == sized(4, {3, 4})
        assert set(t.forbidden) == sized(4, {0, 1})
        assert set(t.intermediate) == sized(4, {2})
        form = canonical_form(intermediate_group(c, t))
        assert form.r + form.s == 2
        assert time.monotonic() - start < 5.0


def test_criterion_3_steane_perfect():
    with criterion(3, "Steane: |S|>=5 in A, |S|<=2 in F, I empty"):
        start = time.monotonic()
        t = classify(catalog("steane"))
        authorized = set(t.authorized)
        forbidden = set(t.forbidden)
        assert sized(7, {5, 6, 7}) <= authorized
        assert sized(7, {0, 1, 2}) <= forbidden
        assert t.intermediate == ()
        for s in sized(7, {3, 4}):
            assert s in authorized or s in forbidden
        assert time.monotonic() - start < 30.0


def test_criterion_4_cnot_end_to_end():
    with criterion(4, "CNOT code: Z-only subset groups, <X> twirl, concealment, "
                      "keyed recovery"):
        c = catalog("cnot_2_1")
        assert [g.generators for g in info_group(c, [(1,), (2,)])] == [
            ((0, 1),), ((0, 1),)]
        t = classify(c)
        assert t.authorized == ((1, 2),)
        assert t.forbidden == ((),)
        assert set(t.intermediate) == {(1,), (2,)}
        plan = twirl_plan(c, t)
        assert [str(g) for g in plan.twirl_generators] == ["X"]
        assert plan.key_length == 1

        rng = np.random.default_rng(7)
        secrets = [oracle.random_secret(2, 1, rng) for _ in range(5)]
        assert oracle.verify_concealment(c, plan, [(1,), (2,)]) < 1e-10

        # Keyed recovery: undoing the dense twirl on the keyed encoding
        # returns the plain encoding.
        v = oracle.encoding_isometry(c)
        for key in itertools.product(range(2), repeat=plan.key_length):
            u = dense_matrix(twirl_operator(plan, key), cap=2)
            undo = v @ u.conj().T @ v.conj().T
            for psi in secrets:
                recovered = undo @ oracle.encode(c, u @ psi)
                error = np.max(np.abs(recovered - oracle.encode(c, psi)))
                assert error < 1e-10


def test_criterion_5_ghz_family():
    with criterion(5, "GHZ n=3..6: proper subsets see only Z, unit key, "
                      "concealment"):
        for n in (3, 4, 5, 6):
            c = catalog("ghz_n", n)
            t = classify(c)
            full = tuple(range(1, n + 1))
            assert t.authorized == (full,)
            assert t.forbidden == ((),)
            subsets = list(subsets_in_order(n))
            for s, g in zip(subsets, info_group(c, subsets)):
                if 0 < len(s) < n:
                    assert g.generators == ((0, 1),)
                    assert s in set(t.intermediate)
            plan = twirl_plan(c, t)
            assert plan.key_length == 1
            assert oracle.verify_concealment(c, plan, t.intermediate) < 1e-10


def test_criterion_6_oracle_equivalence():
    with criterion(6, "symbolic subset groups equal brute force on every subset "
                      "of every catalog code"):
        start = time.monotonic()
        for c in all_codes():
            assert c.d**c.n <= 128
            subsets = list(subsets_in_order(c.n))
            brutes = oracle.info_group_bruteforce(c, subsets)
            for s, symbolic, brute in zip(subsets, info_group(c, subsets),
                                          brutes, strict=True):
                assert symbolic.generators == brute.generators, (c.name, s)
        assert time.monotonic() - start < 300.0


def test_criterion_7_duality_and_monotonicity():
    with criterion(7, "duality and monotonicity hold for every catalog code"):
        for c in all_codes():
            t = classify(c)
            authorized = set(t.authorized)
            forbidden = set(t.forbidden)
            subsets = list(subsets_in_order(c.n))
            for s, direct in zip(subsets, info_group(c, subsets)):
                assert (s in authorized) == (complement(s, c.n) in forbidden)
                assert (s in authorized) == direct.is_full, (c.name, s)
                assert (s in forbidden) == direct.is_trivial, (c.name, s)
            for s in authorized:
                for extra in range(1, c.n + 1):
                    if extra not in s:
                        assert tuple(sorted(set(s) | {extra})) in authorized
            for s in forbidden:
                for drop in s:
                    assert tuple(sorted(set(s) - {drop})) in forbidden


def test_criterion_8_distances_and_ramp_parameters():
    with criterion(8, "brute-force distances 3,2,3,1,1 and ramp parameters"):
        assert distance(catalog("five_qubit")) == 3
        assert distance(catalog("four_two_two")) == 2
        assert distance(catalog("steane")) == 3
        assert distance(catalog("cnot_2_1")) == 1
        for n in (3, 4, 5, 6):
            assert distance(catalog("ghz_n", n)) == 1
        assert ramp_parameters(catalog("five_qubit")) == (3, 1)
        assert ramp_parameters(catalog("four_two_two")) == (3, 2)


def test_criterion_9_twirl_necessity():
    with criterion(9, "dropping any twirl generator restores "
                      "distinguishability >= 0.5"):
        secrets = [oracle.basis_secret(2, 1, 0), oracle.basis_secret(2, 1, 1),
                   np.array([1, 1]) / np.sqrt(2)]
        for c in [catalog("cnot_2_1"), catalog("ghz_n", 4)]:
            t = classify(c)
            plan = twirl_plan(c, t)
            for drop in range(len(plan.twirl_generators)):
                kept = tuple(g for i, g in enumerate(plan.twirl_generators)
                             if i != drop)
                crippled = replace(plan, twirl_generators=kept,
                                   key_length=len(kept))
                leaked = concealment_reference(c, crippled, secrets,
                                               t.intermediate)
                assert leaked >= 0.5, (c.name, drop, leaked)


def _poly_shares(coeffs, n, p):
    return {i: sum(cf * i**e for e, cf in enumerate(coeffs)) % p
            for i in range(1, n + 1)}


def test_criterion_10_classical_layer():
    with criterion(10, "Shamir correctness + exhaustive secrecy; monotone "
                       "reconstructs iff a minimal set is contained"):
        start = time.monotonic()
        for p in (5, 7):
            for n in range(1, 6):
                if p <= n:
                    # outside the stated precondition P > n: must refuse
                    with pytest.raises(ValueError):
                        shamir_share([0], 1, n, p, seed=0)
                    continue
                for q in range(1, n + 1):
                    for key in range(p):
                        shares = shamir_share([key], q, n, p, seed=q * n + key)
                        for group in itertools.combinations(
                                range(1, n + 1), q):
                            got = shamir_reconstruct(
                                {i: shares.shares[i] for i in group}, q, p)
                            assert got == [key]

        # Exhaustive perfect secrecy over every polynomial and every
        # unauthorized set, independent of the seeded sampler.
        for p in (5, 7):
            for q, n in [(2, 3), (2, 5), (3, 4), (3, 5)]:
                if p <= n:  # precondition P > n: not a valid Shamir instance
                    continue
                for size in range(1, q):
                    for viewers in itertools.combinations(
                            range(1, n + 1), size):
                        views = {}
                        for key in range(p):
                            counter = Counter()
                            for tail in itertools.product(
                                    range(p), repeat=q - 1):
                                shares = _poly_shares([key, *tail], n, p)
                                counter[tuple(shares[i]
                                              for i in viewers)] += 1
                            views[key] = counter
                        baseline = views[0]
                        for key in range(1, p):
                            assert views[key] == baseline

        minimal = [(1, 2), (2, 3)]
        bundle = monotone_share([3, 1], minimal, modulus=5, seed=0)
        for size in range(4):
            for subset in itertools.combinations(range(1, 4), size):
                if any(set(m) <= set(subset) for m in minimal):
                    assert reconstruct(bundle, subset) == [3, 1]
                else:
                    with pytest.raises(InsufficientSharesError):
                        reconstruct(bundle, subset)
        assert time.monotonic() - start < 60.0


def test_criterion_11_numerical_identities():
    with criterion(11, "Pauli-basis expansion consistency and orthonormality"):
        rng = np.random.default_rng(23)
        for c in all_codes():
            secret = oracle.random_secret(c.d, c.k, rng)
            subsets = [(1,), (1, 2), tuple(range(1, c.n + 1))]
            assert oracle.expansion_consistency(c, secret, subsets) < 1e-10

        for d, m in [(2, 1), (2, 2), (2, 3), (3, 1)]:
            ops = [PauliProduct(d, exps[:m], exps[m:])
                   for exps in itertools.product(range(d), repeat=2 * m)]
            dense = [dense_matrix(op) for op in ops]
            dim = d**m
            for i, a in enumerate(dense):
                for j, b in enumerate(dense):
                    val = np.trace(a.conj().T @ b) / dim
                    want = 1.0 if i == j else 0.0
                    assert abs(val - want) < 1e-12
