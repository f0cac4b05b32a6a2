import dataclasses
import json
import os
import random
from collections import Counter
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stabshare import catalog, classical, cli, infogroup, oracle, pauli, twirl
from stabshare import code as code_mod
from stabshare.cli import main

from conftest import (PHASE_OBSTRUCTED_LOGICAL, count_calls, two_carrier_file,
                      walk_leaves)

DATA = Path(__file__).parent / "data"
# A child interpreter imports this checkout's package, whatever the path
# of the pytest process.
CHILD_ENV = {**os.environ,
             "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


def run(capsys, *argv):
    # Each run starts from cold oracle caches, as a fresh process does.
    oracle._scan.cache_clear()
    oracle._logical_paulis.cache_clear()
    oracle._row_index.cache_clear()
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_validate_catalog(capsys):
    status, out, _ = run(capsys, "validate", "catalog:five_qubit")
    assert status == 0
    assert "valid [[5,1,3]]_2" in out


def test_validate_ghz_with_n(capsys):
    status, out, _ = run(capsys, "validate", "catalog:ghz_n", "--n", "6")
    assert status == 0
    assert "valid" in out


def test_validate_reports_distance_up_to_the_classify_cap(capsys):
    status, out, _ = run(capsys, "validate", "catalog:ghz_n", "--n", "9")
    assert status == 0
    assert "valid [[9,1,1]]_2 (ghz_9)" in out
    status, out, _ = run(capsys, "validate", "catalog:ghz_n", "--n", "21",
                         "--format", "structured")
    assert status == 0
    payload = json.loads(out)
    assert (payload["valid"], payload["distance"]) == (True, None)


def test_validate_corrupted_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x", "D": 4}')
    status, _, err = run(capsys, "validate", str(path))
    assert status == 2
    assert "missing field: n" in err

    composite = tmp_path / "composite.json"
    composite.write_text(json.dumps(
        {"name": "x", "D": 4, "n": 2, "k": 1,
         "stabilizer": [{"x": [0, 0], "z": [1, 1]}],
         "logical_x": [{"x": [1, 1], "z": [0, 0]}],
         "logical_z": [{"x": [0, 0], "z": [1, 0]}]}))
    status, _, err = run(capsys, "validate", str(composite))
    assert status == 2
    assert "D must be prime" in err


def test_validate_invalid_code_exits_nonzero(tmp_path, capsys):
    payload = {"name": "bad", "D": 2, "n": 2, "k": 1, "pauli_strings": True,
               "stabilizer": ["ZZ"], "logical_x": ["XI"],
               "logical_z": ["ZI"]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    status, _, err = run(capsys, "validate", str(path))
    assert status == 2  # load itself rejects invalid codes
    assert "invalid code" in err


def test_classify_rejects_boolean_and_oversized_fields(tmp_path, capsys):
    bools = tmp_path / "bools.json"
    bools.write_text(json.dumps(
        {"name": "b", "D": 2, "n": True, "k": True, "stabilizer": [],
         "logical_x": [{"x": [1], "z": [0]}],
         "logical_z": [{"x": [0], "z": [1]}]}))
    status, out, err = run(capsys, "classify", str(bools))
    assert (status, out) == (2, "")
    assert "field n must be an integer" in err

    big = tmp_path / "big.json"
    big.write_text(two_carrier_file(4294967311))
    status, out, err = run(capsys, "classify", str(big))
    assert (status, out) == (2, "")
    assert "2n(D-1)^2 < 2^63" in err


def test_classify_rejects_fractional_exponents(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(two_carrier_file(
        2, stabilizer=[{"x": [0, 0], "z": [1.9, 1.2]}]))
    status, out, err = run(capsys, "classify", str(bad))
    assert (status, out) == (2, "")
    assert "stabilizer[0]: \"x\" and \"z\" must be lists of integers" in err


def test_rejections_of_phase_obstruction_and_huge_d(tmp_path, capsys):
    odd = tmp_path / "odd.json"
    odd.write_text(json.dumps(PHASE_OBSTRUCTED_LOGICAL))
    for command in ("validate", "classify"):
        status, out, err = run(capsys, command, str(odd))
        assert (status, out) == (2, "")
        assert "X-bar 0 has order 4, not 2 (phase obstruction)" in err

    huge = tmp_path / "huge.json"
    huge.write_text(two_carrier_file(10**18 + 9))
    status, out, err = run(capsys, "validate", str(huge))
    assert (status, out) == (2, "")
    assert "too large" in err


@pytest.mark.parametrize("command", ["validate", "classify", "twirl-plan"])
@pytest.mark.parametrize("flag", ["--cap", "--seed"])
def test_cap_and_seed_belong_to_simulate_only(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "catalog:cnot_2_1", flag, "4"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 4" in capsys.readouterr().err


@pytest.mark.parametrize("check", cli.CHECK_NAMES)
def test_simulate_rejects_a_negative_seed_before_any_work(capsys, monkeypatch,
                                                          check):
    # numpy rejects a negative seed only once `--check all` reaches the
    # expansion check; the other checks would ignore it.
    calls = count_calls(monkeypatch, infogroup, "classify")
    status, out, err = run(capsys, "simulate", "catalog:cnot_2_1",
                           "--seed", "-1", "--check", check)
    assert (status, out) == (2, "")
    assert err == "input error: --seed must be a nonnegative integer, got -1\n"
    assert not calls


@pytest.mark.parametrize("check", ["all", "duality"])
@pytest.mark.parametrize("cap", ["-5", "0"])
def test_simulate_rejects_a_cap_below_one_before_any_work(capsys, monkeypatch,
                                                          check, cap):
    # Such a cap would fail every dense check as "resource cap exceeded"
    # (exit 3), and pass `--check duality`, which builds no dense object.
    calls = count_calls(monkeypatch, infogroup, "classify")
    status, out, err = run(capsys, "simulate", "catalog:cnot_2_1",
                           "--seed", "1", "--cap", cap, "--check", check)
    assert (status, out) == (2, "")
    assert err == f"input error: --cap must be a positive integer, got {cap}\n"
    assert not calls
    assert run(capsys, "simulate", "catalog:cnot_2_1", "--seed", "1",
               "--cap", "1", "--check", "duality")[0] == 0


@pytest.mark.parametrize("argv", [
    ("validate", "catalog:five_qubit", "--n", "9"),
    ("classify", "catalog:steane", "--n", "5"),
    ("twirl-plan", "catalog:four_two_two", "--n", "4"),
    ("simulate", "catalog:cnot_2_1", "--n", "2", "--seed", "1"),
    ("share-key", "--from-plan", "catalog:four_two_two", "--n", "4",
     "--seed", "1")])
def test_fixed_size_catalog_codes_reject_n(capsys, argv):
    status, out, err = run(capsys, *argv)
    assert (status, out) == (2, "")
    assert err.startswith("input error: catalog code ")
    assert "has a fixed size" in err


@pytest.mark.parametrize("argv", [
    ("--q", "2", "--n", "3", "--P", "5", "--key", "4"),
    ("--from-plan", "catalog:ghz_n", "--n", "4")])
def test_share_key_rejects_a_negative_seed(capsys, monkeypatch, argv):
    # random.Random seeds with |seed|, so -7 would repeat the shares of 7.
    calls = count_calls(monkeypatch, infogroup, "classify")
    status, out, err = run(capsys, "share-key", *argv, "--seed", "-7")
    assert (status, out) == (2, "")
    assert err == "input error: --seed must be a nonnegative integer, got -7\n"
    assert not calls
    assert run(capsys, "share-key", *argv, "--seed", "0")[0] == 0


@pytest.mark.parametrize("flag", ["--trace-tol", "--state-tol"])
def test_simulate_tolerances_are_fixed(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "catalog:cnot_2_1", "--seed", "1", flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_classify_rejects_non_string_name(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(two_carrier_file(2, name=None))
    status, out, err = run(capsys, "classify", str(bad))
    assert (status, out) == (2, "")
    assert "field name must be a string" in err


def test_unknown_catalog_is_input_error(capsys):
    status, _, err = run(capsys, "classify", "catalog:toric")
    assert status == 2
    assert "unknown catalog" in err


@pytest.mark.parametrize("argv", [
    ("validate",), ("classify",), ("twirl-plan",),
    ("simulate", "--seed", "1"), ("share-key", "--seed", "1", "--from-plan")])
def test_unreadable_code_file_is_input_error(tmp_path, capsys, argv):
    # A directory and a missing file: exit 2, not a traceback and exit 1.
    for path in (tmp_path, tmp_path / "missing.json"):
        status, out, err = run(capsys, *argv, str(path))
        assert (status, out) == (2, ""), path
        assert err.startswith("input error: [Errno "), err


def test_broken_stdout_pipe_is_not_an_input_error(monkeypatch):
    def broken(*args):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "_emit", broken)
    with pytest.raises(BrokenPipeError):
        main(["classify", "catalog:cnot_2_1"])


def test_classify_four_two_two_lists_pairs(capsys):
    status, out, _ = run(capsys, "classify", "catalog:four_two_two",
                         "--format", "structured")
    assert status == 0
    payload = json.loads(out)
    twos = [r for r in payload["records"] if r["class"] == "I"]
    assert sorted(tuple(r["subset"]) for r in twos) == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    assert payload["counts"] == {"A": 5, "F": 5, "I": 6}


def test_classify_five_qubit_summary(capsys):
    status, out, _ = run(capsys, "classify", "catalog:five_qubit")
    assert status == 0
    assert "threshold (3,5)" in out


def test_classify_single_subset(capsys):
    status, out, _ = run(capsys, "classify", "catalog:four_two_two",
                         "--subset", "1,2", "--format", "structured")
    assert status == 0
    payload = json.loads(out)
    assert payload["class"] == "I"
    assert (payload["r"], payload["s"]) == (0, 2)


def test_structured_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "classify", "catalog:steane",
                      "--format", "structured")
    _, second, _ = run(capsys, "classify", "catalog:steane",
                       "--format", "structured")
    assert first == second
    json.loads(first)  # round-trips through its own parser


def test_twirl_plan_text(capsys):
    status, out, _ = run(capsys, "twirl-plan", "catalog:cnot_2_1")
    assert status == 0
    assert "twirl = <X>, l = 1" in out
    assert "Shamir (2,2)" in out
    status, out, _ = run(capsys, "twirl-plan", "catalog:five_qubit")
    assert status == 0
    assert "no twirl needed (I empty)" in out


def test_twirl_plan_structured_round_trip(capsys):
    status, out, _ = run(capsys, "twirl-plan", "catalog:ghz_n", "--n", "5",
                         "--format", "structured")
    assert status == 0
    payload = json.loads(out)
    assert payload["key_length"] == 1
    assert payload["twirl_generators"] == ["X"]
    assert payload["classical_scheme"]["threshold_q"] == 5


def test_simulate_all_cnot(capsys):
    status, out, _ = run(capsys, "simulate", "catalog:cnot_2_1",
                         "--seed", "7", "--check", "all")
    assert status == 0
    assert "all checks passed" in out


def test_simulate_concealment_structured(capsys):
    status, out, _ = run(capsys, "simulate", "catalog:four_two_two",
                         "--seed", "1", "--check", "concealment",
                         "--format", "structured")
    assert status == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    conceal = [r for r in payload["results"] if r["check"] == "concealment"]
    assert conceal and conceal[0]["measured"] < 1e-10


def test_simulate_checks_each(capsys):
    for check in ("choi", "infogroup", "duality"):
        status, out, _ = run(capsys, "simulate", "catalog:cnot_2_1",
                             "--seed", "3", "--check", check)
        assert status == 0, (check, out)


def test_simulate_duality_fails_on_wrong_commutant(capsys, monkeypatch):
    real = infogroup.info_group

    def full_set_trivial(c, subsets, slots):
        # The full set's group comes back trivial, so the commutant of
        # G([]) (everything) is not the direct G([1, 2, 3, 4]).
        out = real(c, subsets, slots=slots)
        out[[len(s) == c.n for s in subsets]] = 0
        return out

    monkeypatch.setattr(infogroup, "info_group", full_set_trivial)
    status, out, _ = run(capsys, "simulate", "catalog:four_two_two",
                         "--seed", "3", "--check", "duality",
                         "--format", "structured")
    assert status == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    duality = next(r for r in payload["results"] if r["check"] == "duality")
    assert duality["pass"] is False
    assert duality["detail"].startswith("commutant of G([]) differs")


def test_simulate_duality_fails_on_a_group_outside_the_commutant(
        capsys, monkeypatch):
    real = infogroup.info_group

    def swapped(c, subsets, slots):
        # G([3, 4]) becomes G([1, 3]) = <X_2, Z_1>: the same rank, class
        # and (r, s), but Z_1 does not commute with X_1 in G([1, 2]).
        out = real(c, subsets, slots=slots)
        out[subsets.index((3, 4))] = out[subsets.index((1, 3))]
        return out

    monkeypatch.setattr(infogroup, "info_group", swapped)
    status, out, _ = run(capsys, "simulate", "catalog:four_two_two",
                         "--seed", "3", "--check", "duality",
                         "--format", "structured")
    assert status == 1
    duality = next(r for r in json.loads(out)["results"]
                   if r["check"] == "duality")
    assert duality["detail"] == ("commutant of G([1, 2]) differs from the "
                                 "direct G([3, 4])")


def test_simulate_duality_fails_on_wrong_record(capsys, monkeypatch):
    real = infogroup.classify

    def skewed(c):
        # [3, 4] is a complement, filled in by the duality rule.
        return _bump_s(real(c), (3, 4))

    monkeypatch.setattr(cli.infogroup, "classify", skewed)
    status, out, _ = run(capsys, "simulate", "catalog:four_two_two",
                         "--seed", "3", "--check", "duality",
                         "--format", "structured")
    assert status == 1
    duality = next(r for r in json.loads(out)["results"]
                   if r["check"] == "duality")
    assert duality["pass"] is False
    assert duality["detail"].startswith("classify gives [3, 4] (r, s)")


def test_simulate_duality_compares_rs_past_the_listing_cap(capsys,
                                                           monkeypatch):
    real = infogroup.classify

    def skewed(c):
        # [13] is the complement of [1, ..., 12]: the walk never visits it.
        return _bump_s(real(c), (13,))

    monkeypatch.setattr(cli.infogroup, "classify", skewed)
    status, out, _ = run(capsys, "simulate", "catalog:ghz_n", "--n", "13",
                         "--seed", "3", "--check", "duality",
                         "--format", "structured")
    assert status == 1
    duality = next(r for r in json.loads(out)["results"]
                   if r["check"] == "duality")
    assert duality["detail"] == ("classify gives [13] (r, s) = (0, 2), its "
                                 "group (0, 1)")


@pytest.mark.parametrize("change, detail", [
    pytest.param(lambda t: dataclasses.replace(
        t, minimal_authorized=t.minimal_authorized[1:]),
        "classify's minimal A sets differ from its classes' by [[1, 2, 3]]",
        id="minimal-A-dropped"),
    pytest.param(lambda t: dataclasses.replace(
        t, minimal_authorized=t.minimal_authorized[::-1]),
        "classify's minimal A sets differ from its classes' by []",
        id="minimal-A-reordered"),
    pytest.param(lambda t: dataclasses.replace(
        t, maximal_forbidden=t.maximal_forbidden[:-1]),
        "classify's maximal F sets differ from its classes' by [[4]]",
        id="maximal-F-dropped"),
    pytest.param(lambda t: dataclasses.replace(
        t, size_summary=t.size_summary[:2] + ((2, 0, 0, 7),)
        + t.size_summary[3:]),
        "classify's size_summary differs from its classes' [(0, 0, 1, 0), "
        "(1, 0, 4, 0), (2, 0, 0, 6), (3, 4, 0, 0), (4, 1, 0, 0)]",
        id="size-summary-bumped"),
])
def test_simulate_duality_checks_what_key_sharing_reads(capsys, monkeypatch,
                                                        change, detail):
    # The classes column is untouched: each change is to a field that key
    # sharing reads beside it.
    real = infogroup.classify
    monkeypatch.setattr(cli.infogroup, "classify", lambda c: change(real(c)))
    status, out, _ = run(capsys, "simulate", "catalog:four_two_two",
                         "--seed", "3", "--check", "duality",
                         "--format", "structured")
    assert status == 1
    duality = next(r for r in json.loads(out)["results"]
                   if r["check"] == "duality")
    assert duality["pass"] is False
    assert duality["detail"] == detail


@pytest.mark.parametrize("at", [
    pytest.param(15, id="A-set-below-I"),  # [1, 2, 3] below [1, 2, 3, 4]
    pytest.param(0, id="F-set-above-I"),  # [1] above []
])
def test_simulate_monotonicity_can_fail(capsys, monkeypatch, at):
    # The duality check, which would catch the flipped class first, is off.
    real = infogroup.classify

    def flipped(c):
        t = real(c)
        return dataclasses.replace(
            t, classes=t.classes[:at] + "I" + t.classes[at + 1:])

    monkeypatch.setattr(cli.infogroup, "classify", flipped)
    monkeypatch.setattr(cli, "_duality_mismatch", lambda *args: None)
    status, out, _ = run(capsys, "simulate", "catalog:four_two_two",
                         "--seed", "3", "--check", "duality",
                         "--format", "structured")
    assert status == 1
    results = {r["check"]: r for r in json.loads(out)["results"]}
    assert results["duality"]["pass"] is True
    assert results["monotonicity"] == {"check": "monotonicity", "pass": False}


def _bump_s(t, subset):
    """`t` with one more isotropic generator in `subset`'s s byte."""
    s = bytearray(t.s)
    s[list(infogroup.subsets_in_order(t.n)).index(subset)] += 1
    return dataclasses.replace(t, s=bytes(s))


def _zero_leaf(masks, state, echelons, mask):
    """A walk batch in which leaf `mask` alone gets a zero echelon: the
    batch's other leaves may share its node, so it points at a new one."""
    return (masks, np.where(masks == mask, len(echelons), state),
            np.concatenate([echelons, np.zeros_like(echelons[:1])]))


def test_simulate_duality_compares_classes_past_the_listing_cap(
        capsys, monkeypatch):
    # ghz_13 is past the listing cap, where classify's structured output
    # lists no records; the check still compares every class with its
    # columns.  Every proper nonempty subset is intermediate.
    real = infogroup._walk

    def corrupted(c):
        for masks, state, echelons in real(c):
            yield _zero_leaf(masks, state, echelons, 0b111)

    monkeypatch.setattr(infogroup, "_walk", corrupted)
    status, out, _ = run(capsys, "simulate", "catalog:ghz_n", "--n", "13",
                         "--seed", "3", "--check", "duality",
                         "--format", "structured")
    assert status == 1
    duality = next(r for r in json.loads(out)["results"]
                   if r["check"] == "duality")
    # The complement's record is compared first: by duality it is A.
    assert duality["detail"] == ("classify puts [4, 5, 6, 7, 8, 9, 10, 11, "
                                 "12, 13] in A, its group in I")


def test_simulate_duality_fails_on_wrong_walk_leaf(capsys, monkeypatch):
    real = infogroup._walk

    def corrupted(c):
        # Leaf {1, 2, 3} (bitmask 0b111) loses every generator of its group.
        for masks, state, echelons in real(c):
            yield _zero_leaf(masks, state, echelons, 0b111)

    monkeypatch.setattr(infogroup, "_walk", corrupted)
    status, out, _ = run(capsys, "simulate", "catalog:four_two_two",
                         "--seed", "3", "--check", "duality",
                         "--format", "structured")
    assert status == 1
    duality = next(r for r in json.loads(out)["results"]
                   if r["check"] == "duality")
    assert duality["pass"] is False
    assert duality["detail"] == "classify puts [1, 2, 3] in F, its group in A"


def test_simulate_duality_fails_on_wrong_intermediate_group(capsys,
                                                           monkeypatch):
    def leaves_only(c, triplet):
        # The span of the leaves' direct groups alone: it drops the
        # complements' groups C(G(L)), which on this code add generators.
        leaves = [s for s in triplet.intermediate if c.n not in s]
        rows = [row for g in infogroup.info_group(c, leaves)
                for row in g.generators]
        return infogroup.group_from_rows(c.d, c.k, rows)

    monkeypatch.setattr(twirl, "intermediate_group", leaves_only)
    status, out, _ = run(capsys, "simulate", str(DATA / "rand_3_3_2.json"),
                         "--seed", "3", "--check", "duality",
                         "--format", "structured")
    assert status == 1
    duality = next(r for r in json.loads(out)["results"]
                   if r["check"] == "duality")
    assert duality["pass"] is False
    assert duality["detail"].startswith(
        "intermediate group from classify differs")


# The ids name each check with the group-solve count it had when the twirl
# plan still solved its maximal intermediate subsets on their own.
@pytest.mark.parametrize("check", [
    pytest.param("all", id="all-30"),
    pytest.param("concealment", id="concealment-30"),
    pytest.param("choi", id="choi-24"),
    pytest.param("infogroup", id="infogroup-24"),
    pytest.param("duality", id="duality-24")])
def test_simulate_solves_each_subset_once(capsys, monkeypatch, check):
    solved = []
    real = infogroup.info_group

    def recording(c, subsets, **kwargs):
        solved.append(list(subsets))
        return real(c, subsets, **kwargs)

    monkeypatch.setattr(infogroup, "info_group", recording)
    leaves = walk_leaves(monkeypatch)
    status, _, _ = run(capsys, "simulate", "catalog:four_two_two",
                       "--seed", "1", "--check", check)
    assert status == 0
    # classify's lattice walk solves the 8 subsets without carrier 4, and
    # one `info_group` call solves the 16 direct groups shared by duality
    # and infogroup under every check: the intermediate group comes from
    # the walk, with no solve of its own.  The duality check compares each
    # pair by its pairings and ranks, with no commutant.
    assert len(leaves) == 8
    assert solved == [list(infogroup.subsets_in_order(4))]


def test_simulate_resource_cap(capsys, monkeypatch):
    calls = count_calls(monkeypatch, infogroup, "classify", "info_group")
    for check in ("all", "concealment", "choi", "infogroup"):
        status, _, err = run(capsys, "simulate", "catalog:ghz_n", "--n", "13",
                             "--seed", "1", "--check", check)
        assert status == 3, check
        assert "resource cap" in err
        # The dense cap is met before a single group is solved.
        assert not calls, check
    # The duality check builds no dense object, so the cap does not stop it.
    dense = count_calls(monkeypatch, oracle, "encoding_isometry")
    status, out, _ = run(capsys, "simulate", "catalog:ghz_n", "--n", "13",
                         "--seed", "1", "--check", "duality")
    assert status == 0
    assert "access/forbidden duality holds" in out
    assert not dense


@pytest.mark.parametrize("check", ["choi", "all", "infogroup", "concealment"])
def test_simulate_meets_the_choi_cap_first(capsys, monkeypatch, check):
    # ghz_12's encoding has D^n = 4096 amplitudes, within the default cap;
    # its Choi vector has D^(n+k) = 8192, and every dense check reads the
    # scan's Choi states.
    calls = count_calls(monkeypatch, infogroup, "classify", "info_group")
    status, _, err = run(capsys, "simulate", "catalog:ghz_n", "--n", "12",
                         "--seed", "1", "--check", check)
    assert status == 3
    assert err == ("resource cap exceeded: dense object needs 8192 "
                   "amplitudes, cap is 4096\n")
    assert not calls


def test_simulate_reports_a_dense_contradiction_as_a_failed_check(
        capsys, monkeypatch):
    real = oracle._choi_state

    def lossy(w):
        # Drop the only traced basis state of the full subset: its Choi
        # state vanishes, and with it every image there, even the
        # identity's.
        return real(w[:, :, 1:] if w.shape[2] == 1 else w)

    monkeypatch.setattr(oracle, "_choi_state", lossy)
    status, out, err = run(capsys, "simulate", "catalog:four_two_two",
                           "--seed", "1", "--check", "infogroup",
                           "--format", "structured")
    assert status == 1
    assert not err
    [rec] = [r for r in json.loads(out)["results"] if not r["pass"]]
    assert rec == {"check": "infogroup", "pass": False,
                   "detail": "mismatch at [(1, 2, 3, 4)]"}


def test_simulate_builds_each_dense_operator_once(capsys, monkeypatch):
    real = pauli.dense_matrix
    sites = Counter()

    def counting(p, *args, **kwargs):
        sites[p.m] += 1
        return real(p, *args, **kwargs)

    monkeypatch.setattr(pauli, "dense_matrix", counting)
    twirls = count_calls(monkeypatch, twirl, "twirl_operator")
    status, _, _ = run(capsys, "simulate", "catalog:four_two_two",
                       "--seed", "1", "--check", "infogroup")
    assert status == 0
    # The D^(2k) = 16 logical Paulis, imaged as one stack on all 16
    # subsets, are Kronecker products of the D^2 = 4 dense single-qudit
    # Paulis: no two-qudit Pauli is built densely.
    assert sites == {1: 4}
    assert not twirls
    sites.clear()
    status, _, _ = run(capsys, "simulate", "catalog:four_two_two",
                       "--seed", "1", "--check", "all")
    assert status == 0
    # The scan, concealment and expansion share one stack, and
    # concealment's twirl builds g^e for each of its l = 4 generators and
    # e in Z_2.  No key is enumerated, and the key check draws its key
    # without building an operator.
    assert sites == {1: 4, 2: 4 * 2}
    assert not twirls
    sites.clear()
    status, _, _ = run(capsys, "simulate", "catalog:four_two_two",
                       "--seed", "1", "--check", "concealment")
    assert status == 0
    assert sites == {1: 4, 2: 4 * 2}  # the encoding is not dense
    assert not twirls


@pytest.mark.parametrize("check,failing", [
    ("infogroup", {"infogroup"}),
    ("concealment", {"concealment"}),
    ("all", {"choi", "concealment", "expansion", "infogroup",
             "keyed_recovery"}),
    ("choi", {"choi"})])
def test_simulate_fails_on_lossy_reduction(capsys, monkeypatch, check,
                                           failing):
    real = oracle._choi_state

    def lossy(w):
        # Drop the first traced basis state wherever more than one is traced.
        return real(w[:, :, 1:] if w.shape[2] > 1 else w)

    # GHZ_3 in the X basis.  Its twirl leaves X-bar = ZZZ, whose
    # restriction to any traced set is diagonal, so a Choi state that drops
    # a traced basis state also breaks concealment.  Absence reads its
    # spectra from the encoding directly, so it still passes.
    path = DATA / "ghz_x_3.json"
    status, out, _ = run(capsys, "simulate", str(path), "--seed", "1",
                         "--check", check, "--format", "structured")
    assert status == 0
    monkeypatch.setattr(oracle, "_choi_state", lossy)
    status, out, _ = run(capsys, "simulate", str(path), "--seed", "1",
                         "--check", check, "--format", "structured")
    assert status == 1
    results = json.loads(out)["results"]
    assert {r["check"] for r in results if not r["pass"]} == failing
    # A failing choi record reports the exact worst forbidden distance of
    # the lossy states, not a lower bound on it.
    for rec in results:
        if rec["check"] == "choi":
            assert abs(rec["measured"] - 0.0546875) < 1e-12


def test_simulate_fails_absence_on_lossy_lifts(capsys, monkeypatch):
    real = oracle._lifts

    def lossy(v, d, subsets):
        # Zero the first traced basis state of every gathered W.
        for positions, w in real(v, d, subsets):
            w = w.copy()
            w[:, :, 0] = 0
            yield positions, w

    status, out, _ = run(capsys, "simulate", "catalog:five_qubit",
                         "--seed", "1", "--format", "structured")
    assert status == 0
    monkeypatch.setattr(oracle, "_lifts", lossy)
    status, out, _ = run(capsys, "simulate", "catalog:five_qubit",
                         "--seed", "1", "--format", "structured")
    assert status == 1
    [rec] = [r for r in json.loads(out)["results"] if r["check"] == "absence"]
    assert not rec["pass"] and rec["measured"] > 0.1


def test_simulate_scans_each_chunk_once(capsys, monkeypatch):
    c = catalog("ghz_n", 8)
    chunks = list(oracle._lifts(oracle.encoding_isometry(c), c.d,
                                infogroup.subsets_in_order(c.n)))
    assert len(chunks) > c.n + 1  # some subset size spans several chunks
    calls = count_calls(monkeypatch, oracle, "_on_support", "subsets_in_order")
    status, _, _ = run(capsys, "simulate", "catalog:ghz_n", "--n", "8",
                       "--seed", "1", "--check", "all")
    assert status == 0
    # One support per chunk of the scan; infogroup, choi, concealment and
    # keyed recovery read it, and expansion and absence take their own.
    # The subsets are listed once for the scan and once for the index by
    # which its readers find their rows.
    assert calls == {"_on_support": len(chunks), "subsets_in_order": 2}


def test_simulate_makes_one_choi_call_per_check(capsys, monkeypatch):
    real = oracle.choi_decoupling
    asked = []

    def recording(c, subsets, *args, **kwargs):
        asked.append(list(subsets))
        return real(c, subsets, *args, **kwargs)

    monkeypatch.setattr(oracle, "choi_decoupling", recording)
    calls = count_calls(monkeypatch, oracle, "choi_decoupled")
    status, _, _ = run(capsys, "simulate", "catalog:four_two_two",
                       "--seed", "1", "--check", "all")
    assert status == 0
    # The choi check reads all 16 verdicts in one call, and its exact
    # distances for the 5 forbidden subsets in another; keyed recovery
    # asks for (4,), the complement of the authorized set (1, 2, 3).
    assert calls == {"choi_decoupled": 1}
    assert asked == [list(infogroup.classify(
        catalog("four_two_two")).forbidden), [(4,)]]


@pytest.mark.parametrize("check", ["concealment", "all"])
def test_simulate_fails_on_wrong_empty_plan(capsys, monkeypatch, check):
    real = twirl.twirl_plan

    def empty(c, triplet=None):
        # cnot_2_1 has intermediate subsets but this plan twirls nothing.
        return dataclasses.replace(real(c, triplet),
                                   twirl_generators=(), key_length=0)

    monkeypatch.setattr(twirl, "twirl_plan", empty)
    status, out, _ = run(capsys, "simulate", "catalog:cnot_2_1",
                         "--seed", "1", "--check", check,
                         "--format", "structured")
    assert status == 1
    conceal = next(r for r in json.loads(out)["results"]
                   if r["check"] == "concealment")
    assert conceal["pass"] is False


def test_simulate_fails_key_reconstruction_on_a_wrong_key(capsys,
                                                           monkeypatch):
    real = classical.key_transport
    plan = twirl.twirl_plan(catalog("four_two_two"))
    # Seeds 1 and 2 draw different keys for this plan.
    assert (twirl.draw_key(plan, random.Random(1))
            != twirl.draw_key(plan, random.Random(2)))

    def next_seed(plan, triplet, seed):
        return real(plan, triplet, seed + 1)

    monkeypatch.setattr(classical, "key_transport", next_seed)
    status, out, _ = run(capsys, "simulate", "catalog:four_two_two",
                         "--seed", "1", "--format", "structured")
    assert status == 1
    failed = [r["check"] for r in json.loads(out)["results"] if not r["pass"]]
    assert failed == ["key_reconstruction"]


def _limit_memory():
    import resource

    limit = 2 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("check", ["concealment", "all"])
def test_simulate_caps_before_building_secrets(check):
    # D^k = 65537^2 amplitudes per secret: the dense cap must stop the run
    # before any secret is allocated.  The child's address space is limited
    # so that a regression fails fast instead of exhausting memory.
    proc = subprocess.run(
        [sys.executable, "-m", "stabshare.cli", "simulate",
         str(DATA / "rand_65537_7_2.json"), "--seed", "1", "--check", check],
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory,
        env=CHILD_ENV)
    assert proc.returncode == 3, proc.stderr
    assert "resource cap exceeded" in proc.stderr


def test_share_key_explicit(capsys):
    status, out, _ = run(capsys, "share-key", "--q", "3", "--n", "5",
                         "--P", "7", "--key", "1,0,1", "--seed", "2",
                         "--format", "structured")
    assert status == 0
    payload = json.loads(out)
    bundle = classical.ClassicalShareSet.from_dict(payload)
    assert bundle.n == 5 and bundle.q == 3 and bundle.key_length == 3
    import itertools

    for trio in itertools.combinations(range(1, 6), 3):
        assert classical.reconstruct(bundle, trio) == [1, 0, 1]
    with pytest.raises(classical.InsufficientSharesError):
        classical.reconstruct(bundle, (1, 2))


def test_share_key_from_plan(capsys):
    status, out, _ = run(capsys, "share-key", "--from-plan", "catalog:ghz_n",
                         "--n", "4", "--seed", "9", "--format", "structured")
    assert status == 0
    payload = json.loads(out)
    assert payload["q"] == 4 and payload["n"] == 4
    assert payload["source_modulus"] == 2
    bundle = classical.ClassicalShareSet.from_dict(payload)
    from stabshare.twirl import sample_twirl, twirl_plan

    plan = twirl_plan(catalog("ghz_n", 4))
    key, _ = sample_twirl(plan, 9)
    assert classical.reconstruct(bundle, (1, 2, 3, 4)) == list(key)


def test_share_key_missing_flags(capsys):
    status, _, err = run(capsys, "share-key", "--q", "3", "--seed", "2")
    assert status == 2
    assert "--n" in err and "--key" in err


@pytest.mark.parametrize("key", ["7", "-1", "1,5", "0,4,-5"])
def test_share_key_rejects_digits_outside_the_share_field(capsys, key):
    # Reducing mod P would share a different key: 7 and -1 become 2 and 4.
    status, out, err = run(capsys, "share-key", "--q", "2", "--n", "3",
                           "--P", "5", f"--key={key}", "--seed", "1")
    assert status == 2 and out == ""
    assert "outside 0..4" in err


def test_share_key_accepts_the_field_edges(capsys):
    status, out, _ = run(capsys, "share-key", "--q", "2", "--n", "3",
                         "--P", "5", "--key", "0,4", "--seed", "1",
                         "--format", "structured")
    assert status == 0
    bundle = classical.ClassicalShareSet.from_dict(json.loads(out))
    assert classical.reconstruct(bundle, (1, 2)) == [0, 4]


@pytest.mark.parametrize("extra", [
    ("--key", "7"), ("--q", "1"), ("--P", "3"), ("--key", "0"),
    ("--key", "7", "--q", "1", "--P", "3")])
def test_share_key_from_plan_rejects_explicit_flags(capsys, extra):
    # The plan fixes the key, q and P; an explicit one would be ignored.
    status, out, err = run(capsys, "share-key", "--from-plan", "catalog:ghz_n",
                           "--n", "4", *extra, "--seed", "9")
    assert status == 2 and out == ""
    assert err == ("input error: --from-plan takes the key, q and P from the "
                   "plan; drop --key, --q and --P\n")


def test_share_key_from_plan_perfect_scheme(capsys):
    status, _, err = run(capsys, "share-key", "--from-plan",
                         "catalog:five_qubit", "--seed", "2")
    assert status == 2
    assert "no key to share" in err


def test_share_key_writes_file(tmp_path, capsys):
    out_path = tmp_path / "bundle.json"
    status, _, _ = run(capsys, "share-key", "--q", "2", "--n", "3",
                       "--P", "5", "--key", "4", "--seed", "0",
                       "--out", str(out_path))
    assert status == 0
    bundle = classical.ClassicalShareSet.from_dict(
        json.loads(out_path.read_text()))
    assert classical.reconstruct(bundle, (1, 3)) == [4]


def test_share_key_unwritable_out_is_input_error(tmp_path, capsys):
    # A directory and a file in a missing directory: exit 2, nothing printed.
    for path in (tmp_path, tmp_path / "missing" / "bundle.json"):
        status, out, err = run(capsys, "share-key", "--q", "2", "--n", "3",
                               "--P", "5", "--key", "4", "--seed", "0",
                               "--out", str(path))
        assert (status, out) == (2, ""), path
        assert err.startswith("input error: [Errno "), err


def test_validate_file_round_trip(tmp_path, capsys):
    path = tmp_path / "five.json"
    code_mod.save(catalog("five_qubit"), path)
    status, out, _ = run(capsys, "validate", str(path))
    assert status == 0
    assert "valid [[5,1,3]]_2" in out


@pytest.mark.parametrize("source,extra", [
    ("catalog:cnot_2_1", ()),
    ("catalog:four_two_two", ()),
    ("catalog:five_qubit", ()),
    ("catalog:steane", ()),
    ("catalog:ghz_n", ("--n", "3")),
    ("catalog:ghz_n", ("--n", "5")),
])
def test_simulate_all_whole_catalog(capsys, source, extra):
    status, out, _ = run(capsys, "simulate", source, *extra, "--seed", "11")
    assert status == 0, out
    assert "all checks passed" in out


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "stabshare.cli", "classify",
         "catalog:cnot_2_1", "--format", "structured"],
        capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["counts"] == {"A": 1, "F": 1, "I": 2}
