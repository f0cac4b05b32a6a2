import json
import time

import numpy as np
import pytest

from stabshare import oracle, pauli
from stabshare.code import (
    CATALOG_NAMES,
    CodeFileError,
    CodeValidationError,
    StabilizerCode,
    catalog,
    dumps,
    load,
    loads,
    save,
    validate,
)
from stabshare.primefield import is_prime

from conftest import PHASE_OBSTRUCTED_LOGICAL, random_code, two_carrier_file


def test_catalog_codes_validate(catalog_codes):
    for c in catalog_codes:
        report = validate(c)
        assert report.is_valid, (c.name, report.violations)
        assert report.notes


def test_cnot_catalog_shape(cnot):
    assert (cnot.d, cnot.n, cnot.k) == (2, 2, 1)
    assert [str(g) for g in cnot.stabilizer] == ["ZZ"]
    assert [str(g) for g in cnot.logical_x] == ["XX"]
    assert [str(g) for g in cnot.logical_z] == ["ZI"]


def test_ghz_catalog_shape():
    g = catalog("ghz_n", 3)
    assert [str(s) for s in g.stabilizer] == ["ZZI", "IZZ"]
    assert str(g.logical_x[0]) == "XXX"
    assert str(g.logical_z[0]) == "ZII"
    with pytest.raises(ValueError):
        catalog("ghz_n")
    with pytest.raises(ValueError):
        catalog("ghz_n", 1)


@pytest.mark.parametrize("name", [n for n in CATALOG_NAMES if n != "ghz_n"])
def test_fixed_size_catalog_codes_take_no_carrier_count(name):
    with pytest.raises(ValueError, match=f"{name} has a fixed size"):
        catalog(name, 5)
    assert catalog(name, None) == catalog(name)


def test_unknown_catalog_name():
    with pytest.raises(ValueError, match="unknown catalog"):
        catalog("shor")


def test_planted_commutation_violation(five_qubit):
    bad = StabilizerCode(
        "broken", 2, 5, 1,
        (pauli.parse("ZZZXI"),) + five_qubit.stabilizer[1:],
        five_qubit.logical_x, five_qubit.logical_z)
    report = validate(bad)
    assert not report.is_valid
    assert any("0 and 2 do not commute" in v for v in report.violations)


def test_phase_obstruction_detected():
    bad = StabilizerCode(
        "odd-overlap", 2, 2, 1,
        (pauli.parse("YI"),), (pauli.parse("IX"),), (pauli.parse("IZ"),))
    report = validate(bad)
    assert any("phase obstruction" in v for v in report.violations)


def test_phase_obstructed_logical_rejected():
    with pytest.raises(CodeValidationError,
                       match=r"X-bar 0 has order 4, not 2 \(phase obstruction\)"):
        loads(json.dumps(PHASE_OBSTRUCTED_LOGICAL))
    code = StabilizerCode(
        "odd-logical", 2, 3, 1, (pauli.parse("XIX"), pauli.parse("XZX")),
        (pauli.parse("ZIY"),), (pauli.parse("YIY"),))
    assert validate(code).violations == [
        "X-bar 0 has order 4, not 2 (phase obstruction)"]


def _broken(d, stab, lx, lz):
    p = lambda text: pauli.parse(text, d)
    return StabilizerCode("broken", d, 5, 2, tuple(map(p, stab)),
                          tuple(map(p, lx)), tuple(map(p, lz)))


def test_validate_lists_every_violation_in_order():
    bad = _broken(2, ["XIIII", "ZIIII", "YIIII"], ["XYIII", "IZIII"],
                  ["IIXII", "IIZII"])
    assert validate(bad).violations == [
        "stabilizer generators 0 and 1 do not commute (exponent 1)",
        "stabilizer generators 0 and 2 do not commute (exponent 1)",
        "stabilizer generators 1 and 2 do not commute (exponent 1)",
        "stabilizer generators are projectively dependent",
        "stabilizer generator 2 has order 4, not 2 (phase obstruction)",
        "X-bar 0 has order 4, not 2 (phase obstruction)",
        "X-bar 0 does not commute with stabilizer generator 1 (exponent 1)",
        "X-bar 0 does not commute with stabilizer generator 2 (exponent 1)",
        "pairing of X-bar 0 with Z-bar 0 is 0, want 1",
        "pairing of X-bar 1 with Z-bar 1 is 0, want 1",
        "X-bar 0 and X-bar 1 do not commute",
        "Z-bar 0 and Z-bar 1 do not commute",
        "logical representatives are dependent modulo the stabilizer span",
    ]
    site = lambda *tokens: ".".join(tokens + ("x0z0",) * (5 - len(tokens)))
    qutrit = _broken(3, [site("x1z0"), site("x0z1"), site("x1z1")],
                     [site("x0z2", "x1z0"), site("x0z0", "x0z1")],
                     [site("x0z0", "x2z0", "x1z0"),
                      site("x0z0", "x0z0", "x0z2")])
    assert validate(qutrit).violations == [
        "stabilizer generators 0 and 1 do not commute (exponent 1)",
        "stabilizer generators 0 and 2 do not commute (exponent 1)",
        "stabilizer generators 1 and 2 do not commute (exponent 2)",
        "stabilizer generators are projectively dependent",
        "X-bar 0 does not commute with stabilizer generator 0 (exponent 1)",
        "X-bar 0 does not commute with stabilizer generator 2 (exponent 1)",
        "pairing of X-bar 0 with Z-bar 0 is 0, want 1",
        "pairing of X-bar 1 with Z-bar 0 is 1, want 0",
        "pairing of X-bar 1 with Z-bar 1 is 0, want 1",
        "X-bar 0 and X-bar 1 do not commute",
        "Z-bar 0 and Z-bar 1 do not commute",
        "logical representatives are dependent modulo the stabilizer span",
    ]


def test_equivalent_logical_representative_still_valid(cnot):
    # IZ = ZI * ZZ projectively: a different representative of the same coset
    alt = StabilizerCode("alt-rep", 2, 2, 1, cnot.stabilizer,
                         cnot.logical_x, (pauli.parse("IZ"),))
    assert validate(alt).is_valid


def test_bad_logical_pairing_reported(cnot):
    bad = StabilizerCode("bad-pairing", 2, 2, 1, cnot.stabilizer,
                         cnot.logical_x, (pauli.parse("XI"),))
    report = validate(bad)
    assert any("pairing of X-bar 0 with Z-bar 0 is 0, want 1" in v
               for v in report.violations)


def test_dependent_logicals_reported(cnot):
    bad = StabilizerCode("dependent", 2, 2, 1, cnot.stabilizer,
                         cnot.logical_x, (pauli.parse("ZZ"),))
    report = validate(bad)
    assert any("dependent modulo the stabilizer" in v
               for v in report.violations)


def test_structural_errors_raise():
    with pytest.raises(ValueError, match="stabilizer generators"):
        StabilizerCode("x", 2, 3, 1, (pauli.parse("ZZZ"),),
                       (pauli.parse("XXX"),), (pauli.parse("ZII"),))
    with pytest.raises(ValueError, match="site count"):
        StabilizerCode("x", 2, 2, 1, (pauli.parse("ZZZ"),),
                       (pauli.parse("XX"),), (pauli.parse("ZI"),))


def test_codewords_satisfy_stabilizer_exactly(catalog_codes):
    import numpy as np

    for c in catalog_codes:
        words = oracle.encoding_isometry(c).T
        for generator in c.stabilizer:
            dense = pauli.dense_matrix(generator, cap=2**c.n)
            for w in words:
                assert np.max(np.abs(dense @ w - w)) < 1e-12, c.name


def test_save_load_round_trip(tmp_path, catalog_codes):
    for c in catalog_codes:
        text = dumps(c)
        again = loads(text)
        assert again == c
        assert dumps(again) == text  # byte-stable serialization
        path = tmp_path / f"{c.name}.json"
        save(c, path)
        assert load(path) == c


def test_load_accepts_pauli_strings(tmp_path):
    payload = {
        "name": "cnot_2_1", "D": 2, "n": 2, "k": 1, "pauli_strings": True,
        "stabilizer": ["ZZ"], "logical_x": ["XX"], "logical_z": ["ZI"],
    }
    c = loads(json.dumps(payload))
    assert c == catalog("cnot_2_1")


def test_pauli_strings_need_flag_and_d2():
    base = {"name": "x", "D": 2, "n": 2, "k": 1,
            "stabilizer": ["ZZ"], "logical_x": ["XX"], "logical_z": ["ZI"]}
    with pytest.raises(CodeFileError, match="pauli_strings"):
        loads(json.dumps(base))
    qutrit = dict(base, D=3, pauli_strings=True)
    with pytest.raises(CodeFileError, match="D = 2"):
        loads(json.dumps(qutrit))


def test_load_rejects_composite_d():
    payload = {"name": "x", "D": 4, "n": 2, "k": 1, "stabilizer": [],
               "logical_x": [], "logical_z": []}
    with pytest.raises(CodeFileError, match="D must be prime"):
        loads(json.dumps(payload))


@pytest.mark.parametrize("field", ["D", "n", "k"])
def test_load_rejects_booleans(field):
    assert loads(two_carrier_file(2)).n == 2
    with pytest.raises(CodeFileError, match=f"field {field} must be an integer"):
        loads(two_carrier_file(2, **{field: True}))


@pytest.mark.parametrize("z", [[1.9, 1.2], [True, True], ["1", "1"],
                               [2.0, 0], "11", {"0": 1, "1": 1}])
def test_load_rejects_non_integer_exponents(z):
    assert loads(two_carrier_file(
        2, stabilizer=[{"x": [0, 0], "z": [1, 1]}])).n == 2
    with pytest.raises(CodeFileError, match=r"stabilizer\[0\]: \"x\" and "
                       r"\"z\" must be lists of integers"):
        loads(two_carrier_file(2, stabilizer=[{"x": [0, 0], "z": z}]))


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_load_rejects_non_boolean_pauli_strings(value):
    assert loads(two_carrier_file(2, pauli_strings=False)).n == 2
    with pytest.raises(CodeFileError,
                       match="field pauli_strings must be true or false"):
        loads(two_carrier_file(2, pauli_strings=value))


@pytest.mark.parametrize("name", [None, [1, 2], 7, True, {"a": 1}])
def test_load_rejects_non_string_name(name):
    assert loads(two_carrier_file(2, name="pair")).name == "pair"
    with pytest.raises(CodeFileError, match="field name must be a string"):
        loads(two_carrier_file(2, name=name))


def test_load_rejects_d_beyond_int64_range():
    # (D-1)^2 = 1 mod D, so the exact rank of this matrix is 1; int64
    # products wrap for this D and elimination would report rank 2.
    d = 4294967311
    assert is_prime(d)
    with pytest.raises(CodeFileError, match=r"2n\(D-1\)\^2 < 2\^63"):
        loads(two_carrier_file(d))
    with pytest.raises(ValueError, match="too large"):
        StabilizerCode("x", d, 1, 1, (), (pauli.parse("x1z0", d),),
                       (pauli.parse("x0z1", d),))


def test_load_rejects_huge_d_before_primality():
    # Trial division would run for minutes on this D.
    start = time.perf_counter()
    for fields in ({}, {"n": 0}):
        with pytest.raises(CodeFileError, match="too large"):
            loads(two_carrier_file(10**18 + 9, **fields))
    assert time.perf_counter() - start < 0.5


def test_load_accepts_largest_benchmark_d():
    code = random_code(np.random.default_rng(0), 65537, 7, 2)
    again = loads(dumps(code))
    assert (again.d, again.n, again.k) == (65537, 7, 2)
    assert again == code


def test_load_missing_field_named():
    payload = {"name": "x", "D": 2, "n": 2, "k": 1,
               "stabilizer": [{"x": [0, 0], "z": [1, 1]}],
               "logical_x": [{"x": [1, 1], "z": [0, 0]}]}
    with pytest.raises(CodeFileError, match="missing field: logical_z"):
        loads(json.dumps(payload))


def test_load_rejects_unknown_fields():
    payload = {"name": "x", "D": 2, "n": 2, "k": 1,
               "stabilizer": [], "logical_x": [], "logical_z": [],
               "color": "blue"}
    with pytest.raises(CodeFileError, match="unknown fields.*color"):
        loads(json.dumps(payload))


def test_load_reports_json_location():
    with pytest.raises(CodeFileError, match="line 1"):
        loads("{not json")


def test_load_rejects_invalid_code():
    payload = {
        "name": "bad", "D": 2, "n": 2, "k": 1, "pauli_strings": True,
        "stabilizer": ["ZZ"], "logical_x": ["XI"], "logical_z": ["ZI"],
    }
    with pytest.raises(CodeValidationError, match="invalid code"):
        loads(json.dumps(payload))


def test_generator_entry_errors():
    base = {"name": "x", "D": 2, "n": 2, "k": 1,
            "stabilizer": [{"x": [0, 0], "z": [1, 1], "w": []}],
            "logical_x": [{"x": [1, 1], "z": [0, 0]}],
            "logical_z": [{"x": [0, 0], "z": [1, 0]}]}
    with pytest.raises(CodeFileError, match=r"stabilizer\[0\]: unknown keys"):
        loads(json.dumps(base))
    base["stabilizer"] = [{"x": [0, 0, 0], "z": [1, 1, 1]}]
    with pytest.raises(CodeFileError, match="has 3 sites"):
        loads(json.dumps(base))
