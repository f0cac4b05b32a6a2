"""Stabilizer code model [[n,k]]_D: validation, catalog, file I/O.

A code is held symbolically: n-k stabilizer generators plus k logical-X and
k logical-Z representatives, all as PauliProducts on the n carriers.  The
catalog ships the worked small codes; ``validate`` checks every symplectic
invariant and reports violations instead of raising.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from . import pauli
from .pauli import PauliProduct, pairing
from .primefield import check_prime, is_prime, mod_rank

__all__ = [
    "StabilizerCode",
    "ValidationReport",
    "CodeFileError",
    "CodeValidationError",
    "CATALOG_NAMES",
    "validate",
    "catalog",
    "dumps",
    "loads",
    "save",
    "load",
]

CATALOG_NAMES = ("cnot_2_1", "ghz_n", "five_qubit", "four_two_two", "steane")


class CodeFileError(ValueError):
    """Malformed code file; the message names the offending field."""


class CodeValidationError(ValueError):
    """A loaded code violates the stabilizer invariants."""


def _check_int64_range(d: int, n: int) -> None:
    """Reject a D for which int64 arithmetic on n carriers could wrap.

    ``mod_rref`` runs on Python ints, but numpy products such as
    ``pairing`` accumulate in int64: the largest is a sum of at most 2n
    products of digits < D.  The fraction-free steps of ``classify``'s walk
    and ``mod_rref_stack`` add two such products, which the bound also
    covers; they narrow to int32 where 2D^2 < 2^31.  So does the Gram path
    for (r, s): ``pairing`` of two stacks of 2k echelon slots sums 2k <=
    2n such products, and the pair elimination of the Gram matrices adds
    three products per step (int32 where 3D^2 < 2^31), within the bound
    since k >= 2 means n >= 2.  At k = 1 it takes no step, so n = 1
    admits every D up to 2^31 - 1.
    """
    if 2 * max(n, 1) * (d - 1) ** 2 >= 2**63:
        raise ValueError(
            f"D={d} is too large for exact int64 arithmetic on "
            f"n={n} carriers: need 2n(D-1)^2 < 2^63")


@dataclass(frozen=True)
class StabilizerCode:
    """An [[n, k]]_d stabilizer code with fixed logical representatives."""

    name: str
    d: int
    n: int
    k: int
    stabilizer: tuple[PauliProduct, ...]
    logical_x: tuple[PauliProduct, ...]
    logical_z: tuple[PauliProduct, ...]
    _stabilizer_rows: np.ndarray = field(init=False, repr=False, compare=False)
    _logical_rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_prime(self.d)
        if not (0 < self.k <= self.n):
            raise ValueError(f"need 0 < k <= n, got k={self.k}, n={self.n}")
        _check_int64_range(int(self.d), self.n)
        stab = tuple(self.stabilizer)
        lx = tuple(self.logical_x)
        lz = tuple(self.logical_z)
        if len(stab) != self.n - self.k:
            raise ValueError(
                f"expected {self.n - self.k} stabilizer generators, got {len(stab)}")
        if len(lx) != self.k or len(lz) != self.k:
            raise ValueError(
                f"expected {self.k} logical X and Z representatives, "
                f"got {len(lx)} and {len(lz)}")
        for p in stab + lx + lz:
            if p.d != self.d:
                raise ValueError("generator qudit dimension mismatch")
            if p.m != self.n:
                raise ValueError("generator site count mismatch")
        object.__setattr__(self, "stabilizer", stab)
        object.__setattr__(self, "logical_x", lx)
        object.__setattr__(self, "logical_z", lz)
        for name, gens in (("_stabilizer_rows", stab), ("_logical_rows", lx + lz)):
            rows = np.array([pauli.symplectic_vector(g) for g in gens],
                            dtype=np.int64).reshape(-1, 2 * self.n)
            rows.setflags(write=False)
            object.__setattr__(self, name, rows)

    def stabilizer_rows(self) -> np.ndarray:
        """(n-k) x 2n read-only array of stabilizer symplectic vectors."""
        return self._stabilizer_rows

    def logical_rows(self) -> np.ndarray:
        """2k x 2n read-only array: logical X rows first, then logical Z rows."""
        return self._logical_rows


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def is_valid(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {"valid": self.is_valid, "violations": list(self.violations),
                "notes": list(self.notes)}


def validate(code: StabilizerCode) -> ValidationReport:
    """Check every symplectic invariant; the report lists what failed."""
    report = ValidationReport()
    d, n, k = code.d, code.n, code.k
    ns = n - k
    stab_rows = code.stabilizer_rows()
    rows = np.vstack([stab_rows, code.logical_rows()])
    gram = pairing(rows, rows, d)  # stabilizer, then X-bar, then Z-bar rows
    labels = ([f"stabilizer generator {i}" for i in range(ns)]
              + [f"X-bar {i}" for i in range(k)]
              + [f"Z-bar {i}" for i in range(k)])

    for i, j in itertools.combinations(range(ns), 2):
        if gram[i, j]:
            report.violations.append(
                f"stabilizer generators {i} and {j} do not commute "
                f"(exponent {gram[i, j]})")

    if ns and mod_rank(stab_rows, d) != ns:
        report.violations.append("stabilizer generators are projectively dependent")

    # Each generator must have operator order exactly d with w-phases alone;
    # for d = 2 this forbids an odd number of sites carrying both X and Z.
    for label, g in zip(labels, code.stabilizer + code.logical_x + code.logical_z):
        overlap = sum(a * b for a, b in zip(g.x, g.z))
        if (d * (d - 1) // 2 * overlap) % d:
            report.violations.append(
                f"{label} has order {2 * d}, not {d} (phase obstruction)")

    for li in range(ns, ns + 2 * k):
        for j in range(ns):
            if gram[li, j]:
                report.violations.append(
                    f"{labels[li]} does not commute with stabilizer generator "
                    f"{j} (exponent {gram[li, j]})")

    for i in range(k):
        for j in range(k):
            want = 1 if i == j else 0
            got = gram[ns + i, ns + k + j]
            if got != want:
                report.violations.append(
                    f"pairing of X-bar {i} with Z-bar {j} is {got}, want {want}")
    for i, j in itertools.combinations(range(k), 2):
        if gram[ns + i, ns + j]:
            report.violations.append(f"X-bar {i} and X-bar {j} do not commute")
        if gram[ns + k + i, ns + k + j]:
            report.violations.append(f"Z-bar {i} and Z-bar {j} do not commute")

    if mod_rank(rows, d) != ns + 2 * k:
        report.violations.append(
            "logical representatives are dependent modulo the stabilizer span")

    report.notes.append(
        f"maximality holds by construction: {ns} independent commuting "
        f"generators over prime d={d} fix a d^{k}-dimensional code space")
    return report


# ---------------------------------------------------------------------------
# Catalog.
# ---------------------------------------------------------------------------

def _qubit_code(name, n, k, stab, lx, lz) -> StabilizerCode:
    to_p = lambda s: pauli.parse(s, 2)
    return StabilizerCode(name, 2, n, k,
                          tuple(to_p(s) for s in stab),
                          tuple(to_p(s) for s in lx),
                          tuple(to_p(s) for s in lz))


def _ghz(n: int) -> StabilizerCode:
    if n < 2:
        raise ValueError("ghz_n needs n >= 2")
    stab = []
    for i in range(n - 1):
        body = ["I"] * n
        body[i] = body[i + 1] = "Z"
        stab.append("".join(body))
    return _qubit_code(f"ghz_{n}", n, 1, stab, ["X" * n], ["Z" + "I" * (n - 1)])


def _steane() -> StabilizerCode:
    # Hamming [7,4] parity rows give the X- and Z-type generators.
    rows = ["IIIXXXX", "IXXIIXX", "XIXIXIX"]
    stab = rows + [r.replace("X", "Z") for r in rows]
    return _qubit_code("steane", 7, 1, stab, ["X" * 7], ["Z" * 7])


def catalog(name: str, size_param: int | None = None) -> StabilizerCode:
    """Return a named catalog code; ghz_n takes the carrier count, and the
    other codes, of fixed size, take none."""
    if name == "ghz_n":
        if size_param is None:
            raise ValueError("ghz_n requires the carrier count n")
        return _ghz(int(size_param))
    if size_param is not None and name in CATALOG_NAMES:
        raise ValueError(f"catalog code {name} has a fixed size; "
                         f"it takes no carrier count (got {size_param})")
    if name == "cnot_2_1":
        return _qubit_code("cnot_2_1", 2, 1, ["ZZ"], ["XX"], ["ZI"])
    if name == "five_qubit":
        return _qubit_code("five_qubit", 5, 1,
                           ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"],
                           ["XXXXX"], ["ZZZZZ"])
    if name == "four_two_two":
        return _qubit_code("four_two_two", 4, 2,
                           ["XXXX", "ZZZZ"],
                           ["XXII", "XIXI"],
                           ["ZIZI", "ZZII"])
    if name == "steane":
        return _steane()
    raise ValueError(f"unknown catalog code {name!r}; "
                     f"known names: {', '.join(CATALOG_NAMES)}")


# ---------------------------------------------------------------------------
# File format: JSON with fields name, D, n, k, stabilizer, logical_x,
# logical_z.  Generators are {"x": [...], "z": [...]} exponent lists, or
# plain I/X/Y/Z strings when "pauli_strings": true and D = 2.  Unknown
# fields are rejected.
# ---------------------------------------------------------------------------

_REQUIRED_FIELDS = ("name", "D", "n", "k", "stabilizer", "logical_x", "logical_z")
_OPTIONAL_FIELDS = ("pauli_strings",)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)  # JSON true is 1


def _generator_from_entry(entry, field_name, idx, d, n, strings_ok) -> PauliProduct:
    where = f"{field_name}[{idx}]"
    if isinstance(entry, str):
        if not strings_ok:
            raise CodeFileError(
                f"{where}: Pauli strings need \"pauli_strings\": true")
        if d != 2:
            raise CodeFileError(f"{where}: Pauli strings require D = 2")
        try:
            p = pauli.parse(entry, 2)
        except ValueError as exc:
            raise CodeFileError(f"{where}: {exc}") from exc
    elif isinstance(entry, dict):
        extra = set(entry) - {"x", "z"}
        if extra:
            raise CodeFileError(f"{where}: unknown keys {sorted(extra)}")
        if "x" not in entry or "z" not in entry:
            raise CodeFileError(f"{where}: needs both \"x\" and \"z\" lists")
        if not all(isinstance(entry[f], list) and all(map(_is_int, entry[f]))
                   for f in ("x", "z")):
            raise CodeFileError(
                f"{where}: \"x\" and \"z\" must be lists of integers")
        try:
            p = PauliProduct(d, tuple(entry["x"]), tuple(entry["z"]))
        except ValueError as exc:
            raise CodeFileError(f"{where}: {exc}") from exc
    else:
        raise CodeFileError(f"{where}: expected an object or a string")
    if p.m != n:
        raise CodeFileError(f"{where}: has {p.m} sites, code has n={n}")
    return p


def loads(text: str) -> StabilizerCode:
    """Parse and validate a code file; rejects unknown fields."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CodeFileError(
            f"not valid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(data, dict):
        raise CodeFileError("top level must be an object")
    unknown = set(data) - set(_REQUIRED_FIELDS) - set(_OPTIONAL_FIELDS)
    if unknown:
        raise CodeFileError(f"unknown fields: {sorted(unknown)}")
    for f in _REQUIRED_FIELDS:
        if f not in data:
            raise CodeFileError(f"missing field: {f}")
    d, n, k = data["D"], data["n"], data["k"]
    for f, v in (("D", d), ("n", n), ("k", k)):
        if not _is_int(v):
            raise CodeFileError(f"field {f} must be an integer")
    try:
        _check_int64_range(d, n)  # before is_prime, which is slow for huge D
    except ValueError as exc:
        raise CodeFileError(str(exc)) from exc
    if not is_prime(d):
        raise CodeFileError(f"field D: D must be prime, got {d}")
    if not isinstance(data["name"], str):
        raise CodeFileError("field name must be a string")
    strings_ok = data.get("pauli_strings", False)
    if not isinstance(strings_ok, bool):
        raise CodeFileError("field pauli_strings must be true or false")

    def gens(field_name, expected):
        raw = data[field_name]
        if not isinstance(raw, list):
            raise CodeFileError(f"field {field_name} must be a list")
        if len(raw) != expected:
            raise CodeFileError(
                f"field {field_name}: expected {expected} generators, "
                f"got {len(raw)}")
        return tuple(_generator_from_entry(e, field_name, i, d, n, strings_ok)
                     for i, e in enumerate(raw))

    try:
        code = StabilizerCode(data["name"], d, n, k,
                              gens("stabilizer", n - k),
                              gens("logical_x", k),
                              gens("logical_z", k))
    except ValueError as exc:
        raise CodeFileError(str(exc)) from exc
    report = validate(code)
    if not report.is_valid:
        raise CodeValidationError(
            "invalid code: " + "; ".join(report.violations))
    return code


def dumps(code: StabilizerCode) -> str:
    """Serialize in the exponent-list form (unambiguous for every d)."""
    gen = lambda p: {"x": list(p.x), "z": list(p.z)}
    payload = {
        "name": code.name,
        "D": code.d,
        "n": code.n,
        "k": code.k,
        "stabilizer": [gen(p) for p in code.stabilizer],
        "logical_x": [gen(p) for p in code.logical_x],
        "logical_z": [gen(p) for p in code.logical_z],
    }
    return json.dumps(payload, indent=2) + "\n"


def save(code: StabilizerCode, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(code))


def load(path) -> StabilizerCode:
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())
