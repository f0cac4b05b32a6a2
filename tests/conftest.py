import itertools
import json
from collections import Counter

import numpy as np
import pytest

from stabshare import catalog, infogroup, oracle, validate
from stabshare.code import StabilizerCode
from stabshare.pauli import dense_matrix, from_symplectic, pairing
from stabshare.primefield import mod_nullspace
from stabshare.twirl import twirl_operator


@pytest.fixture(autouse=True)
def _fresh_scan():
    """Drop the oracle's cached scans after each test, so that one run
    under a patched reduction cannot leak into the next test."""
    yield
    oracle._scan.cache_clear()


@pytest.fixture(scope="session")
def cnot():
    return catalog("cnot_2_1")


@pytest.fixture(scope="session")
def five_qubit():
    return catalog("five_qubit")


@pytest.fixture(scope="session")
def four_two_two():
    return catalog("four_two_two")


@pytest.fixture(scope="session")
def steane():
    return catalog("steane")


@pytest.fixture(scope="session")
def ghz4():
    return catalog("ghz_n", 4)


@pytest.fixture(scope="session")
def catalog_codes():
    """Every catalog code at the sizes the worked examples use."""
    codes = [catalog("cnot_2_1"), catalog("four_two_two"),
             catalog("five_qubit"), catalog("steane")]
    codes += [catalog("ghz_n", n) for n in (3, 4, 5, 6)]
    return codes


# {D:2, n:3, k:1}: X-bar = ZIY has one site with both X and Z, so it has
# order 4, while every pairing invariant holds.
PHASE_OBSTRUCTED_LOGICAL = {
    "name": "odd-logical", "D": 2, "n": 3, "k": 1, "pauli_strings": True,
    "stabilizer": ["XIX", "XZX"], "logical_x": ["ZIY"], "logical_z": ["YIY"]}


def count_calls(monkeypatch, module, *names) -> Counter:
    """Wrap each named function of `module` so that calls are counted."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


def info_group_reference(code: StabilizerCode, subset) -> infogroup.InfoGroup:
    """G(S) of one subset by a nullspace solve, independent of the batched
    ``info_group``: every (v, a) whose combination v . logicals +
    a . stabilizers vanishes on the complement's x and z columns, projected
    onto v."""
    d, n, k = code.d, code.n, code.k
    subset = tuple(sorted(set(int(i) for i in subset)))
    if subset and (subset[0] < 1 or subset[-1] > n):
        raise ValueError(f"subset {subset} out of range 1..{n}")
    comp = infogroup.complement(subset, n)
    stacked = np.vstack([code.logical_rows(), code.stabilizer_rows()])
    cols = [i - 1 for i in comp] + [n + i - 1 for i in comp]
    kernel = mod_nullspace(stacked[:, cols].T % d, d)
    projected = np.array(kernel, dtype=np.int64).reshape(-1, n + k)[:, :2 * k]
    return infogroup.group_from_rows(d, k, projected)


def walk_leaves(monkeypatch) -> list[int]:
    """Record the bitmask of every leaf that ``infogroup._walk`` yields."""
    leaves = []
    real = infogroup._walk

    def recording(code):
        for masks, echelons in real(code):
            leaves.extend(masks.tolist())
            yield masks, echelons

    monkeypatch.setattr(infogroup, "_walk", recording)
    return leaves


def two_carrier_file(d: int, **fields) -> str:
    """Valid [[2,1]]_d code file: stabilizer Z Z^-1, X-bar XX, Z-bar ZI."""
    payload = {"name": "x", "D": d, "n": 2, "k": 1,
               "stabilizer": [{"x": [0, 0], "z": [1, d - 1]}],
               "logical_x": [{"x": [1, 1], "z": [0, 0]}],
               "logical_z": [{"x": [0, 0], "z": [1, 0]}]}
    payload.update(fields)
    return json.dumps(payload)


def random_code(rng: np.random.Generator, d: int, n: int, k: int,
                name: str = "random") -> StabilizerCode:
    """Random valid [[n,k]]_d code from a random symplectic basis.

    Builds n hyperbolic pairs (u, v) with pairing 1, one at a time, from
    random vectors projected off the pairs so far (symplectic Gram-Schmidt).
    The first k pairs are the logical X and Z representatives; the second
    partners of the other n-k pairs are the stabilizer.  For d = 2 every
    vector must have even X/Z overlap, since otherwise it has order four
    with w-phases: ``validate`` rejects such a stabilizer, and such a
    logical representative encodes X or Z as a different Pauli than the
    symbolic layer assumes.
    """
    def draw(pairs):
        for _ in range(1000):
            w = rng.integers(0, d, size=2 * n)
            for u, v in pairs:
                w = (w - pairing(w, v, d) * u + pairing(w, u, d) * v) % d
            if w.any() and not (d == 2 and int(w[:n] @ w[n:]) % 2):
                return w
        raise RuntimeError(f"no random [[{n},{k}]]_{d} code found")

    pairs = []
    while len(pairs) < n:
        u, v = draw(pairs), draw(pairs)
        if pairing(u, v, d):
            pairs.append((u, v * pow(pairing(u, v, d), -1, d) % d))
    code = StabilizerCode(
        name, d, n, k,
        tuple(from_symplectic(d, v) for _, v in pairs[k:]),
        tuple(from_symplectic(d, u) for u, _ in pairs[:k]),
        tuple(from_symplectic(d, v) for _, v in pairs[:k]),
    )
    assert validate(code).is_valid
    return code


def basis_secret(d: int, k: int, j: int) -> np.ndarray:
    """The logical basis state |j> of k qudits."""
    vec = np.zeros(d**k, dtype=complex)
    vec[j] = 1.0
    return vec


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) ||a - b||_1 for Hermitian a, b."""
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def concealment_reference(code, plan, secrets, subsets) -> float:
    """Exact worst trace distance, over the subsets and every pair of
    `secrets`, between key-averaged reduced states: one dense projector
    per (subset, secret, key), with every key enumerated."""
    d, k = code.d, code.k
    keys = list(itertools.product(range(d), repeat=plan.key_length))
    worst = 0.0
    for subset in subsets:
        averaged = []
        for secret in secrets:
            acc = 0
            for key in keys:
                u = dense_matrix(twirl_operator(plan, key), cap=d**k)
                state = oracle.encode(code, u @ secret)
                acc = acc + oracle.partial_trace(
                    np.outer(state, state.conj()), d, subset)
            averaged.append(acc / len(keys))
        for a, b in itertools.combinations(averaged, 2):
            worst = max(worst, trace_distance(a, b))
    return worst
