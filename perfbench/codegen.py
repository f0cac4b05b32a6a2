"""Seeded random [[n,k]]_D stabilizer codes for the benchmark.

A code is the image of the standard frame of Z_D^(2n) under a random
symplectic map: stabilizers Z_(k+1) .. Z_n, logical X_i and Z_i for i <= k.
The map is a product of random symplectic transvections

    T(u) = u + c * <u, v> * v,    <u, v> = u_x . v_z - u_z . v_x,

each of which preserves the pairing, so every commutation relation of the
frame survives and the result passes ``code.validate`` by construction.
Only odd primes are generated: for D = 2 a dense stabilizer generator can
have odd X/Z overlap, which ``validate`` rejects as a phase obstruction.

Pure Python with ``random.Random``: the same arguments give the same bytes
on every platform, independent of the package under test.
"""

from __future__ import annotations

import hashlib
import json
import random


def _pairing(u, v, d):
    n = len(u) // 2
    return (sum(u[i] * v[n + i] for i in range(n))
            - sum(u[n + i] * v[i] for i in range(n))) % d


def _transvect(u, v, c, d):
    t = c * _pairing(u, v, d) % d
    if not t:
        return u
    return [(a + t * b) % d for a, b in zip(u, v)]


def random_code(d: int, n: int, k: int, seed: str) -> dict:
    """Code JSON (as a dict) for a random [[n,k]]_d code; same seed, same code."""
    if d < 3 or d % 2 == 0 or any(d % f == 0 for f in range(3, int(d**0.5) + 1, 2)):
        raise ValueError(f"D must be an odd prime, got {d}")
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n, got n={n}, k={k}")
    rng = random.Random(hashlib.sha256(seed.encode()).hexdigest())

    def unit(i):
        u = [0] * (2 * n)
        u[i] = 1
        return u

    frame = ([unit(n + i) for i in range(k, n)]      # stabilizers Z_(k+1..n)
             + [unit(i) for i in range(k)]           # logical X_1..X_k
             + [unit(n + i) for i in range(k)])      # logical Z_1..Z_k
    for _ in range(6 * n):
        v = [rng.randrange(d) for _ in range(2 * n)]
        if not any(v):
            continue
        c = rng.randrange(1, d)
        frame = [_transvect(u, v, c, d) for u in frame]

    gen = lambda u: {"x": u[:n], "z": u[n:]}
    stab = frame[:n - k]
    return {
        "name": f"rand_{d}_{n}_{k}_{seed}",
        "D": d,
        "n": n,
        "k": k,
        "stabilizer": [gen(u) for u in stab],
        "logical_x": [gen(u) for u in frame[n - k:n]],
        "logical_z": [gen(u) for u in frame[n:]],
    }


def dumps(code: dict) -> str:
    return json.dumps(code, sort_keys=True, separators=(",", ":")) + "\n"
