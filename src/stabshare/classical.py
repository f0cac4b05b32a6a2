"""Perfect classical secret sharing for the twirl key.

Two backends: Shamir threshold sharing (uniform degree q-1 polynomials,
evaluation points 1..n, Lagrange reconstruction at 0) and a replicated
additive scheme for arbitrary monotone access structures given by their
minimal authorized sets.  All randomness is seed-threaded so runs replay.
The monotone scheme takes all its uniform parts from one ``getrandbits``
call, which replays ``random.Random(seed).randrange(p)`` word for word, so
its moduli are the primes below 2^32.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

import numpy as np

from .primefield import check_prime, is_prime
from .twirl import draw_key

__all__ = [
    "ClassicalShareSet",
    "InsufficientSharesError",
    "shamir_share",
    "shamir_reconstruct",
    "monotone_share",
    "reconstruct",
    "key_transport",
    "smallest_prime_above",
]


class InsufficientSharesError(ValueError):
    """Too few shares to reconstruct; no partial output is produced."""


def smallest_prime_above(x: int) -> int:
    p = max(2, int(x) + 1)
    while not is_prime(p):
        p += 1
    return p


@dataclass(frozen=True)
class ClassicalShareSet:
    """Shares of one key, with enough metadata to reconstruct.

    ``source_modulus`` records the alphabet the key digits came from when
    they were lifted into Z_modulus (digits are < source_modulus, so the
    lift is the identity embedding and reconstruction returns them as-is).
    """

    kind: str  # "threshold" | "monotone"
    modulus: int
    n: int
    key_length: int
    shares: dict[int, tuple[int, ...]]
    q: int | None = None
    minimal_sets: tuple[tuple[int, ...], ...] | None = None
    source_modulus: int | None = None

    def to_dict(self) -> dict:
        out = {
            "scheme": self.kind,
            "modulus": self.modulus,
            "n": self.n,
            "key_length": self.key_length,
            "shares": {str(p): list(v) for p, v in sorted(self.shares.items())},
        }
        if self.q is not None:
            out["q"] = self.q
        if self.minimal_sets is not None:
            out["minimal_sets"] = [list(s) for s in self.minimal_sets]
        if self.source_modulus is not None:
            out["source_modulus"] = self.source_modulus
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ClassicalShareSet":
        return cls(
            kind=data["scheme"],
            modulus=int(data["modulus"]),
            n=int(data["n"]),
            key_length=int(data["key_length"]),
            shares={int(p): tuple(v) for p, v in data["shares"].items()},
            q=data.get("q"),
            minimal_sets=tuple(tuple(s) for s in data["minimal_sets"])
            if "minimal_sets" in data else None,
            source_modulus=data.get("source_modulus"),
        )


# ---------------------------------------------------------------------------
# Shamir threshold backend.
# ---------------------------------------------------------------------------

def _poly_eval(coeffs, x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def shamir_share(key_digits, q: int, n: int, modulus: int,
                 seed: int) -> ClassicalShareSet:
    """Share each digit with a uniform degree q-1 polynomial; share_i = poly(i)."""
    p = check_prime(modulus)
    if p <= n:
        raise ValueError(
            f"modulus {p} must exceed the player count {n} "
            "(players need distinct nonzero evaluation points)")
    if not 1 <= q <= n:
        raise ValueError(f"need 1 <= q <= n, got q={q}, n={n}")
    digits = [int(v) % p for v in key_digits]
    rng = random.Random(seed)
    shares = {i: [] for i in range(1, n + 1)}
    for digit in digits:
        coeffs = [digit] + [rng.randrange(p) for _ in range(q - 1)]
        for i in range(1, n + 1):
            shares[i].append(_poly_eval(coeffs, i, p))
    return ClassicalShareSet(
        kind="threshold", modulus=p, n=n, key_length=len(digits),
        shares={i: tuple(v) for i, v in shares.items()}, q=q)


def _lagrange_at_zero(points, p: int) -> dict[int, int]:
    weights = {}
    for i in points:
        num, den = 1, 1
        for j in points:
            if j == i:
                continue
            num = num * (-j) % p
            den = den * (i - j) % p
        weights[i] = num * pow(den, -1, p) % p
    return weights


def shamir_reconstruct(shares: dict[int, tuple[int, ...]], q: int,
                       modulus: int) -> list[int]:
    """Lagrange-interpolate every digit at 0 from at least q share points."""
    p = check_prime(modulus)
    points = sorted(shares)
    if len(points) < q:
        raise InsufficientSharesError(
            f"got {len(points)} shares, threshold is {q}")
    lengths = {len(shares[i]) for i in points}
    if len(lengths) != 1:
        raise ValueError("share digit lists have inconsistent lengths")
    weights = _lagrange_at_zero(points, p)
    n_digits = lengths.pop()
    return [
        sum(weights[i] * shares[i][t] for i in points) % p
        for t in range(n_digits)
    ]


# ---------------------------------------------------------------------------
# Replicated additive backend for monotone access structures.
# ---------------------------------------------------------------------------

def _check_antichain(minimal_sets) -> tuple[tuple[int, ...], ...]:
    sets = tuple(tuple(sorted(set(map(int, s)))) for s in minimal_sets)
    if not sets:
        raise ValueError("minimal authorized sets must be nonempty")
    # Each player is a bit of its set's packed mask; a is a proper subset
    # of b iff |a| < |b| and no bit of a is missing from b.  Rows go one
    # size at a time, against the larger sets only, and the first hit in
    # (a, b) order is reported.
    index = {i: j for j, i in enumerate(sorted({i for s in sets for i in s}))}
    size = np.array([len(s) for s in sets])
    member = np.zeros((len(sets), len(index)), dtype=bool)
    member[np.repeat(np.arange(len(sets)), size),
           [index[i] for s in sets for i in s]] = True
    masks = np.packbits(member, axis=1).T
    hits = []
    for width in set(size.tolist()):
        a, b = np.flatnonzero(size == width), np.flatnonzero(size > width)
        outside = np.zeros((len(a), len(b)), dtype=bool)
        for byte in masks:
            outside |= (byte[a, None] & ~byte[b]) != 0
        hits += [(a[i], b[j]) for i, j in np.argwhere(~outside)[:1].tolist()]
    if hits:
        a, b = min(hits)
        raise ValueError(f"minimal sets must form an antichain: "
                         f"{sets[a]} is inside {sets[b]}")
    return sets


def _randbelow(rng: random.Random, p: int, count: int) -> np.ndarray:
    """The next `count` values of ``rng.randrange(p)``, for p < 2^32.

    CPython's randrange(p) tries the top p.bit_length() bits of one 32-bit
    Mersenne Twister word until a try is below p; ``getrandbits(32 W)``
    returns the next W such words, the first in the lowest bits.
    """
    shift, out = 32 - p.bit_length(), np.zeros(0, dtype=np.int64)
    while len(out) < count:
        words = -(-((count - len(out)) << p.bit_length()) // p)
        tries = np.frombuffer(rng.getrandbits(32 * words).to_bytes(
            4 * words, "little"), dtype="<u4") >> shift
        out = np.concatenate([out, tries[tries < p]])
    return out[:count]


def monotone_share(key_digits, minimal_sets, modulus: int,
                   seed: int, n: int | None = None) -> ClassicalShareSet:
    """Replicated additive sharing over a monotone access structure.

    For each minimal authorized set every digit is split into uniform parts
    summing to it, one part per member; a subset reconstructs iff it
    contains some minimal set.  A player's share list is the concatenation
    of its parts, minimal set by minimal set.  The modulus must be a prime
    below 2^32.
    """
    p = check_prime(modulus)
    if p >= 1 << 32:
        raise ValueError(f"modulus {p} must be below 2**32")
    sets = _check_antichain(minimal_sets)
    if () in sets:
        raise ValueError("a minimal authorized set must have a player")
    digits = np.array([int(v) % p for v in key_digits], dtype=np.int64)
    players = sorted({i for s in sets for i in s})
    if n is None:
        n = max(players)
    if unknown := [i for i in players if not 1 <= i <= n]:
        raise ValueError(f"player {unknown[0]} is outside 1..{n}")
    # One row per (set, member), set by set, holding the member's part of
    # each digit.  Set t draws its parts after every earlier set, digit by
    # digit, one for each member but its last, which takes the rest.
    members = np.array([i for s in sets for i in s])
    size = np.array([len(s) for s in sets])
    start = np.cumsum(size) - size
    drawn = np.repeat(size - 1, size)
    col = np.arange(len(members)) - np.repeat(start, size)
    first = np.repeat(len(digits) * (np.cumsum(size - 1) - (size - 1)), size)
    free = col < drawn
    parts = np.zeros((len(members), len(digits)), dtype=np.int64)
    draws = _randbelow(random.Random(seed), p,
                       len(digits) * int((size - 1).sum()))
    parts[free] = draws[(first + col)[free, None]
                        + np.arange(len(digits)) * drawn[free, None]]
    parts[start + size - 1] = (digits - np.add.reduceat(parts, start)) % p
    return ClassicalShareSet(
        kind="monotone", modulus=p, n=n, key_length=len(digits),
        shares={i: tuple(parts[members == i].ravel().tolist())
                for i in range(1, n + 1)},
        minimal_sets=sets)


def _monotone_reconstruct(share_set: ClassicalShareSet, subset) -> list[int]:
    have = set(int(i) for i in subset)
    sets = share_set.minimal_sets
    chosen = None
    for idx, members in enumerate(sets):
        if set(members) <= have:
            chosen = idx
            break
    if chosen is None:
        raise InsufficientSharesError(
            f"subset {sorted(have)} contains no minimal authorized set")
    p, width = share_set.modulus, share_set.key_length
    totals = [0] * width
    for member in sets[chosen]:
        # offset of this minimal set inside the member's concatenated list
        before = sum(1 for j in range(chosen) if member in sets[j])
        chunk = share_set.shares[member][before * width:(before + 1) * width]
        for t in range(width):
            totals[t] = (totals[t] + chunk[t]) % p
    return totals


def reconstruct(share_set: ClassicalShareSet, subset) -> list[int]:
    """Recover the key digits available to `subset`, or refuse; a player
    outside 1..n raises ValueError in either backend."""
    players = [int(i) for i in subset]
    if unknown := [i for i in players if not 1 <= i <= share_set.n]:
        raise ValueError(f"player {unknown[0]} is outside 1..{share_set.n}")
    if share_set.kind == "threshold":
        chosen = {i: share_set.shares[i] for i in players}
        return shamir_reconstruct(chosen, share_set.q, share_set.modulus)
    if share_set.kind == "monotone":
        return _monotone_reconstruct(share_set, players)
    raise ValueError(f"unknown scheme kind {share_set.kind!r}")


# ---------------------------------------------------------------------------
# Transport of a twirl key with the access structure of the quantum scheme.
# ---------------------------------------------------------------------------

def key_transport(plan, triplet, seed: int) -> ClassicalShareSet:
    """Share a twirl key so exactly the authorized subsets can recover it.

    When the access structure is a threshold family the key rides on Shamir
    over the smallest prime above max(d, n); otherwise the replicated
    monotone scheme over the minimal authorized sets is used; the modulus
    is below the monotone scheme's bound of 2^32, since ``code`` keeps
    2n(d - 1)^2 below 2^63 and ``classify`` keeps n <= 20.  Key digits
    live in Z_d and are embedded unchanged (the recorded source_modulus maps
    them back).

    The key comes from ``draw_key`` on a generator seeded with `seed`, as in
    sample_twirl(plan, seed), so the two give the same key.
    """
    if plan.is_empty:
        raise ValueError("plan is empty; there is no key to transport")
    d, n = plan.d, triplet.n
    rng = random.Random(seed)
    key_digits = draw_key(plan, rng)

    modulus = smallest_prime_above(max(d, n))
    q = plan.prescription.threshold_q
    if q is not None:
        shared = shamir_share(key_digits, q, n, modulus, rng.randrange(2**32))
    else:
        shared = monotone_share(key_digits, triplet.minimal_authorized,
                                modulus, rng.randrange(2**32), n=n)
    return replace(shared, source_modulus=d)
