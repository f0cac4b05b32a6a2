"""Exact linear algebra over Z_p for prime p, on int64 arrays.

Every function takes a plain integer array (or nested lists) and the
modulus p, and returns reduced int64 arrays: ``mod_rref`` is Gauss-Jordan
elimination, and rank, solve and row-space basis are built on it.
Inside, ``mod_rref`` works on lists of Python ints, which never overflow
and, at the sizes this package targets (tens of rows), make each row
operation cheaper than a numpy call would.

``mod_rref_stack`` reduces a whole stack of small matrices at once on
int64: fraction-free, so every product stays below p^2, with one Fermat
inverse per pivot at the end.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "is_prime",
    "check_prime",
    "mod_rref",
    "mod_rref_stack",
    "mod_rank",
    "mod_solve",
    "row_space_basis",
]


@functools.lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    """Trial-division primality test, cached: every PauliProduct checks D."""
    if n < 2:
        return False
    if n in (2, 3):
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def check_prime(modulus: int) -> int:
    if not isinstance(modulus, (int, np.integer)) or not is_prime(int(modulus)):
        raise ValueError(f"modulus must be a prime integer, got {modulus!r}")
    return int(modulus)


# ---------------------------------------------------------------------------
# Elimination.  Deterministic: pivots are the first nonzero entry in scan
# order, free variables are always set to zero.
# ---------------------------------------------------------------------------

def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.int64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {m.shape}")
    return m


def _rref_lists(m: list[list[int]], p: int) -> tuple[int, list[int]]:
    """Gauss-Jordan in place on rows of ints in [0, p): (rank, pivots)."""
    pivots: list[int] = []
    r, n_rows = 0, len(m)
    for c in range(len(m[0]) if m else 0):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = pow(m[r][c], -1, p)
        top = m[r] = [v * inv % p for v in m[r]]
        for i, row in enumerate(m):
            t = row[c]
            if t and i != r:
                m[i] = [(v - t * w) % p for v, w in zip(row, top)]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return r, pivots


def mod_rref(a, p: int) -> tuple[np.ndarray, int, list[int]]:
    """Reduced row-echelon form mod p: returns (rref, rank, pivot columns)."""
    arr = _as_matrix(a)
    m = (arr % p).tolist()
    r, pivots = _rref_lists(m, p)
    return np.array(m, dtype=np.int64).reshape(arr.shape), r, pivots


def mod_rref_stack(a, p: int) -> np.ndarray:
    """Reduced echelon form of every slice of a (B, r, c) stack, by pivot.

    Returns shape (B, c, c): slot j of a slice holds its reduced row whose
    pivot is column j, or zeros if no row has that pivot.  The nonzero
    slots, in order, are ``row_space_basis`` of the slice, so two slices
    span the same rows iff their outputs are equal.  Raises ValueError
    for p >= 2^31, where a step's sum of two products below p^2 can wrap
    int64.
    """
    if p >= 2**31:
        raise ValueError(f"mod_rref_stack needs p < 2^31, got {p}")
    m = np.asarray(a, dtype=np.int64) % p
    if m.ndim != 3:
        raise ValueError(f"expected a 3-D array, got shape {m.shape}")
    b, r, c = m.shape
    if not r:
        return np.zeros((b, c, c), dtype=np.int64)
    # Rows r.. are the slots: zero until their column pivots, then part of
    # every later update, which is the back-substitution.
    m = np.concatenate([m, np.zeros((b, c, c), dtype=np.int64)], axis=1)
    at = np.arange(b)
    for j in range(c):
        col = m[:, :, j]
        piv = (col[:, :r] != 0).argmax(axis=1)
        pt = col[at, piv]
        # No pivot: pt = 0, the pivot row is slot j (still zero) and the
        # scale is 1.  Adding p - row keeps every term nonnegative.
        row = m[at, np.where(pt, piv, r + j)]
        m = (m * np.maximum(pt, 1)[:, None, None]
             + col[:, :, None] * (p - row[:, None, :])) % p
        m[:, r + j] = row
    slots = m[:, r:]
    # Scale each slot by lead^(p-2), the inverse of its lead (Fermat).
    lead = slots[:, np.arange(c), np.arange(c)]
    inv, e = np.ones_like(lead), p - 2
    while e:
        inv = inv * lead % p if e & 1 else inv
        lead, e = lead * lead % p, e >> 1
    return slots * inv[:, :, None] % p


def mod_rank(a, p: int) -> int:
    return _rref_lists((_as_matrix(a) % p).tolist(), p)[0]


def mod_solve(a, b, p: int) -> np.ndarray | None:
    """One solution of a x = b mod p, or None if inconsistent.

    Free variables are set to zero, so the answer is canonical.
    """
    m = _as_matrix(a)
    rhs = np.asarray(b, dtype=np.int64) % p
    if rhs.ndim != 1 or rhs.shape[0] != m.shape[0]:
        raise ValueError(
            f"rhs length {rhs.shape} does not match {m.shape[0]} rows")
    aug = np.hstack([m % p, rhs.reshape(-1, 1)])
    red, _, pivots = mod_rref(aug, p)
    n_cols = m.shape[1]
    if n_cols in pivots:
        return None  # pivot in the augmented column: inconsistent
    x = np.zeros(n_cols, dtype=np.int64)
    for row, col in enumerate(pivots):
        x[col] = red[row, n_cols]
    return x


def row_space_basis(a, p: int) -> np.ndarray:
    """Canonical (echelon) basis of the row space; shape (rank, cols)."""
    red, rank, _ = mod_rref(a, p)
    return red[:rank]
