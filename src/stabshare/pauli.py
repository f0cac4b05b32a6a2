"""Symbolic Pauli products on m qudits of prime dimension d.

A product is stored in X-before-Z normal form with an explicit phase
exponent: ``w^phase * X^x[0] Z^z[0] (x) ... (x) X^x[m-1] Z^z[m-1]`` where
``w = exp(2*pi*i/d)``.  The single-qudit generators are

    Z = sum_j w^j |j><j|        X = sum_j |j><j+1|

which satisfy X Z = w Z X, so pushing a Z past an X from the left costs a
factor w^-1 per unit of each exponent:

    (X^a Z^b)(X^c Z^d) = w^(-b c) X^(a+c) Z^(b+d)      (per site)

All projective operations (membership, rank, pairings) ignore phases; the
phase is tracked exactly so the dense-matrix oracle can cross-check every
identity.  A product is a monomial matrix, so `apply` acts on dense data
with one phase and one roll per non-identity site and never builds the
matrix; `dense_matrix` is `apply` to the identity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .primefield import check_prime

__all__ = [
    "PauliProduct",
    "ResourceLimitError",
    "DEFAULT_AMPLITUDE_CAP",
    "identity",
    "multiply",
    "power",
    "pairing",
    "symplectic_vector",
    "from_symplectic",
    "apply",
    "dense_matrix",
    "to_string",
    "parse",
]

DEFAULT_AMPLITUDE_CAP = 4096

_QUBIT_CHARS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_QUBIT_NAMES = {v: k for k, v in _QUBIT_CHARS.items()}
_SITE_TOKEN = re.compile(r"^x(\d+)z(\d+)$")


class ResourceLimitError(RuntimeError):
    """A requested dense object exceeds the configured size cap."""


@dataclass(frozen=True)
class PauliProduct:
    """w^phase X^x Z^z on len(x) qudits of dimension d; exponents mod d."""

    d: int
    x: tuple[int, ...]
    z: tuple[int, ...]
    phase: int = 0

    def __post_init__(self):
        check_prime(self.d)
        x = tuple(int(v) % self.d for v in self.x)
        z = tuple(int(v) % self.d for v in self.z)
        if len(x) != len(z):
            raise ValueError(f"x and z lengths differ: {len(x)} vs {len(z)}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "phase", int(self.phase) % self.d)

    @property
    def m(self) -> int:
        """Number of qudit sites."""
        return len(self.x)

    @property
    def is_identity(self) -> bool:
        """True iff all exponents vanish (projective identity)."""
        return not any(self.x) and not any(self.z)

    def __mul__(self, other):
        return multiply(self, other)

    def __pow__(self, e: int):
        return power(self, e)

    def __str__(self):
        return to_string(self)


def _check_compatible(p: PauliProduct, q: PauliProduct) -> None:
    if p.d != q.d:
        raise ValueError(f"mismatched qudit dimensions: {p.d} vs {q.d}")
    if p.m != q.m:
        raise ValueError(f"mismatched site counts: {p.m} vs {q.m}")


def identity(d: int, m: int) -> PauliProduct:
    return PauliProduct(d, (0,) * m, (0,) * m)


def multiply(p: PauliProduct, q: PauliProduct) -> PauliProduct:
    """Operator product p q, with the reordering phase tracked exactly."""
    _check_compatible(p, q)
    cross = sum(zp * xq for zp, xq in zip(p.z, q.x))
    return PauliProduct(
        p.d,
        tuple(a + b for a, b in zip(p.x, q.x)),
        tuple(a + b for a, b in zip(p.z, q.z)),
        p.phase + q.phase - cross,
    )


def power(p: PauliProduct, e: int) -> PauliProduct:
    """p**e for any integer e, in closed form.

    Each of the e(e-1)/2 reorderings in p p ... p costs w^-(x.z), so
    p^e = w^(e*phase - (x.z) e(e-1)/2) X^(e x) Z^(e z).
    """
    e = int(e)
    overlap = sum(a * b for a, b in zip(p.x, p.z))
    return PauliProduct(p.d, tuple(e * a for a in p.x),
                        tuple(e * b for b in p.z),
                        e * p.phase - overlap * (e * (e - 1) // 2))


def pairing(a, b, d: int):
    """Symplectic pairing a_x . b_z - a_z . b_x mod d of (x|z) vectors.

    Products p, q with exponent vectors a, b satisfy p q = w^pairing q p.
    Two vectors give an int; stacks of rows give the matrix of pairings
    of every row of a with every row of b, slice by slice for 3-D stacks.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    m = a.shape[-1] // 2
    bx, bz = b[..., :m], b[..., m:]
    if b.ndim > 1:
        bx, bz = bx.swapaxes(-1, -2), bz.swapaxes(-1, -2)
    out = (a[..., :m] @ bz - a[..., m:] @ bx) % d
    return int(out) if out.ndim == 0 else out


def symplectic_vector(p: PauliProduct) -> np.ndarray:
    """Concatenated (x | z) exponent vector in Z_d^(2m)."""
    return np.array(p.x + p.z, dtype=np.int64)


def from_symplectic(d: int, vec, phase: int = 0) -> PauliProduct:
    v = np.asarray(vec, dtype=np.int64).reshape(-1)
    if v.size % 2:
        raise ValueError(f"symplectic vector length must be even, got {v.size}")
    m = v.size // 2
    return PauliProduct(d, tuple(v[:m]), tuple(v[m:]), phase)


def apply(p: PauliProduct, arr) -> np.ndarray:
    """p @ arr, where arr's first axis spans the d^m basis states, without
    p's matrix: per non-identity site, Z^b scales basis state j by w^(b j)
    and X^a rolls that site's axis by -a."""
    d, m = p.d, p.m
    arr = np.asarray(arr)
    if not arr.ndim or len(arr) != d**m:
        raise ValueError(
            f"array of shape {arr.shape} does not span {d**m} basis states")
    tail = arr.shape[1:]
    out = arr.reshape((d,) * m + tail).astype(complex)
    roots = np.exp(2j * np.pi * np.arange(d) / d)
    for site, (a, b) in enumerate(zip(p.x, p.z)):
        if b:
            shape = (d,) + (1,) * (m - 1 - site + len(tail))
            out *= roots[b * np.arange(d) % d].reshape(shape)
        if a:
            out = np.roll(out, -a, axis=site)
    if p.phase:
        out *= roots[p.phase]
    return out.reshape(arr.shape)


def dense_matrix(p: PauliProduct, cap: int = DEFAULT_AMPLITUDE_CAP) -> np.ndarray:
    """Exact d^m x d^m complex matrix of the product (site 1 leftmost)."""
    dim = p.d**p.m
    if dim > cap:
        raise ResourceLimitError(
            f"dense Pauli needs {dim} amplitudes, cap is {cap}")
    return apply(p, np.eye(dim))


# ---------------------------------------------------------------------------
# String syntax.  d = 2 uses compact I/X/Y/Z (Y is shorthand for x1z1 with
# phase 0 under this package's normal form); general d uses per-site tokens
# like "x2z1" joined by dots.  Nonzero phases get a "w<k>*" prefix so that
# parse(to_string(p)) == p holds bit-exactly.
# ---------------------------------------------------------------------------

def to_string(p: PauliProduct) -> str:
    if p.d == 2:
        body = "".join(_QUBIT_NAMES[(a, b)] for a, b in zip(p.x, p.z))
    else:
        body = ".".join(f"x{a}z{b}" for a, b in zip(p.x, p.z))
    if p.phase:
        return f"w{p.phase}*{body}"
    return body


def parse(text: str, d: int = 2) -> PauliProduct:
    """Parse a Pauli string; inverse of to_string for the same d."""
    check_prime(d)
    s = text.strip()
    phase = 0
    if "*" in s:
        head, s = s.split("*", 1)
        m = re.fullmatch(r"w(\d+)", head)
        if not m:
            raise ValueError(f"bad phase prefix {head!r} in {text!r}")
        phase = int(m.group(1))
    if not s:
        raise ValueError(f"empty Pauli body in {text!r}")
    if all(c in _QUBIT_CHARS for c in s):
        if d != 2:
            raise ValueError(
                f"compact I/X/Y/Z syntax is only defined for d=2, got d={d}")
        pairs = [_QUBIT_CHARS[c] for c in s]
    else:
        pairs = []
        for token in s.split("."):
            m = _SITE_TOKEN.match(token)
            if not m:
                raise ValueError(f"bad site token {token!r} in {text!r}")
            pairs.append((int(m.group(1)), int(m.group(2))))
    return PauliProduct(d, tuple(a for a, _ in pairs),
                        tuple(b for _, b in pairs), phase)

