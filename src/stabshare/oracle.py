"""Dense-state brute-force engine for verifying every symbolic claim.

Paulis act on dense data through one routine, `pauli.apply`: a phase and
a roll per site, with no matrix built.  The encoding isometry V comes from
it alone.  Projecting the identity's columns onto the joint +1 eigenspace
of the stabilizer and logical-Z generators pins |c_0>, and the logical X
carry it to the other codewords, so no d^n x d^n matrix is formed or
multiplied.  Every check that pushes a logical operator through the
encoding uses one reduction, Tr_S-bar(V op V-dagger) summed over the
traced basis states without forming the d^n x d^n lift; the direct sides
(reduced states of encoded vectors and the Choi marginals) keep their own
code path.  From these the oracle re-derives information groups, absence,
Choi decoupling and twirl concealment directly from complex matrices,
independent of the linear-algebra shortcuts it is used to certify.

The Choi distances and traced norms are computed on each subset's support.
With W = V split into kept sites S and traced sites, every traced operator
A_S(X) = Tr_S-bar(V X V-dagger) is supported on the column span of W, a
d^|S| x d^(n-|S|+k) matrix, and every Choi marginal on R (x) col(W).  A
reduced QR, W = Q R, gives an orthonormal basis Q of that span without
truncation or rank tolerance, and Q-dagger W = R.  Compressing by Q is an
isometry on the support, so it keeps trace distances and Frobenius norms
exactly while each operator shrinks to r = min(d^|S|, d^(n-|S|+k))
dimensions, a power of d.

The information-group and concealment checks trace one stack, the d^(2k)
logical Paulis P, onto the support.  G(S) is spanned by the P with
A_S(P) != 0.  Any two secrets differ by rho - sigma = d^-k sum_{P != I}
c_P P with |c_P| <= 2, and for the twirl channel T, A_S(T(P)) has rank at
most r, so for every pair of secrets

    (1/2) ||A_S(T(rho - sigma))||_1 <= d^-k sum_{P != I} sqrt(r) ||A_S(T(P))||_F,

which is zero iff no Pauli that survives the twirl reaches S.

The checks take their subsets in chunks of one size.  `_lifts` gathers a
chunk's W from V with one indexed `take`, as (c, d^|S|, d^(n-|S|), d^k),
so each QR, reduction and eigvalsh call of a check covers a whole chunk
instead of one subset.  A chunk holds as many subsets as keep its W, one
d^|S| x d^|S| operator and one Choi marginal on the support per subset
within DEFAULT_AMPLITUDE_CAP amplitudes, and at least one subset.
"""

from __future__ import annotations

import functools

import numpy as np

from . import pauli
from .code import StabilizerCode
from .infogroup import InfoGroup, group_from_rows
from .pauli import DEFAULT_AMPLITUDE_CAP, PauliProduct, ResourceLimitError

__all__ = [
    "DETECTION_TOL",
    "STATE_TOL",
    "check_cap",
    "encoding_isometry",
    "encode",
    "partial_trace",
    "reduced_state",
    "info_group_bruteforce",
    "verify_absence",
    "choi_decoupling",
    "verify_concealment",
    "expansion_consistency",
    "trace_distance",
    "random_secret",
    "basis_secret",
]

# Separated so detection never flips on roundoff: 1e-9 decides whether a
# traced operator or a Choi marginal's correlation is nonzero, 1e-10
# compares states.
DETECTION_TOL = 1e-9
STATE_TOL = 1e-10


def check_cap(amplitudes: int, cap: int | None) -> None:
    """Raise ResourceLimitError if a dense object of `amplitudes` entries
    exceeds the cap (None means the default)."""
    cap = DEFAULT_AMPLITUDE_CAP if cap is None else cap
    if amplitudes > cap:
        raise ResourceLimitError(
            f"dense object needs {amplitudes} amplitudes, cap is {cap}")


def _digits(value: int, d: int, width: int) -> tuple[int, ...]:
    """Base-d digits of value, most significant first (site 1 leftmost)."""
    return tuple((value // d**(width - 1 - i)) % d for i in range(width))


def _plus_one_projector(paulis, arr: np.ndarray) -> np.ndarray:
    """The product over the commuting order-d `paulis` of (1/d) sum_t g^t,
    applied to `arr`: its columns projected onto their joint +1 eigenspace.

    Callers check the result: (1/d) sum_t g^t is no projector when g^d is
    not the identity.
    """
    for g in paulis:
        total = arr.astype(complex)
        term = arr
        for _ in range(1, g.d):
            term = pauli.apply(g, term)
            total += term
        arr = total / g.d
    return arr


@functools.lru_cache(maxsize=32)
def encoding_isometry(code: StabilizerCode, cap: int | None = None) -> np.ndarray:
    """V = sum_j |c_j><j| as a d^n x d^k matrix of orthonormal codewords.

    The stabilizer and logical-Z generators are n commuting Paulis, so
    their joint +1 eigenspace is one line: |c_0> is the first nonzero
    column of its projector, normalized.  |c_j> applies the logical-X
    product with the base-d digits of j as exponents.  Raises ValueError
    unless the codewords are orthonormal and fixed by every stabilizer
    generator.
    """
    d, n, k = code.d, code.n, code.k
    dim = d**n
    check_cap(dim, cap)
    # Project the identity's columns 64 at a time, up to the block that
    # holds the first nonzero one; no d^n x d^n array is built.
    for start in range(0, dim, 64):
        columns = np.eye(dim, min(64, dim - start), -start)
        block = _plus_one_projector(code.stabilizer + code.logical_z, columns)
        norms = np.linalg.norm(block, axis=0)
        nonzero = np.flatnonzero(norms > 1e-8)
        if len(nonzero):
            c0 = block[:, nonzero[0]] / norms[nonzero[0]]
            break
    else:
        raise ValueError("code projector is zero; the code is not well formed")
    words = []
    for j in range(d**k):
        lx = pauli.identity(d, n)
        for g, e in zip(code.logical_x, _digits(j, d, k)):
            lx = pauli.multiply(lx, pauli.power(g, e))
        words.append(pauli.apply(lx, c0))
    v = np.column_stack(words)
    if np.max(np.abs(v.conj().T @ v - np.eye(d**k))) > 1e-9:
        raise ValueError("codewords are not orthonormal; invalid logical set")
    for g in code.stabilizer:
        if np.max(np.abs(pauli.apply(g, v) - v)) > 1e-9:
            raise ValueError(
                f"stabilizer generator {pauli.to_string(g)} does not fix the "
                "encoding; the code is not well formed")
    v.setflags(write=False)
    return v


def encode(code: StabilizerCode, secret, cap: int | None = None) -> np.ndarray:
    secret = np.asarray(secret, dtype=complex).reshape(-1)
    if secret.size != code.d**code.k:
        raise ValueError(
            f"secret has dimension {secret.size}, expected {code.d**code.k}")
    return encoding_isometry(code, cap) @ secret


def _sites(dim: int, d: int, keep) -> tuple[int, list[int]]:
    """Site count m of a d^m-dimensional space and the sorted 0-based `keep`."""
    m = round(np.log(dim) / np.log(d)) if dim > 1 else 0
    if d**m != dim:
        raise ValueError(f"dimension {dim} is not a power of d={d}")
    keep0 = sorted(int(i) - 1 for i in keep)
    if any(i < 0 or i >= m for i in keep0):
        raise ValueError(f"keep sites {sorted(keep)} out of range 1..{m}")
    return m, keep0


def partial_trace(rho: np.ndarray, d: int, keep) -> np.ndarray:
    """Trace out every site not in `keep` (1-based); rho is (d^m, d^m), or
    a stack of such matrices along leading axes."""
    m, keep0 = _sites(rho.shape[-1], d, keep)
    lead = rho.shape[:-2]
    if not keep0:
        return np.trace(rho, axis1=-2, axis2=-1).reshape(lead + (1, 1))
    tensor = rho.reshape(lead + (d,) * (2 * m))
    row_idx = list(range(m))
    col_idx = [m + i if i in keep0 else i for i in range(m)]
    out_idx = keep0 + [m + i for i in keep0]
    reduced = np.einsum(tensor, [..., *row_idx, *col_idx], [..., *out_idx])
    size = d ** len(keep0)
    return reduced.reshape(lead + (size, size))


def reduced_state(state_or_op, subset, d: int) -> np.ndarray:
    """Partial trace onto `subset`.

    A vector is never expanded to its d^m x d^m projector: with its
    amplitudes arranged as A = (kept sites) x (traced sites), the reduced
    state is A A-dagger.
    """
    arr = np.asarray(state_or_op, dtype=complex)
    if arr.ndim != 1:
        return partial_trace(arr, d, subset)
    a = _kept_first(arr, d, subset)
    return a @ a.conj().T


def _kept_first(arr: np.ndarray, d: int, keep) -> np.ndarray:
    """`arr`, whose first axis spans d^m sites, as (kept sites, traced
    sites, remaining axes of `arr`)."""
    m, keep0 = _sites(arr.shape[0], d, keep)
    rest = [i for i in range(m) if i not in keep0]
    tail = arr.shape[1:]
    axes = keep0 + rest + list(range(m, m + len(tail)))
    split = arr.reshape((d,) * m + tail).transpose(axes)
    return split.reshape((d**len(keep0), d**len(rest)) + tail)


def _lifts(v: np.ndarray, d: int, subsets):
    """Yield (positions, w) for chunks of equal-size subsets: w stacks
    _kept_first(v, d, subsets[i]) for i in positions, as
    (c, d^|S|, d^(n-|S|), remaining axes of v).

    Row (a, t) of subset S is the sum of the base-d place values of the
    kept digits a and the traced digits t, so one `take` from v gathers a
    whole chunk.  Chunks are capped as the module docstring says.
    """
    n = _sites(len(v), d, ())[0]
    orders, sizes = [], []
    for subset in subsets:
        keep = sorted({int(site) - 1 for site in subset})
        if keep and (keep[0] < 0 or keep[-1] >= n):
            raise ValueError(
                f"keep sites {sorted(subset)} out of range 1..{n}")
        # Kept sites first, then the traced ones, both ascending.
        orders.append(keep + [site for site in range(n) if site not in keep])
        sizes.append(len(keep))
    places = (d ** np.arange(n - 1, -1, -1))[
        np.array(orders, dtype=np.int64).reshape(len(orders), n)]
    sizes = np.array(sizes)
    for m in sorted(set(sizes.tolist())):
        kept = np.indices((d,) * m).reshape(m, d**m)
        traced = np.indices((d,) * (n - m)).reshape(n - m, d**(n - m))
        # Per subset: its W, one d^|S| x d^|S| operator and its Choi
        # marginal on the support, (d^k r)^2 amplitudes.
        r = min(d**m, v.size // d**m)
        size = max(v.size, d**(2 * m), (v.size // len(v) * r)**2)
        step = max(1, DEFAULT_AMPLITUDE_CAP // size)
        positions = np.flatnonzero(sizes == m)
        for start in range(0, len(positions), step):
            chunk = positions[start:start + step]
            rows = ((places[chunk, :m] @ kept)[:, :, None]
                    + (places[chunk, m:] @ traced)[:, None, :])
            yield chunk, v.take(rows, axis=0)


def _traced(w: np.ndarray, op: np.ndarray) -> np.ndarray:
    """Tr_S-bar(V op V-dagger) for each subset of a chunk, as the sum over
    the traced basis states t of W_t op W_t-dagger.

    w stacks _kept_first(V, d, S), or its `_on_support`, as (c, rows,
    traced, d^k); op is (d^k, d^k) or a stack (p, d^k, d^k), and the
    result is (c, rows, rows) or (c, p, rows, rows).  The d^n x d^n lift
    V op V-dagger is never formed.
    """
    rows, span = w.shape[1], w.shape[2] * w.shape[3]
    w = w.reshape(w.shape[:1] + (1,) * (op.ndim - 2) + w.shape[1:])
    pushed = w @ op[..., None, :, :]
    flat = w.reshape(w.shape[:-3] + (rows, span))
    return (pushed.reshape(pushed.shape[:-3] + (rows, span))
            @ flat.conj().swapaxes(-1, -2))


def _on_support(w: np.ndarray) -> np.ndarray:
    """Q-dagger w for an orthonormal basis Q of the column span of each
    subset's w = _kept_first(V, d, S), read as a d^|S| x (all other axes)
    matrix; w is a chunk (c, d^|S|, ...).

    This is the R of a reduced QR, reshaped back: its second axis has
    r = min(d^|S|, d^(n-|S|+k)) entries and the other axes are w's.
    """
    r = np.linalg.qr(w.reshape(w.shape[:2] + (-1,)), mode="r")
    return r.reshape(r.shape[:2] + w.shape[2:])


def _frobenius(stack: np.ndarray) -> np.ndarray:
    """Frobenius norms over a stack's last two axes; vecdot copies nothing."""
    flat = stack.reshape(stack.shape[:-2] + (-1,))
    return np.sqrt(np.vecdot(flat, flat).real)


def _logical_paulis(d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every k-qudit Pauli X^x Z^z, identity first: the (x|z) exponent rows,
    (d^(2k), 2k), and the stack of their d^k x d^k matrices, built site by
    site as Kronecker products of the d^2 single-qudit matrices."""
    exps = np.indices((d,) * (2 * k)).reshape(2 * k, -1).T
    single = np.array([[pauli.dense_matrix(PauliProduct(d, (x,), (z,)), cap=d)
                        for z in range(d)] for x in range(d)])
    ops = np.ones((len(exps), 1, 1))
    for x, z in zip(exps[:, :k].T, exps[:, k:].T):
        ops = (ops[:, :, None, :, None] * single[x, z][:, None, :, None, :]
               ).reshape(len(exps), d * ops.shape[1], -1)
    return exps, ops


def _traced_norms(code: StabilizerCode, subsets, ops: np.ndarray,
                  cap: int | None):
    """Yield (positions, r, norms) for each `_lifts` chunk: norms[i, p] is
    ||A_S(ops[p])||_F for the chunk's i-th subset S, taken on its
    r-dimensional support.  The stack goes through `_traced` in slices that
    push at most DEFAULT_AMPLITUDE_CAP amplitudes of the chunk's W each."""
    for positions, w in _lifts(encoding_isometry(code, cap), code.d, subsets):
        w = _on_support(w)
        step = max(1, DEFAULT_AMPLITUDE_CAP // w.size)
        yield positions, w.shape[1], np.concatenate(
            [_frobenius(_traced(w, ops[i:i + step]))
             for i in range(0, len(ops), step)], axis=1)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) ||a - b||_1 for Hermitian a, b."""
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def _max_pairwise_distance(states) -> float:
    """Largest trace distance over all pairs of `states`, shaped
    (..., count, r, r), with pairs taken within each leading index.

    One stacked eigvalsh call compares each state with all later ones, so
    no stack of all count (count - 1) / 2 differences is held at once.
    """
    states = np.asarray(states)
    worst = 0.0
    for i in range(states.shape[-3] - 1):
        diffs = states[..., i + 1:, :, :] - states[..., i:i + 1, :, :]
        norms = np.sum(np.abs(np.linalg.eigvalsh(diffs)), axis=-1)
        worst = max(worst, 0.5 * float(np.max(norms)))
    return worst


def random_secret(d: int, k: int, rng: np.random.Generator) -> np.ndarray:
    vec = rng.normal(size=d**k) + 1j * rng.normal(size=d**k)
    return vec / np.linalg.norm(vec)


def basis_secret(d: int, k: int, j: int) -> np.ndarray:
    vec = np.zeros(d**k, dtype=complex)
    vec[j] = 1.0
    return vec


def info_group_bruteforce(code: StabilizerCode, subsets,
                          cap: int | None = None) -> list[InfoGroup | None]:
    """G(S) of each subset: span the input Paulis whose traced image is nonzero.

    A subset whose hits do not form a subgroup gets None.

    The d^(2k) input Paulis are traced onto every chunk of subsets as one
    stack (see the module docstring).  Equal hits give equal groups, so
    each distinct hit pattern is solved once.
    """
    d, k = code.d, code.k
    exps, ops = _logical_paulis(d, k)
    subsets = list(subsets)
    groups: list[InfoGroup | None] = [None] * len(subsets)
    solved: dict[bytes, InfoGroup | None] = {}
    for positions, _, norms in _traced_norms(code, subsets, ops, cap):
        for i, hits in zip(positions, norms > DETECTION_TOL):
            key = hits.tobytes()
            if key not in solved:
                rows = exps[hits]
                group = group_from_rows(d, k, rows)
                # A valid encoding's hits always form a subgroup.  Other
                # hits give None, which equals no symbolic group, so a
                # comparison fails.
                solved[key] = group if len(rows) == d**group.rank else None
            groups[i] = solved[key]
    return groups


def verify_absence(code: StabilizerCode, subsets, secrets,
                   cap: int | None = None) -> float:
    """Max trace distance, over the subsets, among reduced secrets and the
    secret-free state.

    The secret-free state goes through `_traced`; each secret's state is
    A A-dagger of its encoded vector A = W s, arranged as (kept, traced).
    """
    d, k = code.d, code.k
    v = encoding_isometry(code, cap)
    free = np.eye(d**k) / d**k
    inputs = np.array(secrets, dtype=complex).reshape(len(secrets), d**k).T
    worst = 0.0
    for _, w in _lifts(v, d, subsets):
        encoded = np.moveaxis(w @ inputs, -1, 1)  # (c, secret, kept, traced)
        states = np.concatenate(
            [_traced(w, free)[:, None],
             encoded @ encoded.conj().swapaxes(-1, -2)], axis=1)
        worst = max(worst, _max_pairwise_distance(states))
    return worst


def choi_decoupling(code: StabilizerCode, subsets,
                    cap: int | None = None) -> list[float]:
    """Distance of each reference+subset Choi marginal from a product state.

    Sends half of a maximally entangled state through the encoding.  A
    distance is zero iff the subset learns nothing about the reference,
    i.e. iff the subset is forbidden; applied to the complement it
    certifies that a subset can recover everything.  Each subset's Choi
    vector is built on the subset's support (see the module docstring),
    and its difference from the product state is formed in place.
    """
    d, n, k = code.d, code.n, code.k
    check_cap(d**(n + k), cap)
    v = encoding_isometry(code, cap)
    subsets = list(subsets)
    reference = list(range(1, k + 1))
    out = [0.0] * len(subsets)
    for positions, w in _lifts(v, d, subsets):
        # a[(j, a), t] = (Q-dagger W)[a, t, j] / sqrt(d^k): the Choi vector
        # with the reference first, then the support's m sites, then the
        # traced sites.
        w = _on_support(w)
        c, r = w.shape[:2]
        m = _sites(r, d, ())[0]
        a = w.transpose(0, 3, 1, 2).reshape(c, d**k * r, -1) / np.sqrt(d**k)
        rho_rs = a @ a.conj().swapaxes(-1, -2)
        rho_r = partial_trace(rho_rs, d, reference)
        rho_s = partial_trace(rho_rs, d, range(k + 1, k + m + 1))
        rho_rs -= (rho_r[:, :, None, :, None]
                   * rho_s[:, None, :, None, :]).reshape(rho_rs.shape)
        dists = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho_rs)), axis=-1)
        for i, dist in zip(positions, dists):
            out[i] = float(dist)
    return out


def verify_concealment(code: StabilizerCode, plan, subsets,
                       cap: int | None = None) -> float:
    """Max over the subsets of the module docstring's bound, which covers
    every pair of secrets; must vanish.  T acts densely on the stack of
    nonidentity logical Paulis, one generator average at a time."""
    d, k = code.d, code.k
    twirled = _logical_paulis(d, k)[1][1:]
    for g in plan.twirl_generators:  # (1/d) sum_e g^e op g^-e
        powers = [pauli.dense_matrix(pauli.power(g, e), cap=d**k)
                  for e in range(d)]
        twirled = sum(u @ twirled @ u.conj().T for u in powers) / d
    worst = 0.0
    for _, r, norms in _traced_norms(code, subsets, twirled, cap):
        worst = max(worst, float(np.sqrt(r) * np.max(norms.sum(axis=1))) / d**k)
    return worst


def expansion_consistency(code: StabilizerCode, secret, subsets,
                          cap: int | None = None) -> float:
    """Max deviation, over the subsets, between the direct reduced state and
    its Pauli expansion.

    Expands |psi><psi| in the input Pauli basis with Fourier coefficients
    c(x,z) = <psi| (X^x Z^z)^dagger |psi> and pushes each term through the
    encoding: the reassembled reduced state must match the direct one.  Each
    input Pauli is built once and traced onto every chunk of subsets.
    """
    d, k = code.d, code.k
    subsets = list(subsets)
    secret = np.asarray(secret, dtype=complex).reshape(-1)
    state = encode(code, secret, cap)
    ops = _logical_paulis(d, k)[1]
    coeffs = [np.vdot(op @ secret, secret) for op in ops]  # <psi| op^dagger |psi>
    worst = 0.0
    for positions, w in _lifts(encoding_isometry(code, cap), d, subsets):
        total = sum(coeff * _traced(w, op) for coeff, op in zip(coeffs, ops)
                    if abs(coeff) >= 1e-15)
        for i, expanded in zip(positions, total / d**k):
            direct = reduced_state(state, subsets[i], d)
            worst = max(worst, float(np.max(np.abs(direct - expanded))))
    return worst
