"""Workload definitions: input pools and the seeded choice of one run's inputs.

Each workload is a list of families.  A family has a fixed pool of POOL
items; an item is one operation on one code with one operation seed.  A run
with ``--seed S`` takes one item from every family, chosen by S, so the same
seed gives the same inputs and every input a run can meet has expected
outputs recorded in ``expected.json``.

Operations:
  pipeline  classify -> twirl_plan -> sample_twirl -> key_transport ->
            reconstruct, through the library API;
  simulate  ``stabshare simulate SRC --seed S --check all --format structured``
            through ``cli.main``.
"""

from __future__ import annotations

import random

POOL = 8

# Analysis of the qubit GHZ ladder.  Every proper non-empty subset is
# intermediate, so info_group/mod_rref and intermediate_group do nearly all
# the work; the key has one digit and rides on Shamir.  n <= 12 keeps the
# per-subset records, n = 13 drops them.  The seed picks the operation seed.
GHZ_LADDER = [("ghz_n", n) for n in range(8, 14)]

# Random odd-prime codes with non-threshold access structures (monotone key
# sharing), plus two large-prime codes where sample_twirl's repeated
# multiplication dominates.  The seed picks the code; the operation seed is
# fixed, so the key digits, which set sample_twirl's cost at large D, are
# the same in every run.
QUDIT_MIX = [(3, 12, 2), (5, 11, 2), (7, 10, 3), (10007, 8, 2), (65537, 7, 2)]
QUDIT_OP_SEED = 1

# Dense-oracle verification: the catalog, small GHZ codes and random qudit
# codes with D^(n+k) well inside the dense cap of 4096 amplitudes.
ORACLE_CATALOG = [("cnot_2_1", None), ("four_two_two", None), ("five_qubit", None),
                  ("steane", None), ("ghz_n", 6), ("ghz_n", 7), ("ghz_n", 8)]
ORACLE_RANDOM = [(3, 5, 1), (3, 4, 1), (3, 3, 2), (5, 3, 1), (5, 2, 1), (7, 2, 1)]

# One small dense-oracle check closes each analysis workload, on a code read
# from a file, so that every layer (code.loads, pauli.dense_matrix, oracle,
# cli) records some work on every workload and no per-layer time is
# structurally zero.  It costs about 1% of the pass.
GHZ3_FILE = {"name": "ghz_3", "D": 2, "n": 3, "k": 1, "pauli_strings": True,
             "stabilizer": ["ZZI", "IZZ"], "logical_x": ["XXX"], "logical_z": ["ZII"]}
QUDIT_VERIFY = (3, 2, 1)

NAMES = ("ghz-ladder", "qudit-mix", "oracle-verify")


def _catalog_spec(name, n):
    return {"catalog": name, "n": n}


def _random_spec(workload, d, n, k, i):
    return {"random": [d, n, k], "seed": f"{workload}/{d}-{n}-{k}/{i}"}


def _catalog_label(name, n):
    return f"ghz_{n}" if name == "ghz_n" else name


def families(workload: str) -> list[list[dict]]:
    """Every family of the workload, each a list of POOL items."""
    if workload == "ghz-ladder":
        fams = [[{"id": f"{workload}/ghz_{n}/{i}", "kind": "pipeline",
                  "code": _catalog_spec(name, n), "seed": i}
                 for i in range(POOL)] for name, n in GHZ_LADDER]
        verify = {"literal": GHZ3_FILE, "seed": f"{workload}/ghz_3-file"}
        return fams + [[{"id": f"{workload}/ghz_3-file/{i}", "kind": "simulate",
                         "code": verify, "seed": i} for i in range(POOL)]]
    if workload == "qudit-mix":
        fams = [[{"id": f"{workload}/{d}-{n}-{k}/{i}", "kind": "pipeline",
                  "code": _random_spec(workload, d, n, k, i),
                  "seed": QUDIT_OP_SEED}
                 for i in range(POOL)] for d, n, k in QUDIT_MIX]
        d, n, k = QUDIT_VERIFY
        return fams + [[{"id": f"{workload}/verify-{d}-{n}-{k}/{i}", "kind": "simulate",
                         "code": _random_spec(workload, d, n, k, i), "seed": i}
                        for i in range(POOL)]]
    if workload == "oracle-verify":
        fams = [[{"id": f"{workload}/{_catalog_label(name, n)}/{i}",
                  "kind": "simulate", "code": _catalog_spec(name, n), "seed": i}
                 for i in range(POOL)] for name, n in ORACLE_CATALOG]
        fams += [[{"id": f"{workload}/{d}-{n}-{k}/{i}", "kind": "simulate",
                   "code": _random_spec(workload, d, n, k, i), "seed": i}
                  for i in range(POOL)] for d, n, k in ORACLE_RANDOM]
        return fams
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(NAMES)}")


def select(workload: str, seed: int) -> list[dict]:
    """One item per family, chosen by the seed; order is the family order."""
    rng = random.Random(f"{workload}:{seed}")
    return [fam[rng.randrange(POOL)] for fam in families(workload)]
