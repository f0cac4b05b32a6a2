#!/usr/bin/env python3
"""Probe key-length minimality: drop one twirl generator and watch the leak.

For each catalog code with a nonempty intermediate structure, removes every
single twirl generator in turn and reports the worst trace distance an
intermediate subset can then achieve between a pair of secrets.  A full plan
shows ~0; every crippled plan should leak.

Usage: python3 scripts/twirl_necessity.py [--seed N]
"""

import argparse
import itertools
from dataclasses import replace

import numpy as np

from stabshare import catalog, classify, oracle, twirl_plan
from stabshare.pauli import dense_matrix
from stabshare.twirl import twirl_operator


def worst_leak(code, plan, triplet, secrets):
    """Exact worst trace distance, over the intermediate subsets and every
    pair of `secrets`, between key-averaged reduced states: each secret is
    encoded once per key."""
    d = code.d
    twirls = [dense_matrix(twirl_operator(plan, key), cap=d**code.k)
              for key in itertools.product(range(d), repeat=plan.key_length)]
    worst = 0.0
    for subset in triplet.intermediate:
        states = [sum(oracle.reduced_state(oracle.encode(code, u @ secret),
                                           subset, d) for u in twirls)
                  / len(twirls) for secret in secrets]
        for a, b in itertools.combinations(states, 2):
            worst = max(worst, oracle.trace_distance(a, b))
    return worst


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)

    codes = [catalog("cnot_2_1"), catalog("ghz_n", 4), catalog("ghz_n", 5),
             catalog("four_two_two")]
    for code in codes:
        triplet = classify(code)
        plan = twirl_plan(code, triplet)
        if plan.is_empty:
            continue
        secrets = [oracle.basis_secret(code.d, code.k, 0),
                   oracle.basis_secret(code.d, code.k, 1)]
        secrets += [oracle.random_secret(code.d, code.k, rng)
                    for _ in range(4)]
        full = worst_leak(code, plan, triplet, secrets)
        print(f"{code.name}: l={plan.key_length}, full plan leak {full:.2e}")
        for drop in range(len(plan.twirl_generators)):
            kept = tuple(g for i, g in enumerate(plan.twirl_generators)
                         if i != drop)
            crippled = replace(plan, twirl_generators=kept,
                               key_length=len(kept))
            leak = worst_leak(code, crippled, triplet, secrets)
            name = str(plan.twirl_generators[drop])
            print(f"  without generator {drop} ({name}): leak {leak:.3f}")


if __name__ == "__main__":
    main()
