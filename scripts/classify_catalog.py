#!/usr/bin/env python3
"""Sweep the code catalog: distance, triplet, twirl plan, key scheme.

Usage: python3 scripts/classify_catalog.py [--ghz-max N]
"""

import argparse

from stabshare import catalog, classify, distance, ramp_parameters, twirl_plan
from stabshare.infogroup import threshold_q


def describe(code):
    delta = distance(code)
    q, ramp_l = ramp_parameters(code, delta=delta)
    triplet = classify(code)
    plan = twirl_plan(code, triplet)
    if plan.is_empty:
        twirl = "none needed"
        scheme = "-"
    else:
        twirl = "<" + ", ".join(str(g) for g in plan.twirl_generators) + ">"
        tq = plan.prescription.threshold_q
        scheme = (f"Shamir ({tq},{code.n})" if tq is not None
                  else "monotone over minimal authorized sets")
    ramp = "I" in triplet.classes
    kind = (f"threshold ({threshold_q(triplet)},{code.n})"
            if not ramp and threshold_q(triplet) is not None
            else ("perfect, non-threshold" if not ramp
                  else f"ramp ({q},{ramp_l},{code.n})"))
    return {
        "code": f"[[{code.n},{code.k},{delta}]]_{code.d} {code.name}",
        "scheme": kind,
        "A/F/I": "/".join(str(triplet.classes.count(x)) for x in "AFI"),
        "twirl": twirl,
        "key": str(plan.key_length),
        "classical": scheme,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--ghz-max", type=int, default=6)
    args = parser.parse_args()

    codes = [catalog("cnot_2_1"), catalog("four_two_two"),
             catalog("five_qubit"), catalog("steane")]
    codes += [catalog("ghz_n", n) for n in range(3, args.ghz_max + 1)]

    rows = [describe(c) for c in codes]
    headers = list(rows[0])
    widths = {h: max(len(h), *(len(r[h]) for r in rows)) for h in headers}
    print("  ".join(h.ljust(widths[h]) for h in headers))
    print("  ".join("-" * widths[h] for h in headers))
    for r in rows:
        print("  ".join(r[h].ljust(widths[h]) for h in headers))


if __name__ == "__main__":
    main()
