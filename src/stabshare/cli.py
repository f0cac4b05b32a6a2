"""Command-line front end: validate -> classify -> plan -> simulate -> share.

Exit codes: 0 ok, 1 a check failed, 2 input error, 3 resource cap exceeded.
Structured output is canonical JSON (sorted keys, fixed separators), so
identical inputs and seed produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

import numpy as np

from . import classical, code as code_mod, infogroup, oracle, twirl
from .code import CodeFileError, CodeValidationError, StabilizerCode
from .pauli import ResourceLimitError, pairing

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

CHECK_NAMES = ("all", "concealment", "choi", "infogroup", "duality")


def _emit(args: argparse.Namespace, payload: dict,
          text_lines: list[str]) -> None:
    if args.format == "structured":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


def _load_code(source: str, size_param: int | None) -> StabilizerCode:
    if source.startswith("catalog:"):
        return code_mod.catalog(source[len("catalog:"):], size_param)
    return code_mod.load(source)


def _code_label(c: StabilizerCode, delta: int | None) -> str:
    mid = f"[[{c.n},{c.k},{delta}]]" if delta is not None else f"[[{c.n},{c.k}]]"
    return f"{mid}_{c.d}"


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------

def cmd_validate(args: argparse.Namespace) -> int:
    c = _load_code(args.source, args.size_param)
    report = code_mod.validate(c)
    delta = None
    if report.is_valid:
        try:
            delta = code_mod.distance(c)
        except ResourceLimitError:
            delta = None
    payload = {"name": c.name, "D": c.d, "n": c.n, "k": c.k,
               "distance": delta, **report.to_dict()}
    lines = []
    if report.is_valid:
        lines.append(f"valid {_code_label(c, delta)} ({c.name})")
    else:
        lines.append(f"INVALID {c.name}:")
        lines.extend(f"  - {v}" for v in report.violations)
    lines.extend(f"note: {t}" for t in report.notes)
    _emit(args, payload, lines)
    return EXIT_OK if report.is_valid else EXIT_CHECK_FAILED


def _triplet_summary(triplet: infogroup.SchemeTriplet) -> str:
    q = infogroup.threshold_q(triplet)
    if not triplet.intermediate:
        if q is not None:
            return f"threshold ({q},{triplet.n})"
        return "perfect (non-threshold access structure)"
    sizes = sorted({len(s) for s in triplet.intermediate})
    return (f"ramp: authorized {len(triplet.authorized)}, forbidden "
            f"{len(triplet.forbidden)}, intermediate {len(triplet.intermediate)} "
            f"(sizes {sizes})")


def cmd_classify(args: argparse.Namespace) -> int:
    subset = None
    if args.subset:
        try:
            subset = tuple(sorted({int(v) for v in args.subset.split(",")
                                   if v.strip()}))
        except ValueError as exc:
            raise ValueError(
                f"bad subset {args.subset!r}: expected e.g. 1,3,4") from exc
    c = _load_code(args.source, args.size_param)
    if subset is not None:
        [g] = infogroup.info_group(c, [subset])
        cls = g.access_class
        form = infogroup.canonical_form(g)
        payload = {"code": c.name, "subset": list(subset), "class": cls,
                   "r": form.r, "s": form.s,
                   "generators": [list(row) for row in g.generators]}
        _emit(args, payload, [
            f"{c.name} subset {list(subset)}: class {cls}, "
            f"r={form.r}, s={form.s}"])
        return EXIT_OK
    triplet = infogroup.classify(c)
    payload = {"code": c.name, "summary": _triplet_summary(triplet),
               **triplet.to_dict()}
    lines = [f"{c.name}: {_triplet_summary(triplet)}"]
    if triplet.records is not None:
        for rec in triplet.records:
            lines.append(
                f"  {list(rec.subset)!s:<24} {rec.cls}  r={rec.r} s={rec.s}")
    _emit(args, payload, lines)
    return EXIT_OK


def _plan_text(c: StabilizerCode, plan: twirl.TwirlPlan) -> list[str]:
    if plan.is_empty:
        return [f"{c.name}: no twirl needed (I empty)"]
    gens = ", ".join(str(g) for g in plan.twirl_generators)
    q = plan.prescription.threshold_q
    if q is not None:
        scheme = f"Shamir ({q},{plan.prescription.n})"
    else:
        scheme = "monotone over minimal authorized sets"
    return [f"{c.name}: twirl = <{gens}>, l = {plan.key_length} "
            f"(r={plan.canonical.r}, s={plan.canonical.s}), "
            f"classical scheme: {scheme}"]


def cmd_twirl_plan(args: argparse.Namespace) -> int:
    c = _load_code(args.source, args.size_param)
    plan = twirl.twirl_plan(c)
    payload = {"code": c.name, **plan.to_dict()}
    _emit(args, payload, _plan_text(c, plan))
    return EXIT_OK


def _duality_mismatch(c: StabilizerCode, triplet: infogroup.SchemeTriplet,
                      groups: list[infogroup.InfoGroup],
                      intermediate: infogroup.InfoGroup) -> str | None:
    """First disagreement between commutants, direct solves and `classify`.

    `groups` holds the direct G(S) of every subset in enumeration order, so
    subset -1 - i is the complement of subset i.  On their stack of echelon
    slots: the commutant of G(S) is G(S-bar) iff the two pair to zero and
    their ranks sum to 2k; each class and, where `classify` keeps records,
    each (r, s), from the same ``infogroup`` helpers that `classify` uses,
    must be what it reported.  Last, `intermediate`, the group that the
    twirl is built from, must be the span of the direct groups of the
    intermediate subsets.
    """
    d, k = c.d, c.k
    order = list(infogroup.subsets_in_order(c.n))
    ranks = np.array([g.rank for g in groups])
    rows = np.array([row for g in groups for row in g.generators],
                    dtype=np.int64).reshape(-1, 2 * k)
    slots = np.zeros((len(groups), 2 * k, 2 * k), dtype=np.int64)
    slots[np.repeat(np.arange(len(groups)), ranks), (rows != 0).argmax(1)] = rows
    dual = (ranks + ranks[::-1] == 2 * k) & ~pairing(
        slots, slots[::-1], d).any(axis=(1, 2))
    if triplet.records is None:  # no (r, s) to compare: the rank decides
        solved = infogroup._class_code(ranks, k)[None]
    else:
        solved = infogroup._class_rs(slots, d)
    direct, rs = np.array(list(infogroup._CLASSES))[solved[0]], solved[1:].T
    classes = ({s: "A" for s in triplet.authorized}
               | {s: "F" for s in triplet.forbidden})
    reported = np.array([classes.get(s, "I") for s in order])
    bad = ~dual | (direct != reported)
    if triplet.records is not None:
        bad |= (rs != [(rec.r, rec.s) for rec in triplet.records]).any(axis=1)
    # The first failing pair (i, -1 - i), G(-1 - i) checked before G(i).
    for i in np.flatnonzero(bad | bad[::-1])[:1].tolist():
        j = -1 - i if bad[-1 - i] else i
        subset, comp = order[-1 - j], order[j]
        if not dual[j]:
            return (f"commutant of G({list(subset)}) differs from the "
                    f"direct G({list(comp)})")
        if direct[j] != reported[j]:
            return (f"classify puts {list(comp)} in {reported[j]}, "
                    f"its group in {direct[j]}")
        rec = triplet.records[j]
        return (f"classify gives {list(comp)} (r, s) = "
                f"{(rec.r, rec.s)}, its group {tuple(rs[j].tolist())}")
    spanned = infogroup.group_from_rows(d, k, sorted({
        row for g, cls in zip(groups, reported.tolist()) if cls == "I"
        for row in g.generators}))
    if intermediate != spanned:
        return ("intermediate group from classify differs from the span of "
                "the direct G(S) over the intermediate subsets")
    return None


def run_checks(c: StabilizerCode, seed: int, which: str,
               cap: int | None = None) -> tuple[bool, list[dict]]:
    """Run the selected oracle verifications; returns (all_passed, records)."""
    results: list[dict] = []

    def add(name, passed, measured=None, detail=None):
        rec = {"check": name, "pass": bool(passed)}
        if measured is not None:
            rec["measured"] = float(measured)
        if detail:
            rec["detail"] = detail
        results.append(rec)

    report = code_mod.validate(c)
    add("validate", report.is_valid,
        detail="; ".join(report.violations) if report.violations else "valid")
    if not report.is_valid:
        return False, results
    if which != "duality":
        # Meet the dense caps before solving 2^n groups: every other check
        # reads the D^n encoding and the scan's D^(n+k) Choi states.
        oracle.check_cap(c.d**c.n, cap)
        oracle.check_cap(c.d**(c.n + c.k), cap)

    triplet = infogroup.classify(c)
    subsets = list(infogroup.subsets_in_order(c.n))
    groups = infogroup.info_group(c, subsets)
    intermediate = twirl.intermediate_group(c, triplet)
    mismatch = _duality_mismatch(c, triplet, groups, intermediate)
    add("duality", mismatch is None,
        detail=mismatch or "access/forbidden duality holds")
    if mismatch is not None:
        return False, results  # every later check builds on the triplet

    if which in ("all", "duality"):
        auth = set(triplet.authorized)
        forb = set(triplet.forbidden)
        ok = (all(t in auth for s in auth for t in infogroup.one_larger(s, c.n))
              and all(t in forb for s in forb for t in infogroup.one_smaller(s)))
        add("monotonicity", ok)

    if which in ("all", "infogroup"):
        brute = oracle.info_group_bruteforce(c, subsets, cap=cap)
        mismatches = [subset for subset, symbolic, dense in
                      zip(subsets, groups, brute) if symbolic != dense]
        add("infogroup", not mismatches,
            detail=f"{2**c.n} subsets compared" if not mismatches
            else f"mismatch at {mismatches[:3]}")

    if which in ("all", "choi"):
        forb = set(triplet.forbidden)
        ok = oracle.choi_decoupled(c, subsets, cap=cap) == [
            subset in forb for subset in subsets]
        worst = max(oracle.choi_decoupling(c, triplet.forbidden, cap=cap),
                    default=0.0)
        add("choi", ok, measured=worst,
            detail="reference decouples exactly from the forbidden structure")

    if which not in ("all", "concealment"):
        return all(r["pass"] for r in results), results
    plan = twirl.twirl_plan(c, triplet, intermediate)
    # Concealment is gated on the intermediate subsets, not on the plan, so
    # an empty plan for a code that needs a twirl fails the check.
    if triplet.intermediate:
        worst = oracle.verify_concealment(c, plan, triplet.intermediate,
                                          cap=cap)
        add("concealment", worst < oracle.STATE_TOL, measured=worst,
            detail=f"{len(triplet.intermediate)} intermediate subsets, "
                   "every secret")

    if which == "all":
        if triplet.forbidden:
            worst = oracle.verify_absence(c, triplet.forbidden, cap=cap)
            add("absence", worst < oracle.STATE_TOL, measured=worst)
        secret = oracle.random_secret(c.d, c.k, np.random.default_rng(seed))
        worst = oracle.expansion_consistency(c, secret, subsets[:4], cap=cap)
        add("expansion", worst < oracle.STATE_TOL, measured=worst)

        if not plan.is_empty:
            key = twirl.draw_key(plan, random.Random(seed))
            shares = classical.key_transport(plan, triplet, seed)
            target = triplet.minimal_authorized[0]
            recovered = classical.reconstruct(shares, target)
            add("key_reconstruction", recovered == list(key),
                detail=f"authorized set {list(target)} recovers the key")
            # A known twirl key must leave the channel to an authorized set
            # perfect: its complement stays decoupled from the reference.
            # The key's operator U drops out of that distance: (I (x) V U)
            # |Phi+> = (U^T (x) V)|Phi+> acts on the reference alone.
            rest = infogroup.complement(target, c.n)
            [dec] = oracle.choi_decoupling(c, [rest], cap=cap)
            add("keyed_recovery", dec <= oracle.DETECTION_TOL, measured=dec,
                detail="known twirl key leaves the channel perfect")

    return all(r["pass"] for r in results), results


def cmd_simulate(args: argparse.Namespace) -> int:
    c = _load_code(args.source, args.size_param)
    passed, results = run_checks(c, args.seed, args.check, cap=args.cap)
    payload = {"code": c.name, "seed": args.seed, "check": args.check,
               "passed": passed, "results": results}
    lines = [f"{c.name} simulate --check {args.check} (seed {args.seed})"]
    for rec in results:
        status = "pass" if rec["pass"] else "FAIL"
        extra = ""
        if "measured" in rec:
            extra = f" measured={rec['measured']:.3e}"
        if rec.get("detail"):
            extra += f" ({rec['detail']})"
        lines.append(f"  [{status}] {rec['check']}{extra}")
    lines.append("all checks passed" if passed else "SOME CHECKS FAILED")
    _emit(args, payload, lines)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_share_key(args: argparse.Namespace) -> int:
    key = tuple(int(v) for v in args.key.split(",")) if args.key else None
    if args.from_plan is not None:
        c = _load_code(args.from_plan, args.n)
        triplet = infogroup.classify(c)
        plan = twirl.twirl_plan(c, triplet)
        if plan.is_empty:
            raise ValueError(
                f"{c.name} has no intermediate structure; no key to share")
        shares = classical.key_transport(plan, triplet, args.seed)
    else:
        missing = [flag for flag, v in
                   (("--q", args.q), ("--n", args.n), ("--P", args.P),
                    ("--key", key)) if v is None]
        if missing:
            raise ValueError(
                "explicit sharing needs " + ", ".join(missing))
        shares = classical.shamir_share(key, args.q, args.n, args.P,
                                        args.seed)
    payload = shares.to_dict()
    text = [f"{shares.kind} sharing over Z_{shares.modulus}, "
            f"{shares.key_length} digit(s), {shares.n} players"
            + (f", q={shares.q}" if shares.q else "")]
    for player, values in sorted(shares.shares.items()):
        text.append(f"  player {player}: {list(values)}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, sort_keys=True,
                                separators=(",", ":")) + "\n")
        text.append(f"wrote {args.out}")
        _emit(args, {"written": args.out, **payload}, text)
    else:
        _emit(args, payload, text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabshare",
        description="Secret-sharing structure of qudit stabilizer codes")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("source", help="code file path or catalog:NAME")
        p.add_argument("--n", type=int, default=None, dest="size_param",
                       help="size parameter for catalog:ghz_n")
        p.add_argument("--format", choices=("text", "structured"),
                       default="text")

    p = sub.add_parser("validate", help="check the stabilizer invariants")
    common(p)

    p = sub.add_parser("classify", help="compute the (A, F, I) triplet")
    common(p)
    p.add_argument("--subset", type=str, default=None,
                   help="report a single subset, e.g. 1,3,4")

    p = sub.add_parser("twirl-plan", help="derive the minimal twirl and key")
    common(p)

    p = sub.add_parser("simulate", help="run oracle verifications end to end")
    common(p)
    p.add_argument("--cap", type=int, default=None,
                   help="amplitude cap for dense objects")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--check", choices=CHECK_NAMES, default="all")

    p = sub.add_parser("share-key", help="share a key classically")
    p.add_argument("--from-plan", type=str, default=None, metavar="SOURCE",
                   help="derive the key and scheme from a code's twirl plan")
    p.add_argument("--n", type=int, default=None,
                   help="player count (explicit mode) or ghz_n size")
    p.add_argument("--q", type=int, default=None, help="threshold")
    p.add_argument("--P", type=int, default=None, help="share field modulus")
    p.add_argument("--key", type=str, default=None,
                   help="comma-separated key digits")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.add_argument("--out", type=str, default=None,
                   help="write the share bundle to a file")
    return parser


_DISPATCH = {
    "validate": cmd_validate,
    "classify": cmd_classify,
    "twirl-plan": cmd_twirl_plan,
    "simulate": cmd_simulate,
    "share-key": cmd_share_key,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ResourceLimitError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (CodeFileError, CodeValidationError, FileNotFoundError,
            ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
