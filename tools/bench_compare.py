#!/usr/bin/env python3
"""Compare two BENCH_*.json files and fail on timing regressions.

Usage: bench_compare.py BASELINE.json CANDIDATE.json [--threshold PCT]
       bench_compare.py --selftest

Every numeric key the two files share whose name ends in ``_ms`` is treated
as a timing (lower is better). A timing regresses when the candidate is more
than ``--threshold`` percent (default 10) slower than the baseline AND, when
either file records a spread for it, the slowdown also exceeds 3x that
spread. A spread is recorded as a sibling key ``<timing>_spread`` in the
same unit (e.g. ``pagerank_ms`` and ``pagerank_ms_spread``, an IQR or MAD);
the larger of the two files' spreads is used. Timings without a recorded
spread are gated on the percentage alone. Speedup keys (ending in
``_speedup``), spread keys and structural keys (``n``, ``nnz``, iteration
counts) are reported for context but never gate. Keys present in only one
file are listed and ignored — benches gain and lose measurements across
PRs, and a comparison should not fail on vocabulary drift.

``--selftest`` checks both sides of the rule on built-in cases and exits.

Exit codes: 0 ok, 1 regression found, 2 bad invocation / unreadable input.
"""

import argparse
import json
import sys

SPREAD_SUFFIX = "_spread"
SPREAD_FACTOR = 3.0


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(doc, dict):
        print(f"bench_compare: {path} is not a JSON object", file=sys.stderr)
        sys.exit(2)
    return doc


def numeric_keys(doc):
    return {
        k: float(v)
        for k, v in doc.items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    }


def spread_of(key, base, cand):
    """The larger recorded spread of `key` across both files, or None."""
    spreads = [d[key + SPREAD_SUFFIX] for d in (base, cand)
               if key + SPREAD_SUFFIX in d]
    return max(spreads) if spreads else None


def is_regression(b, c, spread, threshold):
    """Slower by more than `threshold` percent and, with a spread, by more
    than SPREAD_FACTOR times it."""
    if b <= 0 or (c - b) / b * 100.0 <= threshold:
        return False
    return spread is None or c - b > SPREAD_FACTOR * spread


def compare(base, cand, threshold):
    """Print the comparison; return the regressed (key, b, c, change%)."""
    shared = sorted(set(base) & set(cand))
    only_base = sorted(set(base) - set(cand))
    only_cand = sorted(set(cand) - set(base))
    if only_base:
        print(f"ignored (baseline only): {', '.join(only_base)}")
    if only_cand:
        print(f"ignored (candidate only): {', '.join(only_cand)}")

    regressions = []
    for key in shared:
        b, c = base[key], cand[key]
        if key.endswith("_ms") and b > 0:
            change = (c - b) / b * 100.0
            spread = spread_of(key, base, cand)
            flag = ""
            if is_regression(b, c, spread, threshold):
                regressions.append((key, b, c, change))
                flag = "  <-- REGRESSION"
            noise = "" if spread is None else f", spread {spread:.4f}"
            print(f"  {key}: {b:.4f} -> {c:.4f} ms ({change:+.1f}%{noise})"
                  f"{flag}")
        else:
            print(f"  {key}: {b:g} -> {c:g} (informational)")
    return shared, regressions


def selftest():
    cases = [
        # (name, base, cand, want regression keys)
        ("slower past 10% with no spread recorded",
         {"a_ms": 10.0}, {"a_ms": 11.5}, ["a_ms"]),
        ("within 10%, tiny spread",
         {"a_ms": 10.0, "a_ms_spread": 0.01}, {"a_ms": 10.9}, []),
        ("past 10% and past 3x the spread",
         {"a_ms": 10.0, "a_ms_spread": 0.4}, {"a_ms": 11.5}, ["a_ms"]),
        ("past 10% but inside 3x the baseline spread",
         {"a_ms": 10.0, "a_ms_spread": 0.6}, {"a_ms": 11.5}, []),
        ("past 10% but inside 3x the candidate's spread",
         {"a_ms": 10.0}, {"a_ms": 11.5, "a_ms_spread": 0.6}, []),
        ("faster is never a regression",
         {"a_ms": 10.0, "a_ms_spread": 0.0}, {"a_ms": 5.0}, []),
    ]
    failed = 0
    for name, base, cand, want in cases:
        _, regs = compare(base, cand, 10.0)
        got = [r[0] for r in regs]
        ok = got == want
        failed += not ok
        print(f"selftest: {name:48s} {'ok' if ok else f'FAIL (got {got})'}")
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("candidate", nargs="?")
    ap.add_argument(
        "--threshold",
        type=float,
        default=10.0,
        help="allowed slowdown in percent before failing (default 10)",
    )
    ap.add_argument("--selftest", action="store_true",
                    help="check the regression rule on built-in cases")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.baseline or not args.candidate:
        ap.error("BASELINE and CANDIDATE are required")

    base = numeric_keys(load(args.baseline))
    cand = numeric_keys(load(args.candidate))
    shared, regressions = compare(base, cand, args.threshold)

    if not any(k.endswith("_ms") for k in shared):
        print("bench_compare: no shared timing keys; nothing to gate")
        return 0

    if regressions:
        print(
            f"\nbench_compare: {len(regressions)} timing(s) regressed past "
            f"{args.threshold:.0f}% and the recorded spread:"
        )
        for key, b, c, change in regressions:
            print(f"  {key}: {b:.4f} -> {c:.4f} ms ({change:+.1f}%)")
        return 1

    print(f"\nbench_compare: ok ({len(shared)} shared keys within threshold)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
