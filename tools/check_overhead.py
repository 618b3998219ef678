#!/usr/bin/env python3
"""Tracing-disabled overhead smoke check.

The obs/ trace hooks are compiled into every grant/acquire/release path and
gated by one relaxed load. This check asserts the gate actually is that
cheap: it runs micro_orwl_overhead fresh (tracing compiled in, DISABLED —
the default state) and compares each case's median against the recorded
BENCH_micro_orwl_overhead.json, failing when a case regresses past the
tolerance.

  python3 tools/check_overhead.py --bench build/micro_orwl_overhead \\
      [--baseline BENCH_micro_orwl_overhead.json] [--tolerance 0.5]
      [--reps 5] [--warmup 1]

  python3 tools/check_overhead.py --fresh NEW.json [--baseline ...]
      compare an already-written recording instead of running the bench.

The default tolerance is deliberately generous (50%): CI machines are
noisy and shared, and the point is to catch a hook that turned into a
syscall or a lock — an order-of-magnitude smell — not to re-litigate
single-digit noise. Recordings made on different hosts are incomparable;
the check warns and passes when the two recordings' host fingerprints
(context.host_fingerprint: CPU model, PU count, NUMA nodes, L3 size,
kernel release) differ or either one lacks a fingerprint.

Exit status: 0 within tolerance (or hosts differ), 1 on regression, 2 on
usage errors.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile


def load(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    medians = {b["name"]: b["seconds_median"] for b in doc["benchmarks"]}
    return doc.get("context", {}), medians


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench", help="micro_orwl_overhead binary to run")
    ap.add_argument("--fresh", help="already-written recording to compare")
    ap.add_argument("--baseline", default="BENCH_micro_orwl_overhead.json")
    ap.add_argument("--tolerance", type=float, default=0.5,
                    help="allowed fractional regression (default 0.5)")
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--warmup", type=int, default=1)
    args = ap.parse_args()
    if bool(args.bench) == bool(args.fresh):
        ap.error("exactly one of --bench / --fresh is required")

    base_ctx, base = load(args.baseline)
    if args.bench:
        with tempfile.TemporaryDirectory() as tmpdir:
            out = os.path.join(tmpdir, "fresh.json")
            cmd = [args.bench, "--reps", str(args.reps),
                   "--warmup", str(args.warmup), "--json", out]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                raise SystemExit(f"bench run failed: {' '.join(cmd)}")
            fresh_ctx, fresh = load(out)
    else:
        fresh_ctx, fresh = load(args.fresh)

    base_host = base_ctx.get("host_fingerprint", "")
    fresh_host = fresh_ctx.get("host_fingerprint", "")
    if not base_host or base_host != fresh_host:
        print(f"hosts differ ({fresh_host!r} vs recorded {base_host!r}); "
              "timings are incomparable — skipping")
        return 0

    failures = []
    for name in sorted(set(base) & set(fresh)):
        limit = base[name] * (1.0 + args.tolerance)
        verdict = "FAIL" if fresh[name] > limit else "ok"
        print(f"{verdict:4} {name}: {fresh[name]:.9f}s vs baseline "
              f"{base[name]:.9f}s (limit {limit:.9f}s)")
        if fresh[name] > limit:
            failures.append(name)
    missing = sorted(set(base) - set(fresh))
    if missing:
        print(f"note: baseline-only cases not compared: {', '.join(missing)}")
    if failures:
        print(f"{len(failures)} case(s) regressed past "
              f"{args.tolerance:.0%}")
        return 1
    print("overhead within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
