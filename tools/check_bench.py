#!/usr/bin/env python3
"""Regression gate for the machine-readable bench JSONs.

Reads a freshly produced bench JSON (file argument or stdin), dispatches
on its `bench` field, and compares it against the committed baseline in
bench/baselines/ (overridable with --baseline):

`bench` == "kernels" (bench/bench_kernels):
  1. Schema: every case carries name / unit / old_per_sec / new_per_sec /
     speedup, throughputs are positive, and the recorded speedup matches
     new_per_sec / old_per_sec.
  2. Gate (FAILS the build): each baseline case must be present, and its
     fresh speedup must be at least GATE_FRACTION (0.75) of the baseline
     speedup. The speedup column is an old-vs-new A/B measured in the same
     process within interleaved windows, so it transfers across machines —
     a drop means the optimized kernels regressed relative to the naive
     reference, not that the runner is slow.
     A case may name a CPU feature it needs ("requires": "avx2"); it is
     excused when the fresh results' `machine` block reports that
     feature false (bench_kernels then skips it), and gated otherwise.
  3. Advisory (warns only): absolute new-path throughput below half the
     baseline. CI runners differ wildly in clock speed and contention, so
     absolute rows/sec never fails the gate.

`bench` == "lifecycle" (bench/bench_lifecycle), `bench` == "serve"
(bench/bench_serve), and `bench` == "fleet" (bench/bench_fleet — the
lock-free direct-route sweep's query counts and parity verdicts,
SuggestMinutes parity, and the republish staleness arithmetic) share one
deterministic shape:
  1. Schema: every case carries name plus a `deterministic` object (int
     outcomes — lifecycle: episodes skipped by warm start, violations,
     checkpoint save/restore counts, result parity; serve: request /
     response / rejection / malformed-frame counts) and an `advisory`
     object (wall-clock milliseconds, latency percentiles, bytes).
  2. Gate (FAILS the build): each baseline case must be present and its
     `deterministic` object must match the baseline EXACTLY, key for key.
     These outcomes are a pure function of the seed and the admission
     arithmetic; any drift means semantics changed, not that the runner
     is slow.
  3. Advisory (warns only): any `advisory` value more than double its
     baseline. Latency never fails the gate.

Exit status 0 when the gate passes; 1 with a readable report otherwise.
Wired into CI right after the `bench_kernels --smoke`,
`bench_lifecycle --smoke`, `bench_serve --smoke`, and
`bench_fleet --smoke` runs.
"""

import json
import sys

GATE_FRACTION = 0.75
ABSOLUTE_WARN_FRACTION = 0.5
ADVISORY_WARN_FACTOR = 2.0

DEFAULT_BASELINES = {
    "kernels": "bench/baselines/BENCH_kernels.json",
    "lifecycle": "bench/baselines/BENCH_lifecycle.json",
    "serve": "bench/baselines/BENCH_serve.json",
    "fleet": "bench/baselines/BENCH_fleet.json",
}

# Bench kinds gated on exact deterministic outcomes (vs the kernels
# speedup-ratio gate). All share the deterministic/advisory case shape.
DETERMINISTIC_KINDS = frozenset({"lifecycle", "serve", "fleet"})

# Cases that must exist in BOTH the fresh results and the baseline. The
# exact-match gate only covers cases the baseline already names, so a
# case silently dropped from both files would pass unnoticed; pinning the
# load-bearing ones here makes that a hard failure.
REQUIRED_CASES = {
    "fleet": frozenset({"republish_staleness"}),
}

CASE_FIELDS = {
    "name": str,
    "unit": str,
    "old_per_sec": (int, float),
    "new_per_sec": (int, float),
    "speedup": (int, float),
}


def fail(errors):
    for error in errors:
        print(f"check_bench: FAIL: {error}", file=sys.stderr)
    return 1


def load(path):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as handle:
        return json.load(handle)


def validate_schema(doc, label, errors, kind="kernels"):
    if doc.get("bench") != kind:
        errors.append(f"{label}: bench != {kind!r}")
        return {}
    cases = doc.get("cases")
    if not isinstance(cases, list) or not cases:
        errors.append(f"{label}: missing or empty 'cases'")
        return {}
    by_name = {}
    for case in cases:
        for field, types in CASE_FIELDS.items():
            if not isinstance(case.get(field), types):
                errors.append(f"{label}: case {case.get('name')!r}: bad "
                              f"field {field!r}: {case.get(field)!r}")
                break
        else:
            name = case["name"]
            if name in by_name:
                errors.append(f"{label}: duplicate case {name!r}")
                continue
            if case["old_per_sec"] <= 0 or case["new_per_sec"] <= 0:
                errors.append(f"{label}: case {name!r}: non-positive "
                              "throughput")
                continue
            implied = case["new_per_sec"] / case["old_per_sec"]
            if abs(implied - case["speedup"]) > 1e-6 * max(implied, 1.0):
                errors.append(f"{label}: case {name!r}: speedup "
                              f"{case['speedup']:.4f} != new/old "
                              f"{implied:.4f}")
                continue
            by_name[name] = case
    return by_name


def validate_deterministic_schema(doc, label, errors, kind):
    if doc.get("bench") != kind:
        errors.append(f"{label}: bench != {kind!r}")
        return {}
    cases = doc.get("cases")
    if not isinstance(cases, list) or not cases:
        errors.append(f"{label}: missing or empty 'cases'")
        return {}
    by_name = {}
    for case in cases:
        name = case.get("name")
        if not isinstance(name, str):
            errors.append(f"{label}: case without a string name: {case!r}")
            continue
        if name in by_name:
            errors.append(f"{label}: duplicate case {name!r}")
            continue
        deterministic = case.get("deterministic")
        advisory = case.get("advisory")
        if not isinstance(deterministic, dict) or not deterministic:
            errors.append(f"{label}: case {name!r}: missing 'deterministic'")
            continue
        if not all(isinstance(v, int) and not isinstance(v, bool)
                   for v in deterministic.values()):
            errors.append(f"{label}: case {name!r}: non-integer "
                          "deterministic value")
            continue
        if not isinstance(advisory, dict):
            errors.append(f"{label}: case {name!r}: missing 'advisory'")
            continue
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in advisory.values()):
            errors.append(f"{label}: case {name!r}: non-numeric advisory "
                          "value")
            continue
        by_name[name] = case
    return by_name


def gate_deterministic(fresh, baseline, errors):
    for name, base_case in sorted(baseline.items()):
        fresh_case = fresh.get(name)
        if fresh_case is None:
            errors.append(f"case {name!r} present in baseline but missing "
                          "from fresh results")
            continue
        base_det = base_case["deterministic"]
        fresh_det = fresh_case["deterministic"]
        drift = sorted(set(base_det) | set(fresh_det))
        clean = True
        for key in drift:
            if base_det.get(key) != fresh_det.get(key):
                clean = False
                errors.append(
                    f"case {name!r}: deterministic field {key!r} drifted: "
                    f"baseline {base_det.get(key)!r} != fresh "
                    f"{fresh_det.get(key)!r} (these outcomes are a pure "
                    "function of the seed — this is a behavior change)")
        print(f"check_bench: {name}: {len(base_det)} deterministic fields "
              f"{'match baseline exactly' if clean else 'DRIFTED'}")
        for key, base_value in sorted(base_case["advisory"].items()):
            fresh_value = fresh_case["advisory"].get(key)
            if (isinstance(fresh_value, (int, float)) and base_value > 0
                    and fresh_value > ADVISORY_WARN_FACTOR * base_value):
                print(f"check_bench: WARN: {name}: advisory {key} = "
                      f"{fresh_value:.1f} is more than "
                      f"{ADVISORY_WARN_FACTOR:.0f}x the baseline "
                      f"{base_value:.1f} (advisory only: runners differ)",
                      file=sys.stderr)


def gate_kernels(fresh, baseline, errors, fresh_machine):
    for name, base_case in sorted(baseline.items()):
        fresh_case = fresh.get(name)
        feature = base_case.get("requires")
        if (fresh_case is None and feature
                and fresh_machine.get(feature) is False):
            print(f"check_bench: {name}: skipped (this runner has no "
                  f"{feature})")
            continue
        if fresh_case is None:
            errors.append(f"case {name!r} present in baseline but missing "
                          "from fresh results")
            continue
        floor = base_case["speedup"] * GATE_FRACTION
        status = "ok" if fresh_case["speedup"] >= floor else "REGRESSED"
        print(f"check_bench: {name}: speedup {fresh_case['speedup']:.2f}x "
              f"(baseline {base_case['speedup']:.2f}x, floor {floor:.2f}x) "
              f"{status}")
        if fresh_case["speedup"] < floor:
            errors.append(
                f"case {name!r}: speedup {fresh_case['speedup']:.2f}x fell "
                f"below {GATE_FRACTION:.0%} of baseline "
                f"{base_case['speedup']:.2f}x")
        if (fresh_case["new_per_sec"]
                < ABSOLUTE_WARN_FRACTION * base_case["new_per_sec"]):
            print(f"check_bench: WARN: {name}: absolute throughput "
                  f"{fresh_case['new_per_sec']:.0f}/sec is below half the "
                  f"baseline {base_case['new_per_sec']:.0f}/sec "
                  "(advisory only: runners differ)", file=sys.stderr)


def main(argv):
    fresh_path = "-"
    baseline_path = None
    args = argv[1:]
    while args:
        arg = args.pop(0)
        if arg == "--baseline":
            if not args:
                return fail(["--baseline needs a path"])
            baseline_path = args.pop(0)
        else:
            fresh_path = arg

    errors = []
    try:
        fresh_doc = load(fresh_path)
    except (OSError, json.JSONDecodeError) as err:
        return fail([f"cannot read fresh results {fresh_path!r}: {err}"])
    kind = fresh_doc.get("bench")
    if kind not in DEFAULT_BASELINES:
        return fail([f"fresh: unknown bench kind {kind!r} (expected one of "
                     f"{sorted(DEFAULT_BASELINES)})"])
    if baseline_path is None:
        baseline_path = DEFAULT_BASELINES[kind]
    try:
        baseline_doc = load(baseline_path)
    except (OSError, json.JSONDecodeError) as err:
        return fail([f"cannot read baseline {baseline_path!r}: {err}"])

    if kind in DETERMINISTIC_KINDS:
        fresh = validate_deterministic_schema(fresh_doc, "fresh", errors,
                                              kind)
        baseline = validate_deterministic_schema(baseline_doc, "baseline",
                                                 errors, kind)
    else:
        fresh = validate_schema(fresh_doc, "fresh", errors)
        baseline = validate_schema(baseline_doc, "baseline", errors)
    for required in sorted(REQUIRED_CASES.get(kind, ())):
        for label, cases in (("fresh", fresh), ("baseline", baseline)):
            if required not in cases:
                errors.append(f"{label}: required {kind} case {required!r} "
                              "is missing")
    if errors:
        return fail(errors)

    if kind in DETERMINISTIC_KINDS:
        gate_deterministic(fresh, baseline, errors)
    else:
        gate_kernels(fresh, baseline, errors, fresh_doc.get("machine", {}))

    if errors:
        return fail(errors)
    print(f"check_bench: OK ({len(baseline)} {kind} cases gated)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
