#!/usr/bin/env python3
"""Compare two bench JSON snapshots cell by cell.

Closes the perf-trajectory loop: CI uploads one JSON artifact per commit
per harness (bench/backend_matrix.cc and bench/steady_state.cc, both via
--json=...), and this script diffs the current snapshot against the
previous run's, flagging every cell whose throughput (tasks_per_s)
dropped by more than --max-drop (default 25%).

Cells are keyed by (workload, backend, threads, pop_batch, pop_batch_auto,
policy, distribution, numa); policy/distribution are None for
backend_matrix rows, and numa="off" folds into None so pre-topology
baselines (no numa field) keep matching current flat rows. That keeps
legacy keys stable while newer rows — which sweep insert policies,
key distributions, and topology placement (--numa) — stay distinct per
combination. Unknown per-row fields (e.g. the steady harness's
throughput-over-time "buckets" array) are ignored entirely: only
tasks_per_s is compared, so old baselines without them diff cleanly.

Cells present only in the current snapshot are informational (axes
legitimately grow). Cells present only in the BASELINE are their own
annotation class: a silently vanished cell usually means a harness flag
or sweep loop broke, so each one gets a ::warning — loud in the PR view,
but never an exit-1 even under --fail, since axes also legitimately
shrink.

--min-batch-ratio=R adds a check that needs no baseline: within the
current snapshot alone, every batch-k cell (pop_batch > 1, or adaptive)
must reach at least R times the tasks_per_s of its batch-1 sibling (the
same key with pop_batch=1, not adaptive). Batching exists to amortize
per-touch cost, so a batch-k cell well below batch 1 means the batched
path has a cliff, whatever the previous run measured. A batch-k cell with
no batch-1 sibling is reported and skipped.

Exit status: 0 when clean or when the baseline is missing/unreadable (first
run on a branch must not fail CI); 1 when regressions were found AND --fail
was given, and 1 whenever --min-batch-ratio found a cell below its ratio
(the ratio check runs even without a usable baseline). Without --fail,
regressions are emitted as GitHub Actions ::warning annotations — shared
CI runners are noisy enough that a hard gate on a single run would mostly
catch scheduler jitter, so the default is a loud warning; flip on --fail
for a quiet dedicated perf box.

Usage:
  tools/bench_diff.py BASELINE.json CURRENT.json [--max-drop=0.25] [--fail]
      [--min-batch-ratio=R]
  tools/bench_diff.py --self-test

--self-test runs an internal schema-compatibility check (no files needed):
an old-schema snapshot (without the per-cell latency fields backend_matrix
now emits, e.g. slice_p99_us) must diff cleanly against a new-schema one —
cell keys line up, unknown/null fields are ignored, and equal throughput
yields zero regressions. It also checks that steady_state rows differing
only in policy/distribution get distinct keys, and that baseline-only
cells are classified as missing rather than folded into regressions, and
that the batch-ratio check passes, fails and skips a cell with no batch-1
sibling as documented. CI runs this so a schema change that would break
the first diff against a pre-change baseline fails loudly in the PR that
makes it.

No dependencies beyond the Python 3 standard library.
"""

import argparse
import json
import sys
import tempfile


def cell_key(row):
    return (
        row.get("workload"),
        row.get("backend"),
        row.get("threads"),
        row.get("pop_batch"),
        bool(row.get("pop_batch_auto", False)),
        # steady_state axes; None on legacy backend_matrix rows, so old
        # baselines keep producing identical keys.
        row.get("policy"),
        row.get("distribution"),
        # Topology placement axis. "off" (the flat default every new
        # snapshot emits) folds into None so pre---numa baselines keep
        # diffing against current default rows; only auto/virtual:K rows
        # get distinct keys.
        row.get("numa") if row.get("numa") != "off" else None,
    )


def sort_key(key):
    """Total order over cell keys whose optional fields mix None and str
    (e.g. a flat row keyed numa=None next to numa='virtual:2')."""
    return tuple((x is None, x) for x in key)


def fmt_key(key):
    workload, backend, threads, batch, auto, policy, dist, numa = key
    batch_s = f"auto:{batch}" if auto else str(batch)
    out = f"{workload} x {backend} @ t={threads} batch={batch_s}"
    if policy is not None:
        out += f" policy={policy}"
    if dist is not None:
        out += f" dist={dist}"
    if numa is not None:
        out += f" numa={numa}"
    return out


def report_missing(baseline, current, annotate=True):
    """Annotates cells present in the baseline but absent from the current
    snapshot. Returns the missing keys (sorted) for callers that count
    them; annotation-only — missing cells never affect the exit status.
    annotate=False skips the printing (the self-test classifies without
    planting ::warning lines in CI logs)."""
    missing = sorted(baseline.keys() - current.keys(), key=sort_key)
    if annotate:
        for key in missing:
            print(
                f"::warning::cell missing from current snapshot: "
                f"{fmt_key(key)} (harness flag or sweep loop change?)"
            )
    return missing


def load_rows(path):
    with open(path, "r", encoding="utf-8") as f:
        rows = json.load(f)
    if not isinstance(rows, list):
        raise ValueError(f"{path}: expected a JSON array of rows")
    cells = {}
    for row in rows:
        key = cell_key(row)
        # Duplicate keys would silently shadow each other; keep the best
        # run, matching how a human reads repeated bench rows.
        prev = cells.get(key)
        if prev is None or row.get("tasks_per_s", 0) > prev.get(
            "tasks_per_s", 0
        ):
            cells[key] = row
    return cells


def diff_cells(baseline, current, max_drop):
    """Classifies shared cells: returns (regressions, improvements), each a
    list of (key, old_tps, new_tps, relative_change)."""
    regressions = []
    improvements = []
    for key, row in sorted(current.items(), key=lambda kv: sort_key(kv[0])):
        old = baseline.get(key)
        if old is None:
            continue
        old_tps = old.get("tasks_per_s") or 0.0
        new_tps = row.get("tasks_per_s") or 0.0
        if old_tps <= 0.0:
            continue
        change = (new_tps - old_tps) / old_tps
        if change < -max_drop:
            regressions.append((key, old_tps, new_tps, change))
        elif change > max_drop:
            improvements.append((key, old_tps, new_tps, change))
    return regressions, improvements


def batch_ratios(current):
    """Pairs each batch-k cell of one snapshot with its batch-1 sibling.
    Returns (ratios, orphans): ratios lists (key, batch1_tps, tps, ratio)
    sorted by key; orphans lists batch-k keys with no batch-1 sibling (or
    one that measured nothing)."""
    ratios = []
    orphans = []
    for key, row in sorted(current.items(), key=lambda kv: sort_key(kv[0])):
        workload, backend, threads, batch, auto, policy, dist, numa = key
        if batch == 1 and not auto:
            continue
        sibling = current.get(
            (workload, backend, threads, 1, False, policy, dist, numa)
        )
        base_tps = (sibling.get("tasks_per_s") or 0.0) if sibling else 0.0
        if base_tps <= 0.0:
            orphans.append(key)
            continue
        tps = row.get("tasks_per_s") or 0.0
        ratios.append((key, base_tps, tps, tps / base_tps))
    return ratios, orphans


def check_batch_ratios(current, min_ratio):
    """Prints every batch-k/batch-1 ratio of the snapshot and an ::error::
    line per cell below min_ratio. Returns True iff some cell is below."""
    ratios, orphans = batch_ratios(current)
    for key in orphans:
        print(f"batch ratio: no batch-1 sibling for {fmt_key(key)}; skipped")
    failed = False
    for key, base_tps, tps, ratio in ratios:
        if ratio < min_ratio:
            failed = True
            print(
                f"::error::batch ratio below {min_ratio:.2f}: {fmt_key(key)}: "
                f"{tps:.0f} tasks/s vs {base_tps:.0f} at batch 1 "
                f"({ratio:.2f}x)"
            )
        else:
            print(f"batch ratio: {fmt_key(key)}: {ratio:.2f}x of batch 1")
    return failed


def self_test():
    """Old-schema baseline vs new-schema current must compare cleanly."""
    base_cell = {
        "workload": "mis",
        "backend": "multiqueue-c2",
        "threads": 4,
        "pop_batch": 8,
        "pop_batch_auto": False,
        "seconds": 0.5,
        "tasks_per_s": 1000.0,
        "iters_per_task": 1.1,
        "wasted_frac": 0.01,
        "mean_rank": None,
        "max_rank": None,
    }
    old_rows = [base_cell, dict(base_cell, workload="sssp")]
    # The new schema adds per-cell latency fields (number or null).
    new_rows = [
        dict(base_cell, slice_p99_us=42.5),
        dict(base_cell, workload="sssp", slice_p99_us=None),
    ]

    def roundtrip(rows):
        with tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False, encoding="utf-8"
        ) as f:
            json.dump(rows, f)
            path = f.name
        return load_rows(path)

    baseline = roundtrip(old_rows)
    current = roundtrip(new_rows)
    failures = []
    if set(baseline) != set(current):
        failures.append(
            "cell keys diverge between schemas: "
            f"{set(baseline) ^ set(current)}"
        )
    regressions, improvements = diff_cells(baseline, current, 0.25)
    if regressions:
        failures.append(f"spurious regressions: {regressions}")
    if improvements:
        failures.append(f"spurious improvements: {improvements}")
    # And a genuine drop must still be caught across schemas.
    dropped = {
        k: dict(v, tasks_per_s=(v.get("tasks_per_s") or 0.0) * 0.5)
        for k, v in current.items()
    }
    regressions, _ = diff_cells(baseline, dropped, 0.25)
    if len(regressions) != len(baseline):
        failures.append(
            f"expected {len(baseline)} regressions at -50%, "
            f"got {len(regressions)}"
        )

    # Steady-state rows differing only in policy/distribution must key to
    # distinct cells; a legacy row (no such fields) must key as (None, None).
    steady_cell = dict(
        base_cell,
        workload="steady",
        policy="uniform",
        distribution="dijkstra",
        runs=3,
    )
    steady_rows = [
        steady_cell,
        dict(steady_cell, policy="split"),
        dict(steady_cell, distribution="ascending"),
    ]
    steady = roundtrip(steady_rows)
    if len(steady) != 3:
        failures.append(
            f"policy/distribution collapse: expected 3 distinct steady "
            f"cells, got {len(steady)}"
        )
    if cell_key(base_cell)[-2:] != (None, None):
        failures.append("legacy row did not key as policy/distribution=None")

    # Topology axis compatibility: a pre---numa baseline row (no numa
    # field) must key identically to a current numa="off" row — including
    # one that also carries the steady harness's buckets array, which is
    # not a compared metric — while numa="virtual:2" rows stay distinct.
    numa_rows = roundtrip(
        [
            dict(steady_cell, numa="off", buckets=[500, 500]),
            dict(steady_cell, numa="virtual:2", buckets=[250, 250]),
        ]
    )
    if len(numa_rows) != 2:
        failures.append(
            f"numa axis collapse: expected 2 distinct cells, got "
            f"{len(numa_rows)}"
        )
    legacy_steady = roundtrip([steady_cell])
    regressions, improvements = diff_cells(legacy_steady, numa_rows, 0.25)
    if regressions or improvements:
        failures.append(
            f"numa=off row did not diff cleanly against legacy baseline: "
            f"{regressions} {improvements}"
        )
    if report_missing(legacy_steady, numa_rows, annotate=False):
        failures.append(
            "legacy (no-numa) baseline cell not matched by numa=off row"
        )
    if cell_key(dict(steady_cell, numa="off"))[-1] is not None:
        failures.append("numa=off did not fold into the legacy None key")

    # Baseline-only cells are their own class: never regressions, and
    # report_missing must surface exactly the vanished keys.
    shrunk = dict(steady)
    gone = cell_key(steady_rows[1])
    del shrunk[gone]
    regressions, _ = diff_cells(steady, shrunk, 0.25)
    if regressions:
        failures.append(f"missing cell misclassified as regression: "
                        f"{regressions}")
    missing = report_missing(steady, shrunk, annotate=False)
    if missing != [gone]:
        failures.append(
            f"expected missing cells [{gone}], got {missing}"
        )

    # Batch-ratio check on one snapshot: a batch-8 cell at 1.29x its
    # batch-1 sibling passes, one at 0.17x fails, and a batch-8 cell with
    # no batch-1 sibling is skipped, never failed.
    b1 = dict(steady_cell, pop_batch=1, tasks_per_s=1000.0)
    b8 = dict(steady_cell, pop_batch=8, tasks_per_s=1290.0)
    ratios, orphans = batch_ratios(roundtrip([b1, b8]))
    if orphans or [round(r[3], 2) for r in ratios] != [1.29]:
        failures.append(f"batch ratio pass leg: {ratios} {orphans}")
    slow = roundtrip([b1, dict(b8, tasks_per_s=170.0)])
    ratios, _ = batch_ratios(slow)
    if [r[3] < 0.8 for r in ratios] != [True]:
        failures.append(f"batch ratio fail leg not caught: {ratios}")
    orphan = dict(b8, policy="split")
    ratios, orphans = batch_ratios(roundtrip([b1, b8, orphan]))
    if len(ratios) != 1 or orphans != [cell_key(orphan)]:
        failures.append(
            f"batch ratio missing-sibling leg: {ratios} {orphans}"
        )

    for failure in failures:
        print(f"::error::bench_diff self-test: {failure}")
    if not failures:
        print("bench_diff self-test: OK (old-schema baseline diffs cleanly "
              "against new-schema snapshot)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description="Diff two backend_matrix JSON snapshots for throughput "
        "regressions."
    )
    parser.add_argument(
        "baseline", nargs="?", help="previous run's JSON artifact"
    )
    parser.add_argument(
        "current", nargs="?", help="this run's JSON artifact"
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the internal schema-compatibility check and exit",
    )
    parser.add_argument(
        "--max-drop",
        type=float,
        default=0.25,
        help="relative throughput drop that counts as a regression "
        "(default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--fail",
        action="store_true",
        help="exit 1 on regressions (default: ::warning annotations only)",
    )
    parser.add_argument(
        "--emit-ok",
        metavar="PATH",
        help="create PATH iff no regression was found (also when the "
        "baseline was missing). Lets CI promote the current snapshot to "
        "baseline only on clean runs, so a regressed run keeps being "
        "compared against the last good baseline instead of being "
        "normalized — without it, two consecutive sub-threshold drops "
        "compound invisibly.",
    )
    parser.add_argument(
        "--min-batch-ratio",
        type=float,
        metavar="R",
        help="exit 1 when any batch-k cell of CURRENT runs below R times "
        "its batch-1 sibling's tasks_per_s (no baseline needed)",
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.baseline is None or args.current is None:
        parser.error("baseline and current are required unless --self-test")

    def emit_ok():
        if args.emit_ok:
            with open(args.emit_ok, "w", encoding="utf-8") as f:
                f.write("ok\n")

    try:
        current = load_rows(args.current)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"::error::cannot read current bench snapshot: {e}")
        return 1
    ratio_failed = (
        args.min_batch_ratio is not None
        and check_batch_ratios(current, args.min_batch_ratio)
    )
    try:
        baseline = load_rows(args.baseline)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"no usable baseline ({e}); skipping bench diff")
        if ratio_failed:
            return 1
        emit_ok()  # nothing to regress against: seed the baseline
        return 0

    for key in sorted(current.keys() - baseline.keys(), key=sort_key):
        print(f"new cell (no baseline): {fmt_key(key)}")
    regressions, improvements = diff_cells(baseline, current, args.max_drop)
    missing = report_missing(baseline, current)

    for key, old_tps, new_tps, change in improvements:
        print(
            f"improvement: {fmt_key(key)}: {old_tps:.0f} -> {new_tps:.0f} "
            f"tasks/s ({change:+.1%})"
        )
    level = "error" if args.fail else "warning"
    for key, old_tps, new_tps, change in regressions:
        print(
            f"::{level}::throughput regression: {fmt_key(key)}: "
            f"{old_tps:.0f} -> {new_tps:.0f} tasks/s ({change:+.1%}, "
            f"threshold -{args.max_drop:.0%})"
        )
    print(
        f"bench diff: {len(current)} cells compared, "
        f"{len(regressions)} regression(s) beyond {args.max_drop:.0%}, "
        f"{len(improvements)} improvement(s), {len(missing)} missing cell(s)"
    )
    if not regressions and not ratio_failed:
        emit_ok()
    return 1 if (regressions and args.fail) or ratio_failed else 0


if __name__ == "__main__":
    sys.exit(main())
