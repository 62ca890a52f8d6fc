#!/usr/bin/env python3
"""Perf-smoke regression gate for the admission and transfer paths.

Compares the BENCH_overheads.json / BENCH_enqueue_scale.json /
BENCH_transfer_pipeline.json produced by a (quick-mode) bench run in the
current directory against the committed reference numbers in
bench/baselines/BENCH_SUMMARY.json. Fails (exit 1) if any tracked
per-action enqueue cost regresses by more than the baseline's
max_regression factor (3x by default: generous enough for
runner-to-runner variance, tight enough to catch an accidental return to
O(window) scanning, which shows up as 5-20x at the tracked shapes).

Kernel rows (BENCH_overheads.json) hold the wall-clock cost of one
128-tile call of each Cholesky hsblas kernel to the same max_regression
factor: a return to a per-element gemm or syrk costs 5-9x.

Chain and accumulate rows (BENCH_enqueue_scale.json) must also stay flat
in the window depth: on each executor and shape, the per-action cost at
depth 4096 may be at most depth_flatness (2x) times the cost at depth 64,
which a return to recording implied dependence edges breaks.

Transfer-pipeline rows are simulated virtual time — deterministic — so
they are held to the tighter virtual_regression bound, and the bench's
own acceptance counters (chunked two-hop >= 1.7x, CG bytes-moved
reduction >= 30% with bit-identical iterates) fail the gate outright.

Checkpoint rows (BENCH_checkpoint.json) are validity-map-driven byte
counts — also deterministic, also held to virtual_regression — and the
checkpoint_incremental_lt_full acceptance counter (incremental epochs
write strictly fewer bytes than full snapshots) fails the gate outright.

Usage: python3 bench/check_perf_smoke.py [baseline.json]
(run from the directory holding the BENCH_*.json files).
"""

import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def table_rows(report, title_prefix):
    for table in report["tables"]:
        if table["title"].startswith(title_prefix):
            return table["rows"]
    raise SystemExit(f"no table starting with {title_prefix!r} in report")


def main():
    baseline_path = sys.argv[1] if len(sys.argv) > 1 else \
        "bench/baselines/BENCH_SUMMARY.json"
    baseline = load(baseline_path)
    limit = float(baseline.get("max_regression", 3.0))
    failures = []
    checked = 0

    def check(group, key, measured, unit="us/action", bound=None):
        nonlocal checked
        ref = baseline.get(group, {}).get(key)
        if ref is None:
            return
        checked += 1
        cap = limit if bound is None else bound
        verdict = "ok" if measured <= ref * cap else "REGRESSED"
        print(f"  {group}[{key}]: {measured:.3f} {unit} "
              f"(baseline {ref:.3f}, limit {ref * cap:.3f}) {verdict}")
        if measured > ref * cap:
            failures.append((group, key, measured, ref, cap))

    overheads = load("BENCH_overheads.json")
    for row in table_rows(overheads, "Enqueue cost: eager vs graph replay"):
        check("eager_us_per_action", f"N={row[0]}", float(row[1]))
        check("replay_us_per_action", f"N={row[0]}", float(row[2]))

    for row in table_rows(overheads, "Kernel cost"):
        check("kernel_us_per_call", row[0], float(row[1]), unit="us/call")

    scale = load("BENCH_enqueue_scale.json")
    for row in table_rows(scale, "Per-action enqueue cost"):
        key = f"streams={row[0]},depth={row[1]},ops={row[2]}"
        check("legacy_us_per_action", key, float(row[3]))
        check("index_us_per_action", key, float(row[4]))

    counters = scale.get("counters", {})
    shapes = counters.get("acceptance_shapes", 0)
    passed = counters.get("acceptance_shapes_2x", 0)
    print(f"  enqueue_scale acceptance (>=2x at depth>=64, >=4 streams): "
          f"{passed}/{shapes} shapes")

    # Pruned dependence shapes: cost per action must not grow with depth.
    flat_limit = float(baseline.get("depth_flatness", 2.0))
    shape_cost = {}
    for row in table_rows(scale, "Chain and accumulate enqueue cost"):
        key = f"executor={row[0]},shape={row[1]},depth={row[2]}"
        check("dep_shape_us_per_action", key, float(row[3]))
        shape_cost.setdefault((row[0], row[1]), {})[int(row[2])] = \
            float(row[3])
    if not shape_cost:
        failures.append(("dep_shape", "rows", 0, 1, 1.0))
    for (executor, shape), by_depth in sorted(shape_cost.items()):
        shallow, deep = by_depth.get(64), by_depth.get(4096)
        if shallow is None or deep is None:
            failures.append(("dep_shape", f"{executor},{shape}", 0, 1, 1.0))
            continue
        ratio = deep / shallow
        verdict = "ok" if ratio <= flat_limit else "GREW"
        print(f"  {executor} {shape}: depth 4096 costs {ratio:.2f}x depth 64 "
              f"(limit {flat_limit:.1f}x) {verdict}")
        if ratio > flat_limit:
            failures.append(("dep_shape_flatness", f"{executor},{shape}",
                             deep, shallow, flat_limit))

    # Virtual-time rows are deterministic, so any drift past the tight
    # bound is a real change to the transfer scheduler or link model.
    virtual_limit = float(baseline.get("virtual_regression", 1.2))
    pipeline = load("BENCH_transfer_pipeline.json")
    for row in table_rows(pipeline, "Transfer pipeline"):
        key = f"size={row[0]}MiB,hops={row[1]},chunk=" + \
            (row[2] if row[2] == "unchunked" else f"{row[2]}MiB")
        check("transfer_pipeline_virtual_ms", key, float(row[3]),
              unit="virtual ms", bound=virtual_limit)

    pc = pipeline.get("counters", {})
    points = pc.get("pipeline_64mib_points", 0)
    points_ok = pc.get("pipeline_64mib_points_17x", 0)
    reduction = pc.get("cg_bytes_reduction_pct", 0)
    identical = pc.get("cg_iterates_bit_identical", 0)
    print(f"  pipeline acceptance (>=1.7x at 64 MiB, 2 MiB chunk): "
          f"{points_ok}/{points} points")
    print(f"  cg elision acceptance: {reduction}% bytes-moved reduction "
          f"(>= 30), iterates bit-identical: {'yes' if identical else 'NO'}")
    if points == 0 or points_ok < points:
        failures.append(("pipeline_acceptance", "64MiB>=1.7x",
                         points_ok, points, 1.0))
    if reduction < 30:
        failures.append(("cg_elision", "reduction_pct", reduction, 30, 1.0))
    if not identical:
        failures.append(("cg_elision", "bit_identical", 0, 1, 1.0))

    ckpt = load("BENCH_checkpoint.json")
    for row in table_rows(ckpt, "Checkpoint write amplification"):
        check("checkpoint_bytes_written", row[0], float(row[2]),
              unit="bytes", bound=virtual_limit)
    kc = ckpt.get("counters", {})
    inc_bytes = kc.get("checkpoint_incremental_bytes", 0)
    full_bytes = kc.get("checkpoint_full_bytes", 0)
    inc_lt_full = kc.get("checkpoint_incremental_lt_full", 0)
    print(f"  checkpoint acceptance: incremental wrote {inc_bytes} vs full "
          f"{full_bytes} bytes ({'ok' if inc_lt_full else 'NOT fewer'})")
    if not inc_lt_full:
        failures.append(("checkpoint", "incremental_lt_full",
                         inc_bytes, full_bytes, 1.0))

    # Multi-tenant isolation runs in deterministic gate slots, so the
    # victim-p99 numbers are exact; the acceptance counters (weighted-DRR
    # holds the 10x-flood p99 shift under 2x, the FIFO baseline does not,
    # and the soak's per-tenant stat slices reconcile with the global
    # totals) fail the gate outright.
    mt = load("BENCH_multitenant.json")
    mc = mt.get("counters", {})
    for key in ("isolation_p99_alone_slots", "isolation_p99_wdrr_slots"):
        check("multitenant", key, float(mc.get(key, 0)), unit="slots",
              bound=virtual_limit)
    wdrr_ok = mc.get("isolation_wdrr_under_2x", 0)
    fifo_bad = mc.get("isolation_fifo_exceeds_2x", 0)
    reconciled = mc.get("soak_reconcile_ok", 0)
    print(f"  multitenant acceptance: wdrr p99 shift "
          f"{mc.get('isolation_wdrr_shift_x100', 0) / 100:.2f}x "
          f"({'ok' if wdrr_ok else 'NOT under 2x'}), fifo shift "
          f"{mc.get('isolation_fifo_shift_x100', 0) / 100:.2f}x "
          f"({'ok' if fifo_bad else 'did NOT exceed 2x'}), soak slices "
          f"{'reconcile' if reconciled else 'do NOT reconcile'}")
    if not wdrr_ok:
        failures.append(("multitenant", "wdrr_under_2x",
                         mc.get("isolation_wdrr_shift_x100", 0) / 100, 2, 1.0))
    if not fifo_bad:
        failures.append(("multitenant", "fifo_exceeds_2x",
                         mc.get("isolation_fifo_shift_x100", 0) / 100, 2, 1.0))
    if not reconciled:
        failures.append(("multitenant", "soak_reconcile_ok", 0, 1, 1.0))

    # Out-of-core budget sweep runs in sim virtual time — deterministic —
    # so the per-fraction factor times gate at the tight bound, and the
    # acceptance counters (the Cholesky at the tightest budget completed,
    # it actually spilled and re-fetched, and no run surfaced an
    # Errc::data_loss error) fail the gate outright. Rows are keyed by the
    # fraction of the working set each budget really is.
    oom = load("BENCH_oom.json")
    for row in table_rows(oom, "Out-of-core Cholesky — budget sweep"):
        check("oom_virtual_ms", f"budget={row[0]}x", float(row[2]),
              unit="virtual ms", bound=virtual_limit)
    oc = oom.get("counters", {})
    completed = oc.get("oom_overbudget_completed", 0)
    evictions = oc.get("oom_evictions", 0)
    refetches = oc.get("oom_refetches", 0)
    data_loss = oc.get("oom_data_loss_errors", 0)
    tightest = oc.get("oom_tightest_budget_pct", 0) / 100
    print(f"  oom acceptance: Cholesky at {tightest:.2f}x of its working set "
          f"{'completed' if completed else 'DID NOT complete'}, "
          f"{evictions} evictions / {refetches} refetches, "
          f"{data_loss} data-loss errors")
    if not completed:
        failures.append(("oom", "overbudget_completed", 0, 1, 1.0))
    if evictions == 0 or refetches == 0:
        failures.append(("oom", "spill_traffic", evictions, refetches, 1.0))
    if data_loss != 0:
        failures.append(("oom", "data_loss_errors", data_loss, 0, 1.0))

    if checked == 0:
        raise SystemExit("baseline matched no measured rows — "
                         "baseline and sweep have drifted apart")
    if failures:
        for group, key, measured, ref, cap in failures:
            print(f"FAIL {group}[{key}]: {measured:.3f} vs "
                  f"baseline {ref:.3f} (> {cap:.1f}x)", file=sys.stderr)
        raise SystemExit(1)
    print(f"perf smoke: {checked} tracked costs within {limit:.1f}x "
          "of baseline")


if __name__ == "__main__":
    main()
