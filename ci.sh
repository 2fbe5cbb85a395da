#!/usr/bin/env bash
# CI entry point: tier-1 build + tests, the apobench/ benchmark package
# build + tests, an ASan+UBSan pass of the whole suite, a TSan pass of
# the threaded/stacked suites, and the perf records
# (BENCH_micro_repeats.json, committed so successive PRs keep a
# tokens/sec + scaling trajectory).
set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc)"

echo "== tier-1: build + ctest (warnings are errors) =="
cmake -B build -S . -DAPO_WERROR=ON >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== benchmark package: apobench build + ctest =="
# apobench/ compiles ../src through the library's public API, so an API
# change that breaks the benchmark fails here rather than at bench time.
cmake -S apobench -B build-apobench >/dev/null
cmake --build build-apobench -j "$JOBS"
ctest --test-dir build-apobench --output-on-failure -j "$JOBS"

echo "== sanitizers: ASan + UBSan build + ctest =="
cmake -B build-asan -S . -DAPO_SANITIZE=ON -DAPO_WERROR=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "== sanitizers: TSan executor stress + cluster simulation (parallel engine, 8 worker threads) + shared decision engine + multi-tenant service =="
cmake -B build-tsan -S . -DAPO_TSAN=ON -DAPO_WERROR=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-tsan -j "$JOBS" --target support_executor_stress_test sim_cluster_test core_incremental_test core_decision_test svc_service_test svc_overload_test fault_checkpoint_test fault_membership_test
# APO_JOBS=8 forces every default-jobs cluster through the parallel
# per-node engine at >= 8 worker threads regardless of the host's core
# count, so TSan sees the real cross-thread traffic (TaskTeam barriers,
# shared mining cache, steady-state miner ring) even on small CI
# machines. core_decision_test's 64-node shared-engine case fans one
# decider's broadcast batches across the worker team.
# svc_service_test's pooled-executor case drives every tenant's mining
# jobs through one PooledExecutor racing on the shared cross-tenant
# cache. The fault_* suites run crash/checkpoint/resync through the
# parallel engine's barriers (the ASan leg already covers them via the
# full ctest above). svc_overload_test adds the watchdog's stuck-miner
# abandonment and the MiningCache waiter-release rendezvous.
APO_JOBS=8 ctest --test-dir build-tsan -R '^(support_executor_stress_test|sim_cluster_test|core_incremental_test|core_decision_test|svc_service_test|svc_overload_test|fault_checkpoint_test|fault_membership_test)$' --output-on-failure -j "$JOBS"

echo "== perf record: finder launch path + frontend issue path + digest =="
# Snapshot the committed record before the benches overwrite it: the
# regression gate below compares the fresh run against this baseline.
BENCH_BASELINE=""
if [ -f BENCH_micro_repeats.json ]; then
    BENCH_BASELINE=build/BENCH_baseline.json
    cp BENCH_micro_repeats.json "$BENCH_BASELINE"
fi
if [ -x build/micro_repeats ]; then
    ./build/micro_repeats --json=BENCH_micro_repeats.json
elif [ "${APO_ALLOW_NO_BENCH:-0}" = "1" ]; then
    # Local escape hatch only: without it, a missing bench binary is a
    # CI failure so the perf trajectory cannot quietly stop recording.
    echo "micro_repeats not built; skipping perf record (APO_ALLOW_NO_BENCH=1)"
else
    echo "error: micro_repeats was not built (is Google Benchmark" \
         "installed?); set APO_ALLOW_NO_BENCH=1 to skip the perf record" >&2
    exit 1
fi

echo "== perf record: replication scaling sweep =="
if [ -x build/fig_replication_scaling ]; then
    ./build/fig_replication_scaling --json=BENCH_micro_repeats.json
    # Both records must actually have landed in the shared JSON.
    if ! grep -q '"replication_scaling"' BENCH_micro_repeats.json; then
        echo "error: fig_replication_scaling output is missing from" \
             "BENCH_micro_repeats.json" >&2
        exit 1
    fi
    if ! grep -q '"cluster_parallel"' BENCH_micro_repeats.json; then
        echo "error: the cluster_parallel engine record is missing from" \
             "BENCH_micro_repeats.json" >&2
        exit 1
    fi
    if ! grep -q '"decision_cost"' BENCH_micro_repeats.json; then
        echo "error: the decision_cost record is missing from" \
             "BENCH_micro_repeats.json" >&2
        exit 1
    fi
elif [ "${APO_ALLOW_NO_BENCH:-0}" = "1" ]; then
    echo "fig_replication_scaling not built; skipping scaling record (APO_ALLOW_NO_BENCH=1)"
else
    echo "error: fig_replication_scaling was not built; set" \
         "APO_ALLOW_NO_BENCH=1 to skip the scaling record" >&2
    exit 1
fi

echo "== perf record: multi-tenant service sweep =="
if [ -x build/fig_multitenant ]; then
    ./build/fig_multitenant --json=BENCH_micro_repeats.json
    if ! grep -q '"fig_multitenant"' BENCH_micro_repeats.json; then
        echo "error: the fig_multitenant record is missing from" \
             "BENCH_micro_repeats.json" >&2
        exit 1
    fi
elif [ "${APO_ALLOW_NO_BENCH:-0}" = "1" ]; then
    echo "fig_multitenant not built; skipping multi-tenant record (APO_ALLOW_NO_BENCH=1)"
else
    echo "error: fig_multitenant was not built; set" \
         "APO_ALLOW_NO_BENCH=1 to skip the multi-tenant record" >&2
    exit 1
fi

echo "== perf record: overload sweep (open-loop load x policy) =="
if [ -x build/fig_overload ]; then
    # Exits nonzero if the acceptance assertions fail: policies must be
    # bit-identical at sustainable load; at 2x, kShed/kDegrade must
    # bound backlog and latency while kBlock shows the queueing cliff.
    ./build/fig_overload --json=BENCH_micro_repeats.json
    if ! grep -q '"fig_overload"' BENCH_micro_repeats.json; then
        echo "error: the fig_overload record is missing from" \
             "BENCH_micro_repeats.json" >&2
        exit 1
    fi
elif [ "${APO_ALLOW_NO_BENCH:-0}" = "1" ]; then
    echo "fig_overload not built; skipping overload record (APO_ALLOW_NO_BENCH=1)"
else
    echo "error: fig_overload was not built; set" \
         "APO_ALLOW_NO_BENCH=1 to skip the overload record" >&2
    exit 1
fi

echo "== perf record: fault-tolerance cost sweep =="
if [ -x build/fig_recovery ]; then
    # Exits nonzero if any churned run's digests diverge from the
    # failure-free baseline — recovery must never perturb the stream.
    ./build/fig_recovery --json=BENCH_micro_repeats.json
    if ! grep -q '"fig_recovery"' BENCH_micro_repeats.json; then
        echo "error: the fig_recovery record is missing from" \
             "BENCH_micro_repeats.json" >&2
        exit 1
    fi
elif [ "${APO_ALLOW_NO_BENCH:-0}" = "1" ]; then
    echo "fig_recovery not built; skipping recovery record (APO_ALLOW_NO_BENCH=1)"
else
    echo "error: fig_recovery was not built; set" \
         "APO_ALLOW_NO_BENCH=1 to skip the recovery record" >&2
    exit 1
fi

echo "== perf gate: bench_compare vs committed baseline =="
if [ -x build/bench_compare ] && [ -n "$BENCH_BASELINE" ]; then
    # The steady_state_mining and fig_multitenant records must exist
    # (exit 2, never waivable) and no tracked metric may regress >10%
    # against the committed record (exit 1; APO_ALLOW_BENCH_REGRESSION=1
    # waives a *regression* for known-noisy machines, nothing else).
    set +e
    ./build/bench_compare --baseline="$BENCH_BASELINE" \
        --current=BENCH_micro_repeats.json --threshold=0.10 \
        --require=steady_state_mining --require=fig_multitenant \
        --require=decision_cost --require=fig_recovery \
        --require=fig_overload
    compare_status=$?
    set -e
    if [ "$compare_status" -eq 1 ]; then
        if [ "${APO_ALLOW_BENCH_REGRESSION:-0}" = "1" ]; then
            echo "warning: bench regression waived (APO_ALLOW_BENCH_REGRESSION=1)"
        else
            echo "error: perf record regressed >10% against the" \
                 "committed baseline; investigate, or set" \
                 "APO_ALLOW_BENCH_REGRESSION=1 on known-noisy machines" >&2
            exit 1
        fi
    elif [ "$compare_status" -ne 0 ]; then
        echo "error: bench_compare failed (missing record or bad JSON)" >&2
        exit "$compare_status"
    fi
elif [ "${APO_ALLOW_NO_BENCH:-0}" = "1" ]; then
    echo "bench_compare gate skipped (APO_ALLOW_NO_BENCH=1)"
elif [ ! -x build/bench_compare ]; then
    echo "error: bench_compare was not built" >&2
    exit 1
else
    echo "no committed BENCH_micro_repeats.json; gate records from this run on"
fi

echo "CI OK"
