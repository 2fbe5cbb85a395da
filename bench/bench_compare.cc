/**
 * @file
 * Perf-record regression gate: compare two BENCH_*.json records and
 * fail CI when a tracked metric regresses.
 *
 * The repo commits its perf records (BENCH_micro_repeats.json) so
 * successive PRs keep a throughput trajectory; this tool turns that
 * trajectory into an enforced gate. It flattens both files into
 * dotted-path -> number maps with a tiny recursive-descent parser
 * (the records are machine-written JSON; no general-purpose library
 * needed) and compares every metric whose name declares a direction:
 *
 *  - higher-is-better: paths ending in `_per_sec`, `improvement`,
 *    `speedup`, or `hit_rate`;
 *  - lower-is-better: paths containing `allocs_per`.
 *
 * Anything else (config echoes, counters, checksums) is ignored. A
 * metric regresses when it moves more than `--threshold` (default
 * 10%) in the bad direction relative to the baseline; metrics present
 * in only one file are reported but never fail the gate (records
 * legitimately gain and lose sections across PRs).
 *
 * Usage:
 *   bench_compare --baseline=OLD.json --current=NEW.json
 *                 [--threshold=0.10] [--metric=SUBSTR]...
 *                 [--require=SUBSTR]...
 *
 *  --metric   restrict the comparison to paths containing any of the
 *             given substrings (default: all direction-typed paths);
 *  --require  fail (exit 2) unless the *current* record contains at
 *             least one path with the substring — the gate that keeps
 *             a bench from quietly dropping a record.
 *
 * When the two records' top-level `hardware_concurrency` differ, one
 * `host mismatch: ...` line says so; it changes no verdict.
 *
 * Exit codes: 0 ok; 1 regression (waivable in ci.sh via
 * APO_ALLOW_BENCH_REGRESSION=1); 2 usage, parse failure, or a missing
 * --require record (never waivable).
 *
 * The implementation lives in bench_compare_impl.h so the unit tests
 * run the same logic this binary does.
 */
#include "bench_compare_impl.h"

int
main(int argc, char** argv)
{
    return apo::bench::BenchCompareMain(argc, argv);
}
