#!/usr/bin/env bash
# Gates the benchmark's exact counts (ROADMAP 1(b)): the integer per-layer
# metrics of the four batch-* workloads that repeat identically from run to
# run and do not depend on the run length -- jobs, rounds, records and bytes
# across the shuffle, spill volume, candidate accounting -- plus the drift
# count and flag of serving-mixed, whose queries are the build items and so
# never leave the index's plan.  Walls drift 10-30 % on a shared box; these
# do not move unless the record flow does.
#
#   scripts/bench_counts.sh            diff against scripts/bench_counts.expected
#   scripts/bench_counts.sh --update   rewrite scripts/bench_counts.expected
#
# A non-empty diff is either a regression or a deliberate record-flow change;
# in the second case re-run with --update and quote the diff in the PR.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
expected="$here/bench_counts.expected"
metrics='mapreduce\.(jobs|shuffle_records|shuffle_bytes|merge_runs)'
metrics+='|simjoin\.(candidate_pairs|candidates_pruned|verify_exact|edges)'
metrics+='|matching\.(rounds|mr_jobs|shuffle_records|matched_edges|max_round_state_bytes)'
metrics+='|storage\.(spill_bytes|disk_runs)|distrib\.jobs'
serving='serving\.(maxima_exceeded|needs_rebuild)'

actual="$(bash "$here/../benchmark/run.sh" --traced-only --seconds 3 |
    awk -v metrics="^($metrics)\$" -v serving="^($serving)\$" '
        ($1 ~ /^batch-/ && $2 ~ metrics) || ($1 == "serving-mixed" && $2 ~ serving) {
            print $1, $2, $3
        }')"

if [[ "${1:-}" == "--update" ]]; then
    printf '%s\n' "$actual" > "$expected"
    echo "wrote $(wc -l < "$expected") counts to $expected" >&2
else
    diff -u "$expected" <(printf '%s\n' "$actual")
    echo "bench counts match $expected" >&2
fi
