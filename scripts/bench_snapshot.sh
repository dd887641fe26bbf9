#!/usr/bin/env bash
# Writes one point of the perf trajectory (ROADMAP 1(a)): runs the repo
# benchmark once -- benchmark/run.sh, every workload, untraced and traced
# passes -- and writes BENCH_PR<N>.json at the repo root:
#
#   schema         1
#   pr             N
#   commit         the checked-out commit, "-dirty" when tracked files differ
#   calibration_s  wall time of a fixed awk loop, the mean of one timing just
#                  before and one just after the benchmark, so walls measured
#                  on a drifting machine can be compared as wall / calibration
#   end_to_end     the five end-to-end medians of every workload
#   exact_counts   the batch-* counts scripts/bench_counts.sh gates, by the
#                  same filter
#
#   scripts/bench_snapshot.sh N [benchmark/run.sh options, e.g. --seconds 12]
#
# A PR that claims a gain commits its parent's snapshot and its own, both
# measured in one session, and quotes their diff.
set -euo pipefail

n=${1:?usage: scripts/bench_snapshot.sh N [benchmark/run.sh options]}
shift
cd "$(dirname "$0")/.."

# Microseconds a fixed single-threaded CPU loop takes.
calibrate() {
    local start end
    start=$(date +%s%N)
    awk 'BEGIN { s = 0; for (i = 0; i < 10000000; i++) s = (s * 31 + i) % 1000003; if (s < 0) print s }'
    end=$(date +%s%N)
    echo $(((end - start) / 1000))
}

commit=$(git rev-parse --short=7 HEAD)
git diff --quiet HEAD || commit+="-dirty"
before=$(calibrate)
results=$(bash benchmark/run.sh "$@")
after=$(calibrate)

# The filter of scripts/bench_counts.sh.
counts='mapreduce\.(jobs|shuffle_records|shuffle_bytes|merge_runs)'
counts+='|simjoin\.(candidate_pairs|candidates_pruned|verify_exact|edges)'
counts+='|matching\.(rounds|mr_jobs|shuffle_records|matched_edges|max_round_state_bytes)'
counts+='|storage\.(spill_bytes|disk_runs)|distrib\.jobs'
end_to_end='op_p50_ms|op_tail_ms|work_per_s|peak_rss_mb|setup_s'

out="BENCH_PR$n.json"
printf '%s\n' "$results" | awk -v pr="$n" -v commit="$commit" \
    -v calibration="$(((before + after) / 2))" \
    -v end_to_end="^($end_to_end)\$" -v counts="^($counts)\$" '
    # One JSON object per workload: "name": {"metric": value, ...}.
    function section(title, names, values, n_names, last,    w, i, line) {
        printf "  \"%s\": {\n", title
        for (w = 1; w <= n_workloads; w++) {
            line = ""
            for (i = 1; i <= n_names; i++) {
                if ((workloads[w], names[i]) in values) {
                    line = line (line == "" ? "" : ", ") "\"" names[i] "\": " values[workloads[w], names[i]]
                }
            }
            if (line != "") {
                sections[title] = sections[title] (sections[title] == "" ? "" : ",\n") \
                    "    \"" workloads[w] "\": {" line "}"
            }
        }
        printf "%s\n  }%s\n", sections[title], last ? "" : ","
    }
    # Metric lines only: a timing series prints "median=..." under the
    # same name.
    $1 ~ /^(batch|serving)-/ && $3 ~ /^-?[0-9.]+([eE][-+]?[0-9]+)?$/ {
        if (!($1 in seen)) { seen[$1] = 1; workloads[++n_workloads] = $1 }
        if ($2 ~ end_to_end) {
            if (!($2 in e_seen)) { e_seen[$2] = 1; e_names[++n_e] = $2 }
            e[$1, $2] = $3
        }
        if ($1 ~ /^batch-/ && $2 ~ counts) {
            if (!($2 in c_seen)) { c_seen[$2] = 1; c_names[++n_c] = $2 }
            c[$1, $2] = $3
        }
    }
    END {
        printf "{\n  \"schema\": 1,\n  \"pr\": %d,\n  \"commit\": \"%s\",\n", pr, commit
        printf "  \"calibration_s\": %.6f,\n", calibration / 1e6
        section("end_to_end", e_names, e, n_e, 0)
        section("exact_counts", c_names, c, n_c, 1)
        printf "}\n"
    }' > "$out"
echo "wrote $out ($commit, calibration $((before / 1000)) / $((after / 1000)) ms)" >&2
