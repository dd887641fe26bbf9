#!/usr/bin/env bash
# Alternating pairs of the repo benchmark, a parent revision against the
# working tree: the perf record a claim (or a "no regression") rests on
# (ROADMAP 18(a)).
#
#   scripts/bench_pair.sh PARENT N [--pairs P] [--workload W ...] [--seconds S]
#
#   PARENT       the revision to compare against (a commit, tag or branch)
#   N            the output is BENCH_PR<N>.json at the repo root
#   --pairs P    pairs per workload (default 5)
#   --workload W a workload of BENCHMARK.json; repeat for several (default all)
#   --seconds S  each run's --seconds (default 12, the benchmark's own)
#
# Each side is built from its own copy under one `mktemp -d` directory,
# with its own CARGO_TARGET_DIR: PARENT's committed files (`git archive`)
# and the working tree's files, tracked and untracked but not ignored.
# To compare two commits, run the script from a clone checked out at the
# newer one.  Copies rather than `git worktree`s leave no
# metadata in .git, and a build never rewrites benchmark/Cargo.lock in the
# working tree.  The directory is removed on exit.
#
# Every pair runs each workload once per side, parent first, as one
# untraced pass: `benchmark/run.sh --workload W --seconds S --trace 0`.
# BENCH_PR<N>.json, schema 2:
#
#   schema, pr, parent, commit, pairs, seconds
#   calibration_s   {before, after}: a fixed awk loop timed before the
#                   first run and after the last
#   workloads.W.parent / .work
#                   per end-to-end metric {median, q1, q3, iqr} over the
#                   P runs (quartiles by Python's exclusive method, as the
#                   benchmark's own stats.rs), plus correct_runs and
#                   steal_ticks (the host's /proc/stat steal across them)
#   workloads.W.pairs.M
#                   deltas   per pair, (work - parent) / parent
#                   wins     pairs where work is better in BENCHMARK.json's
#                            direction for M
#                   claimable  wins in at least 9 of 10 pairs and the median
#                            better by more than the parent's IQR
#                   over_bound the work median worse than the parent's by
#                            more than M's bound
#                   unresolved the parent's IQR is wider than M's bound
#                            times the parent's median, and not every work
#                            run beats every parent run: the spread alone
#                            could move the median past the bound, so
#                            neither over_bound nor a win says anything
#
# A summary table goes to stderr.  Exits non-zero if a run fails.
set -euo pipefail

usage="usage: scripts/bench_pair.sh PARENT N [--pairs P] [--workload W ...] [--seconds S]"
[[ $# -ge 2 ]] || { echo "$usage" >&2; exit 2; }
parent=$1 n=$2
shift 2
pairs=5 seconds=12 workloads=()
while [[ $# -gt 0 ]]; do
    case $1 in
        --pairs) pairs=${2:?$usage}; shift 2 ;;
        --workload) workloads+=("${2:?$usage}"); shift 2 ;;
        --seconds) seconds=${2:?$usage}; shift 2 ;;
        *) echo "$usage" >&2; exit 2 ;;
    esac
done
cd "$(dirname "$0")/.."

# "name better bound" for each end-to-end metric of BENCHMARK.json.
metrics=$(grep -o '"name": "[a-z_0-9]*", "unit": "[^"]*", "better": "[a-z]*", "bound": [0-9.]*' \
    BENCHMARK.json | awk -F'"' '{ bound = $NF; sub(/^: /, "", bound); print $4, $12, bound }')
[[ -n "$metrics" ]] || { echo "no end-to-end metrics in BENCHMARK.json" >&2; exit 1; }
if [[ ${#workloads[@]} -eq 0 ]]; then
    mapfile -t workloads < <(grep -o '{"name": "[a-z-]*", "why"' BENCHMARK.json | awk -F'"' '{ print $4 }')
fi

# Microseconds a fixed single-threaded CPU loop takes.
calibrate() {
    local start end
    start=$(date +%s%N)
    awk 'BEGIN { s = 0; for (i = 0; i < 10000000; i++) s = (s * 31 + i) % 1000003; if (s < 0) print s }'
    end=$(date +%s%N)
    echo $(((end - start) / 1000))
}

# The host's steal ticks so far, summed over all CPUs.
steal_ticks() {
    awk '$1 == "cpu" { print $9 + 0; exit }' /proc/stat
}

tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-pair.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent" "$tmp/work"

parent_commit=$(git rev-parse --short=7 "$parent^{commit}")
git archive "$parent_commit" | tar -x -C "$tmp/parent"
commit=$(git rev-parse --short=7 HEAD)
git diff --quiet HEAD || commit+="-dirty"
# Files deleted in the working tree are still listed as cached.
git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' path; do
        if [[ -e "$path" ]]; then printf '%s\0' "$path"; fi
    done |
    tar --null -T - -cf - | tar -x -C "$tmp/work"

for side in parent work; do
    echo "building $side ..." >&2
    CARGO_TARGET_DIR="$tmp/target-$side" cargo build --release --offline --quiet \
        --manifest-path "$tmp/$side/benchmark/Cargo.toml" >&2
done

# One line per sample: "pair side workload metric value".  Also "ok"
# (1 when the run's result object reads correct) and "steal" (ticks).
samples="$tmp/samples"
: > "$samples"
before=$(calibrate)
for ((pair = 1; pair <= pairs; pair++)); do
    for workload in "${workloads[@]}"; do
        for side in parent work; do
            echo "pair $pair/$pairs $workload $side" >&2
            steal=$(steal_ticks)
            out=$(CARGO_TARGET_DIR="$tmp/target-$side" \
                bash "$tmp/$side/benchmark/run.sh" --workload "$workload" \
                --seconds "$seconds" --trace 0)
            steal=$(($(steal_ticks) - steal))
            printf '%s\n' "$out" | awk -v pair="$pair" -v side="$side" -v w="$workload" \
                -v steal="$steal" '
                $1 == w && NF == 4 && $3 ~ /^-?[0-9.]+([eE][-+]?[0-9]+)?$/ {
                    print pair, side, w, $2, $3
                }
                /^\{/ { ok = /"correct": true/ && /"failed": 0,/ }
                END { print pair, side, w, "ok", ok ? 1 : 0; print pair, side, w, "steal", steal }
            ' >> "$samples"
        done
    done
done
after=$(calibrate)

out="BENCH_PR$n.json"
printf '%s\n' "$metrics" > "$tmp/metrics"
awk -v pr="$n" -v parent="$parent_commit" -v commit="$commit" \
    -v pairs="$pairs" -v seconds="$seconds" -v before="$before" -v after="$after" \
    -v workloads="${workloads[*]}" '
    # Insertion sort of a[1..k], ascending.
    function sort(a, k,    i, j, v) {
        for (i = 2; i <= k; i++) {
            v = a[i]
            for (j = i - 1; j >= 1 && a[j] > v; j--) a[j + 1] = a[j]
            a[j + 1] = v
        }
    }
    function median(a, k) {
        return k % 2 ? a[(k + 1) / 2] : (a[k / 2] + a[k / 2 + 1]) / 2
    }
    # Quartile i (1 or 3) by the exclusive method, as stats.rs.
    function quartile(a, k, i,    m, j, delta) {
        if (k < 2) return median(a, k)
        m = k + 1
        j = int(i * m / 4)
        if (j < 1) j = 1
        if (j > k - 1) j = k - 1
        delta = i * m - j * 4
        return (a[j] * (4 - delta) + a[j + 1] * delta) / 4
    }
    # Fills stat[side, m, "median" | "q1" | "q3"] from the samples.
    function summarize(w, side, m,    p, k, a) {
        k = 0
        for (p = 1; p <= pairs; p++) if ((p, side, w, m) in v) a[++k] = v[p, side, w, m]
        sort(a, k)
        stat[side, m, "median"] = median(a, k)
        stat[side, m, "q1"] = quartile(a, k, 1)
        stat[side, m, "q3"] = quartile(a, k, 3)
        stat[side, m, "min"] = a[1]
        stat[side, m, "max"] = a[k]
    }
    function stats(side, m) {
        return sprintf("{\"median\": %.10g, \"q1\": %.10g, \"q3\": %.10g, \"iqr\": %.10g}",
            stat[side, m, "median"], stat[side, m, "q1"], stat[side, m, "q3"],
            stat[side, m, "q3"] - stat[side, m, "q1"])
    }
    function total(w, side, what,    p, s) {
        s = 0
        for (p = 1; p <= pairs; p++) s += v[p, side, w, what]
        return s
    }
    NR == FNR { names[++n_names] = $1; better[$1] = $2; bound[$1] = $3; next }
    { v[$1, $2, $3, $4] = $5 }
    END {
        n_w = split(workloads, ws, " ")
        need = int((9 * pairs + 9) / 10)  # 9 of 10, rounded up
        printf "{\n  \"schema\": 2,\n  \"pr\": %d,\n  \"parent\": \"%s\",\n  \"commit\": \"%s\",\n", pr, parent, commit
        printf "  \"pairs\": %d,\n  \"seconds\": %s,\n", pairs, seconds
        printf "  \"calibration_s\": {\"before\": %.6f, \"after\": %.6f},\n", before / 1e6, after / 1e6
        printf "  \"workloads\": {\n"
        printf "%-14s %-12s %12s %12s %12s %12s %6s %s\n", "workload", "metric", "parent", "p-iqr", "work", "w-iqr", "wins", "flags" > "/dev/stderr"
        for (i = 1; i <= n_w; i++) {
            w = ws[i]
            for (j = 1; j <= n_names; j++) {
                m = names[j]
                summarize(w, "parent", m)
                summarize(w, "work", m)
            }
            printf "    \"%s\": {\n", w
            for (s = 1; s <= 2; s++) {
                side = s == 1 ? "parent" : "work"
                printf "      \"%s\": {", side
                for (j = 1; j <= n_names; j++) printf "\"%s\": %s, ", names[j], stats(side, names[j])
                printf "\"correct_runs\": %d, \"steal_ticks\": %d},\n", total(w, side, "ok"), total(w, side, "steal")
            }
            printf "      \"pairs\": {\n"
            for (j = 1; j <= n_names; j++) {
                m = names[j]
                lower = better[m] == "lower"
                wins = 0
                deltas = ""
                for (p = 1; p <= pairs; p++) {
                    a = v[p, "parent", w, m]; b = v[p, "work", w, m]
                    d = a == 0 ? 0 : (b - a) / a
                    deltas = deltas (p > 1 ? ", " : "") sprintf("%.4f", d)
                    if (lower ? b < a : b > a) wins++
                }
                pm = stat["parent", m, "median"]; wm = stat["work", m, "median"]
                gain = lower ? pm - wm : wm - pm
                iqr = stat["parent", m, "q3"] - stat["parent", m, "q1"]
                claimable = wins >= need && gain > iqr
                over = lower ? wm > pm * (1 + bound[m]) : wm < pm * (1 - bound[m])
                # Every work run beats every parent run.
                apart = lower ? stat["work", m, "max"] < stat["parent", m, "min"] \
                    : stat["work", m, "min"] > stat["parent", m, "max"]
                unresolved = iqr > bound[m] * (pm < 0 ? -pm : pm) && !apart
                printf "        \"%s\": {\"deltas\": [%s], \"wins\": %d, \"claimable\": %s, \"over_bound\": %s, \"unresolved\": %s}%s\n",
                    m, deltas, wins, claimable ? "true" : "false", over ? "true" : "false",
                    unresolved ? "true" : "false", j < n_names ? "," : ""
                printf "%-14s %-12s %12.6g %12.6g %12.6g %12.6g %3d/%-2d %s%s%s\n", w, m, pm, iqr, wm,
                    stat["work", m, "q3"] - stat["work", m, "q1"], wins, pairs,
                    claimable ? "claimable " : "", over ? "OVER-BOUND " : "",
                    unresolved ? "UNRESOLVED" : "" > "/dev/stderr"
            }
            printf "      }\n    }%s\n", i < n_w ? "," : ""
        }
        printf "  }\n}\n"
    }' "$tmp/metrics" "$samples" > "$out"

failed=$(awk '$4 == "ok" && $5 == 0' "$samples" | wc -l)
echo "wrote $out ($parent_commit -> $commit, $pairs pairs, calibration $((before / 1000)) / $((after / 1000)) ms, $failed failed runs)" >&2
[[ $failed -eq 0 ]]
