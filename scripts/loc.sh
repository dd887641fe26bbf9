#!/usr/bin/env bash
# Lines of Rust per crate (`crates/<c>/src`) plus the facade (`src/`) and
# the total — the table every simplicity PR reports before → after.
# Tests under `tests/` directories, benches and examples are not counted.
#
#   scripts/loc.sh                 the working tree
#   scripts/loc.sh --against REV   REV → working tree, per crate, with the
#                                  change (REV's files read by `git show`)
set -euo pipefail
cd "$(dirname "$0")/.."

# Lines of the .rs files under directory $2: in the working tree when $1
# is empty, at revision $1 otherwise.  A directory missing there counts 0.
count() {
    local rev=$1 dir=$2
    if [[ -z "$rev" ]]; then
        [[ -d "$dir" ]] || { echo 0; return; }
        find "$dir" -name '*.rs' -print0 | xargs -0 -r cat | wc -l
    else
        git ls-tree -r --name-only "$rev" -- "$dir" | awk '/\.rs$/' |
            while read -r path; do git show "$rev:$path"; done | wc -l
    fi
}

name() {
    local name=${1#crates/}
    echo "${name%/src}"
}

if [[ "${1:-}" == "--against" ]]; then
    rev=${2:?usage: scripts/loc.sh --against REV}
    git rev-parse --verify --quiet "$rev^{commit}" > /dev/null || {
        echo "loc.sh: unknown revision '$rev'" >&2
        exit 1
    }
    # Every crate on either side, so an added or deleted crate shows.
    dirs=$({
        printf '%s\n' crates/*/src src
        git ls-tree -d --name-only "$rev" crates/ | sed 's|$|/src|'
    } | sort -u)
    before_total=0
    after_total=0
    printf '%-12s %7s %7s %7s\n' crate before after change
    for dir in $dirs; do
        before=$(count "$rev" "$dir")
        after=$(count "" "$dir")
        before_total=$((before_total + before))
        after_total=$((after_total + after))
        printf '%-12s %7d %7d %+7d\n' "$(name "$dir")" "$before" "$after" $((after - before))
    done
    printf '%-12s %7d %7d %+7d\n' total "$before_total" "$after_total" \
        $((after_total - before_total))
    exit 0
fi

total=0
for dir in crates/*/src src; do
    lines=$(count "" "$dir")
    total=$((total + lines))
    printf '%-12s %6d\n' "$(name "$dir")" "$lines"
done
printf '%-12s %6d\n' total "$total"
