#!/usr/bin/env bash
# Lines of Rust per crate (`crates/<c>/src`) plus the facade (`src/`) and
# the total — the table every simplicity PR reports before → after.
# Tests under `tests/` directories, benches and examples are not counted.
set -euo pipefail
cd "$(dirname "$0")/.."

count() { find "$1" -name '*.rs' -print0 | xargs -0 cat | wc -l; }

total=0
for dir in crates/*/src src; do
    name=${dir#crates/}
    lines=$(count "$dir")
    total=$((total + lines))
    printf '%-12s %6d\n' "${name%/src}" "$lines"
done
printf '%-12s %6d\n' total "$total"
