#!/usr/bin/env bash
# Builds the benchmark in release mode, offline, and runs it.
#
#   benchmark/run.sh                      every workload: untraced pass, then traced pass
#   benchmark/run.sh --workload NAME      one workload, both passes
#   benchmark/run.sh --traced-only        only the traced (per-layer) passes
#   benchmark/run.sh --selfcheck          everything twice, compared against the bounds
#   benchmark/run.sh --list               workload and metric names
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                         one pass; the last line is the result object
#
# --seed defaults to 2011 and --seconds to 12.  Exits non-zero when the
# build fails or, outside the one-pass form, when a correctness check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR means "relative to where the caller stands",
# which is also how cargo reads it: no cd before the build.
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/smr-benchmark" "$@"
