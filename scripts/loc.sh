#!/usr/bin/env bash
# Non-test lines of Rust per crate and in total, the way ROADMAP counts them:
# every `.rs` file under `crates/*/src` and the umbrella crate's `src/`,
# counted up to (not including) its first line that starts with
# `#[cfg(test)]`. Integration tests, examples, vendor shims and the
# separate `benchmark/` package are not counted.
#
#   scripts/loc.sh
#
# Run from anywhere; paths are resolved against the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$@" -name '*.rs' -print0 | sort -z |
        xargs -0 -r awk '
            FNR == 1 { skip = 0 }
            /^#\[cfg\(test\)\]/ { skip = 1 }
            !skip { n++ }
            END { print n + 0 }' |
        awk '{ s += $1 } END { print s + 0 }'
}

total=0
for dir in crates/*/src src; do
    [ -d "$dir" ] || continue
    n=$(count "$dir")
    name=${dir%/src}
    [ "$dir" = src ] && name=swift
    printf '%-20s %6d\n' "${name#crates/}" "$n"
    total=$((total + n))
done
printf '%-20s %6d\n' total "$total"
