#!/usr/bin/env bash
# Non-test Rust line count: every `.rs` file under crates/, src/ and
# examples/, cut at its first line-start `#[cfg(test)]`, skipping any
# tests/ or benches/ directory. Prints one number.
#
# Run: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

find crates src examples -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' -print0 |
    xargs -0 awk 'FNR == 1 { cut = 0 } /^#\[cfg\(test\)\]/ { cut = 1 } !cut { n++ } END { print n }' |
    awk '{ total += $1 } END { print total }'
