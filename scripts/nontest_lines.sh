#!/bin/sh
# Print the workspace's non-test line count: every line of the Rust
# sources under crates/*/src and src, each file counted up to its first
# `#[cfg(test)]` (at any indentation, so a test-only branch inside a
# function ends that file's count too). Comments and blank lines count.
#
# Usage: scripts/nontest_lines.sh        (from anywhere in the repository)
set -eu
cd "$(dirname "$0")/.."
find crates/*/src src -name '*.rs' | LC_ALL=C sort | xargs awk '
    FNR == 1 { counting = 1 }
    /#\[cfg\(test\)\]/ { counting = 0 }
    counting { n++ }
    END { print n + 0 }
'
