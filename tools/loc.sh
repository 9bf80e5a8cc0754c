#!/usr/bin/env bash
# Lines of non-test code per crate, by one rule, so that "net-negative" means
# the same thing in every PR.
#
#   tools/loc.sh [root]
#
# Counts, in every `<root>/crates/<crate>/src/**/*.rs` (root defaults to this
# checkout; for a parent revision:
# `git archive <rev> | tar -x -C <dir> && tools/loc.sh <dir>`), the lines that
# are none of:
#   - blank,
#   - a line comment (`//`, `///`, `//!` first on the line),
#   - inside an item under `#[cfg(test)]` (the attribute, the item's other
#     attributes and doc comments, and the item itself to its closing brace
#     or semicolon — normally `mod tests { .. }`).
# Files under `tests/`, `benches/` and `examples/` are not code by this rule
# and are not read. Braces are counted after dropping string and char
# literals on the line; block comments and out-of-line test modules
# (`#[cfg(test)] mod x;`, file elsewhere) are not recognised — the workspace
# has neither.
#
# Prints `crate  files  lines` per crate and a total; reformatting, dropped
# comments and code moved into tests change none of the numbers.
set -euo pipefail

root=${1:-$(git -C "$(dirname "$0")" rev-parse --show-toplevel)}

count() {
    awk '
        function braces(line,    opens, closes) {
            gsub(/"([^"\\]|\\.)*"/, "", line)
            gsub(/\047[{}]\047/, "", line)
            opens = gsub(/\{/, "", line)
            closes = gsub(/\}/, "", line)
            return opens - closes
        }
        FNR == 1 { skipping = 0 }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        /^[[:space:]]*#\[cfg\(test\)\]/ { skipping = 1; depth = 0; opened = 0; next }
        skipping {
            if (!opened && $0 ~ /^[[:space:]]*#\[/) next
            if ($0 ~ /\{/) opened = 1
            depth += braces($0)
            if ((opened && depth <= 0) || (!opened && $0 ~ /;[[:space:]]*$/)) skipping = 0
            next
        }
        { n++ }
        END { print n + 0 }
    ' "$@"
}

total=0
printf '%-12s %6s %8s\n' crate files lines
for dir in "$root"/crates/*/; do
    mapfile -t files < <(find "$dir/src" -name '*.rs' | sort)
    [ ${#files[@]} -gt 0 ] || continue
    lines=$(count "${files[@]}")
    printf '%-12s %6d %8d\n' "$(basename "$dir")" ${#files[@]} "$lines"
    total=$((total + lines))
done
printf '%-12s %6s %8d\n' total '' "$total"
