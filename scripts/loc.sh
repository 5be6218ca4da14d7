#!/usr/bin/env bash
# Non-test lines of each crate, by one rule: every .rs file under
# crates/*/src counts up to the column-0 `#[cfg(test)]` that opens a `mod`
# (its unit-test module), and counts whole when it has none. Test-only
# items above that module (a `#[cfg(test)]` fn, impl or use) count as
# program lines, so moving them changes the figure only when they move
# into the module.
#
# Usage: scripts/loc.sh           per-crate figures and their sum
#        scripts/loc.sh --files   one line per file as well
set -eu
cd "$(dirname "$0")/.."

lines() {
    awk 'prev == "#[cfg(test)]" && /^(pub(\([a-z]+\))? )?mod / { n = NR - 2; exit }
         { prev = $0; n = NR }
         END { print n + 0 }' "$1"
}

total=0
for dir in crates/*; do
    krate=$(basename "$dir")
    sum=0
    while IFS= read -r f; do
        n=$(lines "$f")
        sum=$((sum + n))
        if [ "${1:-}" = "--files" ]; then
            printf '%7d  %s\n' "$n" "$f"
        fi
    done < <(find "$dir/src" -name '*.rs' | sort)
    printf '%7d  %s\n' "$sum" "$krate"
    total=$((total + sum))
done
printf '%7d  total\n' "$total"
