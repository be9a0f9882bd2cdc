#!/usr/bin/env bash
# Non-test line counts of the first-party Rust sources: for every .rs file
# under a first-party package's src/, the lines before its first
# `#[cfg(test)]` attribute (the whole file when it has none), then one
# total per package and a grand total over all of them. This is the
# measure the simplicity entries in CHANGES.md and ROADMAP aim 2 quote.
# It reports only; no gate reads it.
#
# Usage:
#   scripts/loc.sh              every first-party package
#   scripts/loc.sh crates/solver [...]
#                               only the packages in these directories
#
# The packages are the root one (src/), each crates/*/ and the measured
# benchmark crates/bench/src/bin/mfbench/, which is its own package and is
# left out of mf-bench's total. vendor/ is third-party code and is never
# counted.
set -euo pipefail
cd "$(dirname "$0")/.."

MFBENCH=crates/bench/src/bin/mfbench

# Lines before the first line that is a `#[cfg(test)]` attribute.
count() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"
}

# The package name from a directory's Cargo.toml.
package_name() {
    sed -n 's/^name *= *"\(.*\)"/\1/p' "$1/Cargo.toml" | head -n 1
}

if (($# > 0)); then
    dirs=("$@")
else
    dirs=(. crates/*/ "$MFBENCH")
fi

grand=0
for dir in "${dirs[@]}"; do
    dir="${dir%/}"
    if [[ ! -f "$dir/Cargo.toml" || ! -d "$dir/src" ]]; then
        echo "loc.sh: $dir is not a package with a src/ directory" >&2
        exit 2
    fi
    total=0
    while IFS= read -r file; do
        lines=$(count "$file")
        printf '%7d  %s\n' "$lines" "${file#./}"
        total=$((total + lines))
    done < <(find "$dir/src" -path "$MFBENCH" -prune -o -name '*.rs' -print | sort)
    printf '%7d  %s total (%s)\n\n' "$total" "${dir#./}" "$(package_name "$dir")"
    grand=$((grand + total))
done
printf '%7d  all listed packages\n' "$grand"
