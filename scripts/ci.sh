#!/usr/bin/env bash
# CI driver: format, build, test, lint — all offline (the workspace
# vendors every external crate under vendor/).
#
# The release test tiers are DATA, not steps: one declarative table
# (name|package|test target|budget|extra test args|repro-hint kind),
# one runner function. `.github/workflows/ci.yml` consumes the same
# table via `scripts/ci.sh --tier <name>` / `--release-tiers`, so a
# tier added here is automatically a tier added in CI.
#
# Modes:
#   (no args)        full tier-1 gate: fmt, debug build+test, release
#                    build, every release tier, benchmark tests, clippy,
#                    rustdoc
#   --lint           fmt --check + clippy -D warnings (workspace and the
#                    benchmark package) + rustdoc -D warnings (first-party
#                    packages: broken intra-doc links fail)
#   --debug          debug build + debug test suite (600 s hard kill)
#   --release-tiers  every release tier from the table, in order
#   --bench-tests    the measured benchmark package's own unit tests
#   --tier NAME      one release tier (self-sufficient: builds its own
#                    test binaries if missing, so a single invocation
#                    works on a clean checkout)
#   --list-tiers     print the tier table
set -euo pipefail
cd "$(dirname "$0")/.."

# First-party packages only: the vendored stand-ins under vendor/ are
# workspace members but keep their upstream formatting, so fmt (and any
# other "our code" gate) must name packages instead of using --all.
MF_PACKAGES=(
    mille-feuille mf-baselines mf-bench mf-collection mf-gpu
    mf-kernels mf-precision mf-serve mf-solver mf-sparse mf-trace
)

# The measured benchmark (`mfbench`, run by BENCHMARK.json) is its own
# package with its own lockfile, not a workspace member, so the
# workspace-wide gates never see it: an mf-solver API change that breaks
# it would pass. Every gate below that covers the workspace also covers
# this manifest.
MFBENCH_MANIFEST=crates/bench/src/bin/mfbench/Cargo.toml

# ---- The release tier table -------------------------------------------
# Field layout: name|package|test target|budget seconds|extra args|repro
#   name         tier id (used by --tier and as the log/file name)
#   package      cargo -p argument
#   test target  cargo --test argument; empty = the package's whole suite
#   budget       hard-kill budget for test *execution* (not compilation)
#   extra args   appended after `--` (e.g. --include-ignored)
#   repro        how to replay a failure:
#                  faultplan    assertion embeds a compilable
#                               FaultPlan::seeded(..) builder line
#                  ticketfaults assertion embeds a compilable
#                               TicketFaults::seeded(..) builder line
#                  rerun        fixtures/generators are seed-deterministic
#                               (test-name seeded); a plain rerun replays
#
# The hard `timeout --signal=KILL` wrappers are load-bearing: the
# threaded engines are hang-proof by design (poison flag + watchdog), so
# a wedged test run is itself the regression — kill it fast instead of
# letting CI sit forever.
TIERS=(
    "threaded_parity|mille-feuille|threaded_parity|420||rerun"
    "pipelined_parity|mille-feuille|pipelined_parity|420||rerun"
    "fault_injection|mille-feuille|fault_injection|300|--include-ignored|faultplan"
    "prop_heartbeat|mf-solver|prop_heartbeat|300||rerun"
    "serve|mf-serve||300||rerun"
    "adaptive_parity|mille-feuille|adaptive_parity|300||faultplan"
    "ticketed_parity|mille-feuille|ticketed_parity|300||ticketfaults"
    "prop_ticket|mf-gpu|prop_ticket|300||rerun"
    "prop_retier|mf-precision|prop_retier|300||rerun"
    "prop_trsv|mf-kernels|prop_trsv|300||rerun"
    "prop_sptrsv|mf-solver|prop_sptrsv|300||rerun"
    "prop_spmv|mf-kernels|prop_spmv|300||rerun"
    "preprocess_parity|mf-solver|preprocess_parity|300||rerun"
    "core_golden|mf-solver|core_golden|300||rerun"
    "sequential_trails|mf-solver|sequential_trails|300||rerun"
    "baseline_golden|mf-baselines|baseline_golden|300||rerun"
)

list_tiers() {
    printf '%-18s %-14s %-18s %7s  %-18s %s\n' \
        NAME PACKAGE TARGET BUDGET "EXTRA ARGS" REPRO
    local row
    for row in "${TIERS[@]}"; do
        IFS='|' read -r name pkg target budget extra repro <<<"$row"
        printf '%-18s %-14s %-18s %6ss  %-18s %s\n' \
            "$name" "$pkg" "${target:-(package)}" "$budget" "${extra:--}" "$repro"
    done
}

# Echoes the tier's seeded-repro hint to stderr and, under GitHub
# Actions, to the job summary — uniformly for every tier, driven by the
# table's repro-hint kind.
emit_repro_hint() {
    local name="$1" pkg="$2" target="$3" repro="$4" log="$5"
    local pattern="" lines=""
    case "$repro" in
        faultplan) pattern='FaultPlan::seeded' ;;
        ticketfaults) pattern='TicketFaults::seeded' ;;
    esac
    if [[ -n "$pattern" && -f "$log" ]]; then
        lines="$(grep -h "$pattern" "$log" || true)"
    fi
    {
        echo "$name tier failed."
        if [[ -n "$pattern" ]]; then
            echo "Every perturbation is seed-deterministic: replay it with the compilable ${pattern}(..) builder line from the assertion:"
            echo "${lines:-(no ${pattern} line captured — the failure is in a clean grid; rerun the named test)}"
        else
            echo "Fixtures and generator streams are seed-deterministic (test-name seeded): rerun the named test to replay:"
        fi
        echo "  cargo test --release --locked --offline -p $pkg ${target:+--test $target}"
    } >&2
    if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
        {
            echo "## $name tier failed"
            echo
            if [[ -n "$pattern" ]]; then
                echo "Replay the exact perturbation with the \`${pattern}(..)\` builder line:"
                echo
                echo '```'
                echo "${lines:-(no ${pattern} line captured — the failure is in a clean grid; rerun the named test)}"
                echo '```'
            else
                echo 'Seed-deterministic (test-name seeded): a plain rerun replays the failure.'
            fi
            echo
            echo '```'
            echo "cargo test --release --locked --offline -p $pkg ${target:+--test $target}"
            echo '```'
        } >> "$GITHUB_STEP_SUMMARY"
    fi
}

run_tier() {
    local want="$1" row found=0
    for row in "${TIERS[@]}"; do
        IFS='|' read -r name pkg target budget extra repro <<<"$row"
        [[ "$name" == "$want" ]] || continue
        found=1
        local target_args=()
        [[ -n "$target" ]] && target_args=(--test "$target")
        local extra_args=()
        [[ -n "$extra" ]] && extra_args=(-- $extra)
        # Self-sufficient: compile the tier's test binaries *outside* the
        # execution budget, so a single `--tier` invocation works on a
        # clean checkout and a slow cold build can't eat the hang budget.
        cargo test --no-run --release --locked --offline -p "$pkg" "${target_args[@]}"
        local log="${name}.log"
        echo "== tier $name: -p $pkg ${target_args[*]:-} (${budget}s hard kill)"
        set -o pipefail
        if ! timeout --signal=KILL "$budget" \
            cargo test -q --locked --offline --release -p "$pkg" \
            "${target_args[@]}" "${extra_args[@]}" 2>&1 | tee "$log"; then
            emit_repro_hint "$name" "$pkg" "$target" "$repro" "$log"
            return 1
        fi
        return 0
    done
    if (( ! found )); then
        echo "unknown tier '$want' — available tiers:" >&2
        list_tiers >&2
        return 2
    fi
}

run_fmt() {
    local fmt_args=()
    local p
    for p in "${MF_PACKAGES[@]}"; do fmt_args+=(-p "$p"); done
    cargo fmt "${fmt_args[@]}" --check
    cargo fmt --manifest-path "$MFBENCH_MANIFEST" --check
}

run_clippy() {
    cargo clippy --all-targets --workspace --locked --offline -- -D warnings
    cargo clippy --all-targets --locked --offline --manifest-path "$MFBENCH_MANIFEST" \
        -- -D warnings
}

# Broken or private intra-doc links are warnings to rustdoc; deny them so
# renaming or deleting a linked item fails the gate instead of leaving a
# dead link in the rendered docs.
run_doc() {
    local doc_args=()
    local p
    for p in "${MF_PACKAGES[@]}"; do doc_args+=(-p "$p"); done
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --locked "${doc_args[@]}"
}

run_lint() {
    run_fmt
    run_clippy
    run_doc
}

run_bench_tests() {
    cargo test --release --locked --offline --manifest-path "$MFBENCH_MANIFEST"
}

run_debug() {
    # Build everything (test binaries included) *before* the test timeout
    # starts, so the hard kill bounds test *execution* only.
    cargo build --locked --offline --workspace --all-targets
    timeout --signal=KILL 600 cargo test -q --locked --offline --workspace
}

run_release_tiers() {
    # One release build (test binaries included) serves every tier; each
    # tier's own build-if-missing step is then a no-op.
    cargo build --release --locked --offline --workspace --all-targets
    local row
    for row in "${TIERS[@]}"; do
        run_tier "${row%%|*}"
    done
}

case "${1:-}" in
    --list-tiers)
        list_tiers
        ;;
    --tier)
        [[ $# -ge 2 ]] || { echo "usage: $0 --tier NAME" >&2; exit 2; }
        run_tier "$2"
        ;;
    --lint)
        run_lint
        ;;
    --debug)
        run_debug
        ;;
    --release-tiers)
        run_release_tiers
        ;;
    --bench-tests)
        run_bench_tests
        ;;
    "")
        # Full tier-1 gate, in the historical order: fmt, debug tier,
        # release tiers, benchmark tests, clippy and rustdoc last.
        run_fmt
        run_debug
        run_release_tiers
        run_bench_tests
        run_clippy
        run_doc
        ;;
    *)
        echo "usage: $0 [--lint|--debug|--release-tiers|--bench-tests|--tier NAME|--list-tiers]" >&2
        exit 2
        ;;
esac
