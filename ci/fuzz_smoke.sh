#!/usr/bin/env bash
# Fuzz smoke: a short, budgeted fuzzing pass over the four harnesses
# (SPARQL parser, N-Triples reader, service canonicalizer, graph snapshot
# loader). Under Clang
# each target fuzzes coverage-guided from its seed corpus for an equal
# slice of RDFOPT_FUZZ_SECONDS (default 60 total); under other compilers
# the harnesses replay the corpus once, which still exercises every seed
# through the full harness postconditions (and any checked-in crash
# reproducers).
#
# Usage: ci/fuzz_smoke.sh [build_dir]   (default: build-fuzz)
set -euo pipefail

BUILD_DIR="${1:-build-fuzz}"
TOTAL_SECONDS="${RDFOPT_FUZZ_SECONDS:-60}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"

# target:corpus pairs; the canonicalizer consumes SPARQL text, so it shares
# the parser corpus.
TARGETS=(
  "sparql_parser_fuzz:$REPO_ROOT/fuzz/corpus/sparql"
  "ntriples_fuzz:$REPO_ROOT/fuzz/corpus/ntriples"
  "canonical_fuzz:$REPO_ROOT/fuzz/corpus/sparql"
  "snapshot_fuzz:$REPO_ROOT/fuzz/corpus/snapshot"
)

PER_TARGET=$(( TOTAL_SECONDS / ${#TARGETS[@]} ))

for entry in "${TARGETS[@]}"; do
  target="${entry%%:*}"
  corpus="${entry#*:}"
  bin="$BUILD_DIR/fuzz/$target"
  if [[ ! -x "$bin" ]]; then
    echo "fuzz_smoke: $bin not built (configure with -DRDFOPT_FUZZ=ON)" >&2
    exit 1
  fi
  if [[ ! -d "$corpus" ]]; then
    echo "fuzz_smoke: corpus $corpus missing" >&2
    exit 1
  fi
  # A libFuzzer binary understands -help=1; the standalone replay driver
  # takes only file arguments. Probe the build rather than the compiler so
  # the script works with any toolchain mix.
  if "$bin" -help=1 >/dev/null 2>&1; then
    echo "fuzz_smoke: $target — libFuzzer, ${PER_TARGET}s budget"
    scratch="$(mktemp -d)"
    "$bin" -max_total_time="$PER_TARGET" -timeout=10 -print_final_stats=1 \
      "$scratch" "$corpus"
    rm -rf "$scratch"
  else
    echo "fuzz_smoke: $target — replay driver (non-Clang build)"
    "$bin" "$corpus"/*
  fi
done

echo "fuzz_smoke: OK"
