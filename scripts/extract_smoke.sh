#!/usr/bin/env bash
# Refinement smoke test against the real CLI.
#
# Refinement has one path: the allocation-free kernels with the
# score-bound early abandon (its oracle equivalence is proven by
# crates/thor-core/tests/refine_kernels.rs). This script checks, at the
# CLI surface:
#   1. `thor enrich` writes byte-identical enriched CSV and entities TSV
#      at thread counts 1 and 4;
#   2. serving from a frozen engine artifact (`--engine`) writes the
#      same bytes as the direct `--table` run;
#   3. `--metrics` surfaces the refine.scored / refine.pruned counters,
#      and the abandon actually prunes on this workload;
#   4. a stray `--refine` is rejected as an unknown option, by name.
#
# Usage: scripts/extract_smoke.sh  (run from anywhere; builds if needed)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
THOR="$ROOT/target/release/thor"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/thor-extract.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

if [[ ! -x "$THOR" ]]; then
    cargo build --release --manifest-path "$ROOT/Cargo.toml"
fi

DATA="$WORK/data"
"$THOR" generate --dataset disease --scale 0.08 --seed 7 --out "$DATA" 2>/dev/null
DOCS=("$DATA"/docs/validation/*.txt)
TABLE="$DATA/enrichment_table.csv"
VECS="$DATA/vectors.txt"
echo "extract smoke: ${#DOCS[@]} documents"

echo "-- threads 1 and 4: byte-identical output"
for threads in 1 4; do
    "$THOR" enrich --table "$TABLE" --vectors "$VECS" --tau 0.7 --threads "$threads" \
        --out "$WORK/t$threads.csv" --entities "$WORK/t$threads.tsv" "${DOCS[@]}" 2>/dev/null
done
cmp "$WORK/t1.csv" "$WORK/t4.csv" || fail "enriched CSV differs between threads 1 and 4"
cmp "$WORK/t1.tsv" "$WORK/t4.tsv" || fail "entities differ between threads 1 and 4"
echo "   identical output at threads 1 and 4"

echo "-- --engine serves the same bytes as --table"
ENGINE="$WORK/disease.thorengine"
"$THOR" build --table "$TABLE" --vectors "$VECS" --tau 0.7 \
    --engine "$ENGINE" 2>/dev/null
"$THOR" enrich --engine "$ENGINE" \
    --out "$WORK/served.csv" --entities "$WORK/served.tsv" "${DOCS[@]}" 2>/dev/null
cmp "$WORK/t1.csv" "$WORK/served.csv" || fail "engine-served CSV differs from --table"
cmp "$WORK/t1.tsv" "$WORK/served.tsv" || fail "engine-served entities differ from --table"
echo "   engine serving identical"

echo "-- metrics surface the prune accounting"
"$THOR" enrich --table "$TABLE" --vectors "$VECS" --tau 0.7 --metrics \
    --out "$WORK/metered.csv" "${DOCS[@]}" 2>"$WORK/metrics.log"
grep -q "refine.scored" "$WORK/metrics.log" || fail "refine.scored counter missing"
grep -q "refine.pruned" "$WORK/metrics.log" || fail "refine.pruned counter missing"
PRUNED=$(awk '$1 == "refine.pruned" { print $3 }' "$WORK/metrics.log")
[[ "$PRUNED" =~ ^[0-9]+$ ]] || fail "refine.pruned is not a count: $PRUNED"
[[ "$PRUNED" -gt 0 ]] || fail "early abandon pruned nothing on the smoke workload"
echo "   refine.pruned = $PRUNED"

echo "-- a stray --refine is rejected by name"
set +e
"$THOR" enrich --table "$TABLE" --vectors "$VECS" --refine reference \
    --out "$WORK/x.csv" "${DOCS[@]}" 2>"$WORK/refine.log"
status=$?
set -e
[[ $status -ne 0 ]] || fail "enrich accepted --refine"
grep -q 'unknown option `--refine`' "$WORK/refine.log" \
    || fail "--refine error is not named: $(cat "$WORK/refine.log")"
echo "   rejected as an unknown option"

echo "extract smoke: OK"
