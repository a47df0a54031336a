#!/usr/bin/env bash
# Pruning-section smoke test against the real CLI.
#
# The bound-pruned scan is the only candidate scan; this checks the
# sections it reads end to end:
#   1. `--prune` is an unknown option of `thor enrich`, rejected by
#      name with exit 1 — there is no scan to pick;
#   2. `thor inspect` prints the pruning sections (cluster shape) and
#      verifies their checksums;
#   3. a flipped byte inside a pruning section is rejected by name —
#      at inspect time and at load time — never served;
#   4. an artifact stamped with format version 2 or 3 fails
#      `thor enrich` with exit 1 and the rebuild hint.
#
# Usage: scripts/prune_smoke.sh  (run from anywhere; builds if needed)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
THOR="$ROOT/target/release/thor"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/thor-prune.XXXXXX")"
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
VECTORS="$DATA/vectors.txt"
echo "prune smoke: ${#DOCS[@]} documents"

ENGINE="$WORK/engine.thorengine"
"$THOR" build --table "$TABLE" --vectors "$VECTORS" --engine "$ENGINE" 2>/dev/null

echo "-- --prune is an unknown option"
set +e
"$THOR" enrich --engine "$ENGINE" --prune exact \
    --out "$WORK/prune.csv" "${DOCS[@]}" 2>"$WORK/prune.log"
status=$?
set -e
[[ $status -eq 1 ]] || fail "--prune exact: expected exit 1, got $status"
grep -q "unknown option \`--prune\`" "$WORK/prune.log" \
    || fail "--prune error is unnamed: $(cat "$WORK/prune.log")"
[[ ! -f "$WORK/prune.csv" ]] || fail "a rejected --prune run still wrote output"
echo "   --prune exact rejected by name"

echo "-- inspect prints and verifies the pruning sections"
"$THOR" inspect --engine "$ENGINE" >"$WORK/inspect.txt" || fail "inspect rejected the engine"
grep -q "candidate pruning:" "$WORK/inspect.txt" \
    || fail "inspect did not summarize candidate pruning"
grep -q "prune.centroids" "$WORK/inspect.txt" \
    || fail "inspect did not list the prune.centroids section"
grep -q "checksums verified" "$WORK/inspect.txt" || fail "inspect did not verify checksums"
echo "   sections listed, checksums verified"

echo "-- a corrupted pruning section is rejected by name"
CORRUPT="$WORK/corrupt.thorengine"
cp "$ENGINE" "$CORRUPT"
OFF="$(awk '$1 == "prune.centroids" {print $2}' "$WORK/inspect.txt")"
[[ -n "$OFF" ]] || fail "could not locate the prune.centroids payload offset"
CUR="$(od -An -tu1 -j "$OFF" -N1 "$CORRUPT" | tr -d ' ')"
# shellcheck disable=SC2059
printf "$(printf '\\x%02x' $(((CUR + 1) % 256)))" |
    dd of="$CORRUPT" bs=1 seek="$OFF" conv=notrunc 2>/dev/null
set +e
"$THOR" inspect --engine "$CORRUPT" >"$WORK/corrupt_inspect.txt" 2>&1
status=$?
set -e
[[ $status -ne 0 ]] || fail "inspect accepted a corrupted pruning section"
grep -q "prune.centroids" "$WORK/corrupt_inspect.txt" \
    || fail "inspect did not name the corrupted section: $(tail -1 "$WORK/corrupt_inspect.txt")"
set +e
"$THOR" enrich --engine "$CORRUPT" --out "$WORK/x.csv" "${DOCS[@]}" 2>"$WORK/corrupt.log"
status=$?
set -e
[[ $status -ne 0 ]] || fail "enrich served a corrupted pruning section"
grep -Eq "prune.centroids|checksum" "$WORK/corrupt.log" \
    || fail "load corruption error is unnamed: $(cat "$WORK/corrupt.log")"
[[ ! -f "$WORK/x.csv" ]] || fail "corrupted run still wrote output"
echo "   flipped byte rejected at inspect and at load"

for V in 2 3; do
    echo "-- a format-version-$V artifact is refused with the rebuild hint"
    STALE="$WORK/stale$V.thorengine"
    cp "$ENGINE" "$STALE"
    # The header's container version is the little-endian u32 at bytes 8..12.
    # shellcheck disable=SC2059
    printf "\\x0$V\\x00\\x00\\x00" | dd of="$STALE" bs=1 seek=8 conv=notrunc 2>/dev/null
    set +e
    "$THOR" enrich --engine "$STALE" --out "$WORK/stale$V.csv" "${DOCS[@]}" 2>"$WORK/stale$V.log"
    status=$?
    set -e
    [[ $status -eq 1 ]] || fail "v$V artifact: expected exit 1, got $status: $(cat "$WORK/stale$V.log")"
    grep -q "format version $V" "$WORK/stale$V.log" \
        || fail "v$V artifact error is unnamed: $(cat "$WORK/stale$V.log")"
    grep -q "thor build --engine" "$WORK/stale$V.log" \
        || fail "v$V artifact error lacks the rebuild hint: $(cat "$WORK/stale$V.log")"
    [[ ! -f "$WORK/stale$V.csv" ]] || fail "v$V run still wrote output"
    echo "   v$V refused with exit 1 and the rebuild hint"
done

echo "prune smoke: OK"
