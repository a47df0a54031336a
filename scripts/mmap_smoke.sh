#!/usr/bin/env bash
# Zero-copy artifact smoke test against the real CLI.
#
# Exercises the v4 sectioned engine artifact end to end:
#   1. `thor inspect --engine` prints the section directory and verifies
#      every section checksum on a fresh artifact;
#   2. mapped serving (`--engine-mmap on`, the default) is byte-identical
#      to owned serving (`--engine-mmap off`) on the same documents;
#   3. streaming ingestion over a corpus directory (`--stream --chunk`)
#      is byte-identical to the all-in-memory batch run, also with four
#      workers, whose per-document entity batches arrive out of order;
#   4. two `thor serve` processes mmap the same artifact concurrently and
#      both answer byte-identically to the batch CLI;
#   5. a corrupted section is rejected by name by both `thor inspect`
#      (non-zero exit) and `thor enrich --engine`, never served.
#
# Usage: scripts/mmap_smoke.sh  (run from anywhere; builds if needed)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
THOR="$ROOT/target/release/thor"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/thor-mmap.XXXXXX")"
SERVE_PIDS=()
cleanup() {
    for pid in "${SERVE_PIDS[@]}"; do
        kill -9 "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

if [[ ! -x "$THOR" ]]; then
    cargo build --release --manifest-path "$ROOT/Cargo.toml"
fi

DATA="$WORK/data"
"$THOR" generate --dataset disease --scale 0.08 --seed 7 --out "$DATA" 2>/dev/null
CORPUS="$DATA/docs/validation"
DOCS=("$CORPUS"/*.txt)
ENGINE="$WORK/disease.thorengine"
"$THOR" build --table "$DATA/enrichment_table.csv" --vectors "$DATA/vectors.txt" \
    --tau 0.7 --engine "$ENGINE" 2>/dev/null
echo "mmap smoke: ${#DOCS[@]} documents"

echo "-- inspect the fresh artifact"
"$THOR" inspect --engine "$ENGINE" >"$WORK/inspect.log" \
    || fail "thor inspect rejected a fresh artifact: $(cat "$WORK/inspect.log")"
grep -q "THORENG v4" "$WORK/inspect.log" || fail "inspect did not name the format"
grep -q "^meta " "$WORK/inspect.log" || fail "inspect directory is missing the meta section"
if grep -q "^automaton " "$WORK/inspect.log"; then
    fail "a v4 artifact still carries the dictionary Baseline's automaton section"
fi
grep -q "section checksums verified" "$WORK/inspect.log" \
    || fail "inspect did not verify section checksums"
echo "   directory printed, all checksums verified"

echo "-- mapped vs owned enrich: byte-identical"
"$THOR" enrich --engine "$ENGINE" --engine-mmap off \
    --out "$WORK/owned.csv" --entities "$WORK/owned.tsv" "${DOCS[@]}" 2>/dev/null
"$THOR" enrich --engine "$ENGINE" --engine-mmap on \
    --out "$WORK/mapped.csv" --entities "$WORK/mapped.tsv" "${DOCS[@]}" 2>/dev/null
cmp "$WORK/owned.csv" "$WORK/mapped.csv" || fail "mapped CSV differs from owned"
cmp "$WORK/owned.tsv" "$WORK/mapped.tsv" || fail "mapped entities differ from owned"
echo "   identical output owned vs mapped"

echo "-- streaming corpus-directory ingestion: byte-identical to batch"
"$THOR" enrich --engine "$ENGINE" --stream --chunk 3 \
    --out "$WORK/stream.csv" --entities "$WORK/stream.tsv" "$CORPUS" 2>/dev/null
cmp "$WORK/owned.csv" "$WORK/stream.csv" || fail "streaming CSV differs from batch"
cmp "$WORK/owned.tsv" "$WORK/stream.tsv" || fail "streaming entities differ from batch"
"$THOR" enrich --engine "$ENGINE" --stream --chunk 3 --threads 4 \
    --out "$WORK/stream4.csv" --entities "$WORK/stream4.tsv" "$CORPUS" 2>/dev/null
cmp "$WORK/owned.csv" "$WORK/stream4.csv" || fail "4-thread streaming CSV differs from batch"
cmp "$WORK/owned.tsv" "$WORK/stream4.tsv" || fail "4-thread streaming entities differ from batch"
echo "   identical output streamed in chunks of 3, on 1 and 4 threads"

echo "-- two concurrent serve processes share one artifact"
json_escape_file() {
    awk 'BEGIN{ORS=""} {gsub(/\\/,"\\\\"); gsub(/"/,"\\\""); gsub(/\t/,"\\t"); gsub(/\r/,"\\r");
         if (NR>1) printf "\\n"; printf "%s", $0}' "$1"
}
BODY="$WORK/batch.json"
{
    printf '{"documents":['
    sep=""
    for doc in "${DOCS[@]}"; do
        stem="$(basename "$doc" .txt)"
        printf '%s{"id":"%s","text":"' "$sep" "$stem"
        json_escape_file "$doc"
        printf '"}'
        sep=","
    done
    printf ']}'
} >"$BODY"
ADDRS=()
for i in 1 2; do
    : >"$WORK/addr$i"
    "$THOR" serve --engine "$ENGINE" --addr 127.0.0.1:0 --addr-file "$WORK/addr$i" \
        2>"$WORK/serve$i.log" &
    SERVE_PIDS+=($!)
done
for i in 1 2; do
    addr=""
    for _ in $(seq 1 100); do
        addr="$(cat "$WORK/addr$i" 2>/dev/null || true)"
        [[ -n "$addr" ]] && break
        kill -0 "${SERVE_PIDS[$((i - 1))]}" 2>/dev/null \
            || fail "serve $i died on startup: $(cat "$WORK/serve$i.log")"
        sleep 0.1
    done
    [[ -n "$addr" ]] || fail "serve $i never wrote its bound address"
    ADDRS+=("$addr")
done
for i in 1 2; do
    curl -sS -o "$WORK/served$i.csv" --data-binary @"$BODY" \
        "http://${ADDRS[$((i - 1))]}/enrich" || fail "POST /enrich to serve $i failed"
    cmp "$WORK/owned.csv" "$WORK/served$i.csv" \
        || fail "serve $i CSV differs from batch CLI"
done
for pid in "${SERVE_PIDS[@]}"; do
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
done
SERVE_PIDS=()
echo "   both processes served the batch-CLI bytes"

echo "-- corrupted section is rejected by name"
cp "$ENGINE" "$WORK/corrupt.thorengine"
# Offset 100 lands inside `meta`, the first (eagerly verified) section.
printf '\xff' | dd of="$WORK/corrupt.thorengine" bs=1 seek=100 conv=notrunc 2>/dev/null
set +e
"$THOR" inspect --engine "$WORK/corrupt.thorengine" >"$WORK/badinspect.log" 2>&1
status=$?
set -e
[[ $status -ne 0 ]] || fail "inspect passed a corrupted artifact"
grep -q "checksum mismatch" "$WORK/badinspect.log" \
    || fail "inspect corruption error is not named: $(cat "$WORK/badinspect.log")"
set +e
"$THOR" enrich --engine "$WORK/corrupt.thorengine" \
    --out "$WORK/x.csv" --entities "$WORK/x.tsv" "${DOCS[@]}" 2>"$WORK/badenrich.log"
status=$?
set -e
[[ $status -ne 0 ]] || fail "enrich served a corrupted mapped artifact"
grep -Eq "checksum|truncated|artifact" "$WORK/badenrich.log" \
    || fail "enrich corruption error is not named: $(cat "$WORK/badenrich.log")"
[[ ! -f "$WORK/x.csv" ]] || fail "corrupted run still wrote output"
echo "   inspect and enrich both reject the flipped byte"

echo "mmap smoke: OK"
