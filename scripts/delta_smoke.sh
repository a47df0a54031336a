#!/usr/bin/env bash
# Incremental-engine smoke test against the real CLI.
#
# Exercises the delta-artifact chain end to end:
#   1. build a base engine; stack two seed deltas on it with `thor
#      delta`, the second one cut from both a mapped and an owned load
#      of the first (byte-identical delta files); enriching from the
#      chain — mapped and owned — is byte-identical to a fresh `thor
#      build` of the evolved table;
#   2. `thor inspect` recognizes the chain: depth 2, the base build's
#      fingerprint, every checksum verified; a byte flipped in d1's
#      idx.data (shadowed by d2's) fails a mapped load of the chain by
#      file and section name;
#   3. a running `thor serve` hot-swaps the chain on SIGHUP, reports
#      its depth in /healthz, and serves the fresh build's exact bytes;
#   4. `thor compact` folds the chain into the very bytes the fresh
#      build saved; swapping to the folded artifact changes nothing.
#
# Usage: scripts/delta_smoke.sh  (run from anywhere; builds if needed)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
THOR="$ROOT/target/release/thor"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/thor-delta.XXXXXX")"
SERVE_PID=""
cleanup() {
    [[ -n "$SERVE_PID" ]] && kill -9 "$SERVE_PID" 2>/dev/null
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
DOCS=("$DATA"/docs/validation/*.txt)
TABLE="$DATA/enrichment_table.csv"
VECTORS="$DATA/vectors.txt"
echo "delta smoke: ${#DOCS[@]} documents"

BASE_FP="$("$THOR" build --table "$TABLE" --vectors "$VECTORS" \
    --engine "$WORK/base.eng" 2>&1 | sed -n 's/.*fingerprint \([^ ]*\)$/\1/p')"
[[ -n "$BASE_FP" ]] || fail "base build did not report a fingerprint"

# Two seed deltas: a new subject row each, filling the first non-subject
# column with a word that exists in the vector vocabulary.
SUBJECT_COL="$(head -1 "$TABLE" | cut -d, -f1)"
VALUE_COL="$(head -1 "$TABLE" | cut -d, -f2)"
ARITY="$(head -1 "$TABLE" | awk -F, '{print NF}')"
W1="$(awk 'NR==2{print $1}' "$VECTORS")"
W2="$(awk 'NR==3{print $1}' "$VECTORS")"
printf '%s,%s\nZeta Fever,%s\n' "$SUBJECT_COL" "$VALUE_COL" "$W1" >"$WORK/rows1.csv"
printf '%s,%s\nOmega Pox,%s\n' "$SUBJECT_COL" "$VALUE_COL" "$W2" >"$WORK/rows2.csv"

"$THOR" delta --engine "$WORK/base.eng" --add-seeds "$WORK/rows1.csv" \
    --out "$WORK/d1.eng" --note "smoke delta 1" 2>/dev/null
# A loaded engine computes its seed words' argmax on its first delta:
# cut d2 from a mapped and from an owned load of d1; the files must agree.
"$THOR" delta --engine "$WORK/d1.eng" --engine-mmap on --add-seeds "$WORK/rows2.csv" \
    --out "$WORK/d2.eng" --note "smoke delta 2" 2>/dev/null
"$THOR" delta --engine "$WORK/d1.eng" --engine-mmap off --add-seeds "$WORK/rows2.csv" \
    --out "$WORK/d2_owned.eng" --note "smoke delta 2" 2>/dev/null
cmp "$WORK/d2.eng" "$WORK/d2_owned.eng" || fail "mapped and owned loads cut different deltas"

# The same final table, built from scratch: the enrichment table plus
# the two delta rows (empty cells for the remaining concepts).
PAD="$(printf '%*s' $((ARITY - 2)) '' | tr ' ' ',')"
{
    cat "$TABLE"
    printf 'Zeta Fever,%s%s\n' "$W1" "$PAD"
    printf 'Omega Pox,%s%s\n' "$W2" "$PAD"
} >"$WORK/evolved.csv"
"$THOR" build --table "$WORK/evolved.csv" --vectors "$VECTORS" \
    --engine "$WORK/fresh.eng" 2>/dev/null

echo "-- chain enrich output vs fresh build of the evolved table"
"$THOR" enrich --engine "$WORK/fresh.eng" --out "$WORK/direct.csv" "${DOCS[@]}" 2>/dev/null
"$THOR" enrich --engine "$WORK/d2.eng" --out "$WORK/chain_mapped.csv" "${DOCS[@]}" 2>/dev/null
"$THOR" enrich --engine "$WORK/d2.eng" --engine-mmap off \
    --out "$WORK/chain_owned.csv" "${DOCS[@]}" 2>/dev/null
cmp "$WORK/direct.csv" "$WORK/chain_mapped.csv" || fail "mapped chain diverged from fresh build"
cmp "$WORK/direct.csv" "$WORK/chain_owned.csv" || fail "owned chain diverged from fresh build"
echo "   byte-identical (mapped and owned)"

echo "-- inspect recognizes the chain"
"$THOR" inspect --engine "$WORK/d2.eng" >"$WORK/inspect.txt" || fail "inspect rejected the chain"
grep -q "delta chain" "$WORK/inspect.txt" || fail "inspect did not call the artifact a chain"
grep -q "depth 2" "$WORK/inspect.txt" || fail "inspect did not report depth 2"
grep -q "$BASE_FP" "$WORK/inspect.txt" || fail "inspect did not name the base fingerprint"
grep -q "smoke delta 2" "$WORK/inspect.txt" || fail "inspect did not echo the delta note"
grep -q "checksums verified" "$WORK/inspect.txt" || fail "inspect did not verify the chain"
echo "   chain printed and verified"

echo "-- a flipped byte in a shadowed section fails the mapped chain load by name"
# d2 patches idx.data again, so d1's copy is shadowed; a mapped load of
# the chain still checksums it.
OFF="$("$THOR" inspect --engine "$WORK/d1.eng" \
    | awk '/^\[delta 1\]/{d=1} d && $1=="idx.data"{print $2; exit}')"
[[ -n "$OFF" ]] || fail "inspect listed no idx.data section in d1.eng"
"$THOR" inspect --engine "$WORK/d2.eng" | awk '/^\[delta 2\]/{d=1} d && $1=="idx.data"{f=1} END{exit !f}' \
    || fail "d2.eng does not shadow d1's idx.data"
cp "$WORK/d1.eng" "$WORK/d1.good"
flip_byte() { # args: file offset
    local byte
    byte="$(dd if="$1" bs=1 skip="$2" count=1 2>/dev/null | od -An -tu1 | tr -d ' ')"
    printf "$(printf '\\%03o' $((byte ^ 0x5a)))" | dd of="$1" bs=1 seek="$2" conv=notrunc 2>/dev/null
}
flip_byte "$WORK/d1.eng" "$OFF"
if "$THOR" enrich --engine "$WORK/d2.eng" --engine-mmap on --out "$WORK/flipped.csv" \
    "${DOCS[@]}" 2>"$WORK/flipped.err"; then
    fail "mapped chain load accepted a flipped idx.data byte in d1.eng"
fi
grep -q "d1.eng" "$WORK/flipped.err" || fail "error does not name d1.eng: $(cat "$WORK/flipped.err")"
grep -q "idx.data" "$WORK/flipped.err" || fail "error does not name idx.data: $(cat "$WORK/flipped.err")"
flip_byte "$WORK/d1.eng" "$OFF"
cmp "$WORK/d1.eng" "$WORK/d1.good" || fail "the flipped byte was not restored"
echo "   rejected: $(head -1 "$WORK/flipped.err")"

# The documents as a JSON request body (id = file stem, like the CLI).
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

ENGINE="$WORK/serve.eng"
install_engine() { # args: source
    cp "$1" "$ENGINE.tmp"
    mv "$ENGINE.tmp" "$ENGINE"
}
healthz() {
    curl -sS "http://$ADDR/healthz"
}
wait_for_epoch() { # args: want
    for _ in $(seq 1 100); do
        [[ "$(healthz | grep -o '"epoch":[0-9]*' | cut -d: -f2)" == "$1" ]] && return 0
        sleep 0.1
    done
    fail "server never reached epoch $1 (log: $(tail -3 "$WORK/serve.log"))"
}

echo "-- SIGHUP hot-swap of the chain into a running serve"
install_engine "$WORK/base.eng"
: >"$WORK/addr"
"$THOR" serve --engine "$ENGINE" --addr 127.0.0.1:0 --addr-file "$WORK/addr" \
    2>"$WORK/serve.log" &
SERVE_PID=$!
for _ in $(seq 1 100); do
    ADDR="$(cat "$WORK/addr" 2>/dev/null || true)"
    [[ -n "$ADDR" ]] && break
    kill -0 "$SERVE_PID" 2>/dev/null || fail "serve died on startup: $(cat "$WORK/serve.log")"
    sleep 0.1
done
[[ -n "$ADDR" ]] || fail "serve never wrote its bound address"
healthz | grep -q '"chain_depth":0' || fail "base generation should report chain_depth 0"

install_engine "$WORK/d2.eng"
kill -HUP "$SERVE_PID"
wait_for_epoch 2
healthz | grep -q '"chain_depth":2' || fail "swapped chain should report chain_depth 2"
curl -sS -o "$WORK/served_chain.csv" --data-binary @"$BODY" "http://$ADDR/enrich" \
    || fail "POST /enrich on the chain failed"
cmp "$WORK/direct.csv" "$WORK/served_chain.csv" || fail "served chain diverged from fresh build"
echo "   chain swapped in, depth 2 in /healthz, byte-identical"

echo "-- compact folds the chain into the fresh build's bytes"
"$THOR" compact --engine "$WORK/d2.eng" --out "$WORK/folded.eng" 2>/dev/null \
    || fail "thor compact failed"
cmp "$WORK/folded.eng" "$WORK/fresh.eng" \
    || fail "compacted artifact is not byte-identical to the fresh build"
install_engine "$WORK/folded.eng"
kill -HUP "$SERVE_PID"
wait_for_epoch 3
healthz | grep -q '"chain_depth":0' || fail "folded artifact should report chain_depth 0"
curl -sS -o "$WORK/served_folded.csv" --data-binary @"$BODY" "http://$ADDR/enrich" \
    || fail "POST /enrich on the folded artifact failed"
cmp "$WORK/direct.csv" "$WORK/served_folded.csv" || fail "folded artifact served foreign bytes"
echo "   folded byte-identical, depth back to 0"

kill -TERM "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || fail "drain after delta smoke failed"
SERVE_PID=""

echo "delta smoke: OK"
