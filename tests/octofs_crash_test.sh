#!/bin/sh
# Crash test of the octofs CLI: `kill -9` a `put` of a multi-block file
# at fixed delays and at events inside its closing checkpoint, then check
# that the state directory always recovers:
#   - the next command boots;
#   - a file acked before the crash (A) reads back byte-identical;
#   - the interrupted file (B) is absent, byte-identical, or a prefix of
#     its bytes;
#   - a fresh put/get round-trips.
# Usage: octofs_crash_test.sh path/to/octofs
set -e

OCTOFS="$1"
STATE=$(mktemp -d)
trap 'rm -rf "$STATE"' EXIT
META="$STATE/meta"

fail() { echo "FAIL: $1" >&2; exit 1; }

"$OCTOFS" --state "$STATE" init >/dev/null
"$OCTOFS" --state "$STATE" mkdir /data

# A: small, acked before any crash. B: two 8 MiB blocks' worth.
head -c 65536 /dev/urandom > "$STATE/A"
head -c 9437184 /dev/urandom > "$STATE/B"
"$OCTOFS" --state "$STATE" put "$STATE/A" /data/A

# The in-progress journal segment (edits_inprogress_<txid>).
inprogress() {
  for f in "$META"/edits_inprogress_*; do echo "$f"; done
}

# Names of the checkpoint image files, finished or not.
images() {
  for f in "$META"/fsimage_*; do [ -e "$f" ] && echo "${f##*/}"; done
}

# True while a checkpoint image is still being written.
has_tmp_image() {
  for f in "$META"/*.tmp; do [ -e "$f" ] && return 0; done
  return 1
}

# Checks the invariants after a killed `put` of B to $1.
check_recovered() {
  b="$1"
  "$OCTOFS" --state "$STATE" ls /data >/dev/null || fail "$b: boot failed"
  "$OCTOFS" --state "$STATE" get /data/A "$STATE/out" \
    || fail "$b: get A failed"
  cmp -s "$STATE/A" "$STATE/out" || fail "$b: A changed"
  if "$OCTOFS" --state "$STATE" get "$b" "$STATE/out" 2>"$STATE/err"; then
    n=$(wc -c < "$STATE/out")
    head -c "$n" "$STATE/B" | cmp -s - "$STATE/out" \
      || fail "$b: holds $n bytes that are not a prefix of B"
    "$OCTOFS" --state "$STATE" rm "$b" || fail "$b: rm failed"
  else
    grep -q NotFound "$STATE/err" || fail "$b: get failed: $(cat "$STATE/err")"
  fi
  "$OCTOFS" --state "$STATE" put "$STATE/A" /data/fresh \
    || fail "$b: fresh put failed"
  "$OCTOFS" --state "$STATE" get /data/fresh "$STATE/out" \
    || fail "$b: fresh get failed"
  cmp -s "$STATE/A" "$STATE/out" || fail "$b: fresh round-trip mismatch"
}

# Where did the kill land? The closing checkpoint rolls the in-progress
# segment, then writes fsimage_<txid>.tmp and renames it into place.
classify() {
  seg="$1"
  if [ -e "$seg" ]; then
    echo "before checkpoint"
    return
  fi
  next=$(inprogress)
  if [ -e "$META/fsimage_${next##*_}" ] && ! has_tmp_image; then
    echo "after checkpoint"
  else
    echo "inside checkpoint"
  fi
}

in_checkpoint=0

# Fixed delays, in milliseconds.
for ms in 0 20 50 100 200; do
  b=/data/B_delay_$ms
  seg=$(inprogress)
  "$OCTOFS" --state "$STATE" put "$STATE/B" "$b" &
  pid=$!
  [ "$ms" -gt 0 ] && sleep "$(printf '0.%03d' "$ms")"
  kill -9 "$pid" 2>/dev/null || true
  wait "$pid" || true
  where=$(classify "$seg")
  echo "kill after ${ms} ms: $where"
  [ "$where" = "inside checkpoint" ] && in_checkpoint=$((in_checkpoint + 1))
  check_recovered "$b"
done

# Event-triggered kills inside WriteCheckpoint: right after the journal
# segment is rolled, and as soon as a new image file appears (while it is
# being written, if the writer is correct: as a .tmp). The checkpoint of a
# 9 MiB put lasts a few milliseconds, and on a loaded machine this polling
# loop can miss it, so each event gets four tries.
i=0
for event in rolled image rolled image rolled image rolled image; do
  i=$((i + 1))
  b=/data/B_${event}_$i
  seg=$(inprogress)
  before=$(images)
  "$OCTOFS" --state "$STATE" put "$STATE/B" "$b" &
  pid=$!
  while kill -0 "$pid" 2>/dev/null; do
    if [ "$event" = rolled ] && [ ! -e "$seg" ]; then break; fi
    if [ "$event" = image ] && [ "$(images)" != "$before" ]; then break; fi
  done
  kill -9 "$pid" 2>/dev/null || true
  wait "$pid" || true
  where=$(classify "$seg")
  echo "kill at $event: $where"
  [ "$where" = "inside checkpoint" ] && in_checkpoint=$((in_checkpoint + 1))
  check_recovered "$b"
done

[ "$in_checkpoint" -gt 0 ] || fail "no kill landed inside WriteCheckpoint"

# Only the documented layout is left behind.
for f in "$STATE"/*; do
  case "${f##*/}" in
    config|blocks|meta|A|B|out|err) ;;
    *) fail "unexpected state entry ${f##*/}" ;;
  esac
done
for f in "$META"/*; do
  case "${f##*/}" in
    edits_*|fsimage_*) ;;
    *) fail "unexpected metadata file ${f##*/}" ;;
  esac
done

echo "octofs crash test: OK ($in_checkpoint kills inside WriteCheckpoint)"
