#!/bin/sh
# End-to-end test of the octofs CLI across separate process invocations:
# namespace + block data must persist via the metadata directory (segmented
# edit log + checkpoint images) and the disk-backed block stores, and
# setrep moves must survive a "restart".
set -e

OCTOFS="$1"
STATE=$(mktemp -d)
trap 'rm -rf "$STATE"' EXIT

fail() { echo "FAIL: $1" >&2; exit 1; }

"$OCTOFS" --state "$STATE" init >/dev/null

printf 'tiered storage works' > "$STATE/local.txt"
"$OCTOFS" --state "$STATE" mkdir /data
"$OCTOFS" --state "$STATE" put "$STATE/local.txt" /data/file.txt 1,0,2

# Read back in a fresh process.
OUT=$("$OCTOFS" --state "$STATE" cat /data/file.txt)
[ "$OUT" = "tiered storage works" ] || fail "cat mismatch: $OUT"

# Replication vector visible and correct.
"$OCTOFS" --state "$STATE" ls /data | grep -q '<1,0,2' \
  || fail "ls does not show the replication vector"

# Locations include one Memory and two HDD replicas.
LOC=$("$OCTOFS" --state "$STATE" locations /data/file.txt)
echo "$LOC" | grep -c 'Memory' | grep -qx 1 || fail "expected 1 memory replica"
echo "$LOC" | grep -c 'HDD' | grep -qx 2 || fail "expected 2 HDD replicas"

# Move the memory replica to SSD and verify in another fresh process.
"$OCTOFS" --state "$STATE" setrep /data/file.txt 0,1,2
LOC=$("$OCTOFS" --state "$STATE" locations /data/file.txt)
echo "$LOC" | grep -q 'SSD' || fail "expected an SSD replica after setrep"
echo "$LOC" | grep -q 'Memory' && fail "memory replica should be gone"

# Rename and delete.
"$OCTOFS" --state "$STATE" mv /data/file.txt /data/renamed.txt
OUT=$("$OCTOFS" --state "$STATE" cat /data/renamed.txt)
[ "$OUT" = "tiered storage works" ] || fail "cat after mv mismatch"
"$OCTOFS" --state "$STATE" rm /data/renamed.txt
"$OCTOFS" --state "$STATE" cat /data/renamed.txt 2>/dev/null \
  && fail "file should be gone"

# get writes the bytes to a local file.
"$OCTOFS" --state "$STATE" put "$STATE/local.txt" /data/again.txt
"$OCTOFS" --state "$STATE" get /data/again.txt "$STATE/out.txt"
cmp -s "$STATE/local.txt" "$STATE/out.txt" || fail "get round-trip mismatch"

# report runs and mentions the tiers.
"$OCTOFS" --state "$STATE" report | grep -q 'Memory' || fail "report"

# The state directory holds only the config, block stores and metadata.
for f in "$STATE"/*; do
  case "${f##*/}" in
    config|blocks|meta|local.txt|out.txt) ;;
    *) fail "unexpected state entry ${f##*/}" ;;
  esac
done
for f in "$STATE"/meta/*; do
  case "${f##*/}" in
    edits_*|fsimage_*) ;;
    *) fail "unexpected metadata file ${f##*/}" ;;
  esac
done

echo "octofs CLI end-to-end: OK"
