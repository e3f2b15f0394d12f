#!/usr/bin/env bash
# Autotuner gate: the tuned-config database must make repeat runs pure
# lookups, and the loader must reject stale entries instead of
# trusting them.
#
#   1. Fresh run: searches happen (evaluations > 0), the tuned records
#      beat the stock baselines (speedup > 1) on both backend
#      families, and the database is written.
#   2. Repeat run with the same database: ZERO search evaluations and
#      a byte-identical report + database.
#   3. Staleness: rename a variant inside the database; the loader
#      must reject that entry (rejected > 0) and the run must still
#      succeed by re-searching.
#   4. Algorithm staleness: an entry naming an algorithm the live
#      conv::Algorithm registry does not know must likewise be
#      rejected and re-searched.
#   5. Torn-file recovery: truncating the database mid-content (stale
#      checksum trailer left behind) makes the next run quarantine and
#      rebuild it ("(recovered)"), and the run after that loads the
#      re-saved file cleanly.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
BENCH="$BUILD_DIR/bench/bench_autotune"
if [ ! -x "$BENCH" ]; then
    echo "check_tune: $BENCH not built; run cmake first" >&2
    exit 1
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
db="$workdir/tuned.json"
json1="$workdir/report1.json"
json2="$workdir/report2.json"

# tune_line <family> <output-file>: the TUNE summary for one family.
tune_line() {
    grep "^TUNE family=$1 " "$2"
}
# field <line> <key>: value of key=value in a TUNE line.
field() {
    printf '%s\n' "$1" | tr ' ' '\n' | sed -n "s/^$2=//p"
}

echo "==== check_tune: fresh search ===="
"$BENCH" "db=$db" "json=$json1" > "$workdir/run1.out"
for family in tpu gpu; do
    line="$(tune_line "$family" "$workdir/run1.out")"
    evals="$(field "$line" evaluations)"
    speedup="$(field "$line" speedup)"
    if [ "$evals" -le 0 ]; then
        echo "check_tune: fresh $family run did no search" >&2
        exit 1
    fi
    if ! awk -v s="$speedup" 'BEGIN { exit !(s > 1.0) }'; then
        echo "check_tune: $family tuned speedup $speedup <= 1.0" >&2
        exit 1
    fi
    echo "  $family: evaluations=$evals speedup=$speedup"
done
[ -s "$db" ] || { echo "check_tune: no database written" >&2; exit 1; }

echo "==== check_tune: repeat run answers from the database ===="
cp "$db" "$workdir/db_after_run1.json"
"$BENCH" "db=$db" "json=$json2" > "$workdir/run2.out"
for family in tpu gpu; do
    line="$(tune_line "$family" "$workdir/run2.out")"
    evals="$(field "$line" evaluations)"
    if [ "$evals" -ne 0 ]; then
        echo "check_tune: repeat $family run searched again" \
            "(evaluations=$evals)" >&2
        exit 1
    fi
done
cmp "$json1" "$json2" \
    || { echo "check_tune: repeat report differs" >&2; exit 1; }
cmp "$db" "$workdir/db_after_run1.json" \
    || { echo "check_tune: repeat run rewrote the database" >&2; exit 1; }
echo "  zero evaluations, byte-identical report and database"

echo "==== check_tune: stale entries are rejected ===="
# Pick whatever variant the first TPU-family entry actually chose — the
# winner set (and the entry order) shifts as the zoo grows, so the
# victim is found, not hardcoded; it must be a tpu entry because the
# re-search assertion below watches the tpu TUNE line.
victim="$(awk '/"family": "tpu"/ { intpu = 1 }
    intpu && /"variant": / {
        gsub(/.*"variant": "|".*/, ""); print; exit
    }' "$db")"
[ -n "$victim" ] || { echo "check_tune: no variant in db" >&2; exit 1; }
# Hand-edited databases lose their checksum trailer (a tampered trailer
# would — correctly — be treated as a torn file and rebuilt from
# scratch); trailer-less files still load per-entry as legacy content.
sed -e "s/\"variant\": \"$victim\"/\"variant\": \"tpu-v9-retired\"/" \
    -e '/^#cfconv-sum:/d' "$db" > "$workdir/stale.json"
"$BENCH" "db=$workdir/stale.json" "json=$workdir/report3.json" \
    > "$workdir/run3.out" 2> "$workdir/run3.err"
rejected="$(sed -n 's/.*rejected=\([0-9]*\).*/\1/p' \
    "$workdir/run3.out" | head -n 1)"
if [ -z "$rejected" ] || [ "$rejected" -le 0 ]; then
    echo "check_tune: stale entries were not rejected" >&2
    exit 1
fi
line="$(tune_line tpu "$workdir/run3.out")"
evals="$(field "$line" evaluations)"
if [ "$evals" -le 0 ]; then
    echo "check_tune: rejected entries were not re-searched" >&2
    exit 1
fi
cmp "$workdir/report3.json" "$json1" \
    || { echo "check_tune: re-searched report differs" >&2; exit 1; }
echo "  rejected=$rejected stale entries, re-search reproduced the report"

echo "==== check_tune: unknown-algorithm entries are rejected ===="
sed -e 's/"algorithm": "channel-first"/"algorithm": "winograd"/' \
    -e '/^#cfconv-sum:/d' "$db" > "$workdir/stale_algo.json"
"$BENCH" "db=$workdir/stale_algo.json" "json=$workdir/report4.json" \
    > "$workdir/run4.out" 2> "$workdir/run4.err"
rejected="$(sed -n 's/.*rejected=\([0-9]*\).*/\1/p' \
    "$workdir/run4.out" | head -n 1)"
if [ -z "$rejected" ] || [ "$rejected" -le 0 ]; then
    echo "check_tune: unknown-algorithm entries were not rejected" >&2
    exit 1
fi
cmp "$workdir/report4.json" "$json1" \
    || { echo "check_tune: algo re-search report differs" >&2; exit 1; }
echo "  rejected=$rejected unknown-algorithm entries, report reproduced"

echo "==== check_tune: torn tuned-db recovery ===="
torn="$workdir/torn.json"
"$BENCH" "db=$torn" "json=$workdir/torn1.json" \
    > "$workdir/torn1.out"
grep -q '(fresh)' "$workdir/torn1.out" || {
    echo "check_tune: first torn-db run did not start fresh" >&2
    exit 1
}
grep -q '#cfconv-sum:fnv1a:' "$torn" || {
    echo "check_tune: saved db carries no checksum trailer" >&2
    exit 1
}
# Tear the file the way an interrupted write would: half the content,
# stale trailer still attached.
trailer="$(grep '#cfconv-sum:fnv1a:' "$torn")"
head -c "$(($(wc -c < "$torn") / 2))" "$torn" > "$torn.part"
printf '\n%s\n' "$trailer" >> "$torn.part"
mv "$torn.part" "$torn"
"$BENCH" "db=$torn" "json=$workdir/torn2.json" \
    > "$workdir/torn2.out"
grep -q '(recovered)' "$workdir/torn2.out" || {
    echo "check_tune: torn db was not recovered" >&2
    exit 1
}
"$BENCH" "db=$torn" "json=$workdir/torn3.json" \
    > "$workdir/torn3.out"
if grep -Eq '\((recovered|fresh)\)' "$workdir/torn3.out"; then
    echo "check_tune: re-saved db did not load cleanly" >&2
    exit 1
fi
grep -q 'loaded=0' "$workdir/torn3.out" && {
    echo "check_tune: re-saved db loaded no entries" >&2
    exit 1
}
echo "  torn db quarantined, rebuilt, and reloaded cleanly"

echo "TUNE OK"
