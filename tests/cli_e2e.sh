#!/bin/sh
# End-to-end exercise of privelet_cli (also run by the CI docs job):
#   gen -> publish (CSV path) -> inspect -> query twice -> identical answers,
#   publish from the generator path on a pool -> byte-identical snapshot,
#   truncated / corrupted snapshots -> rejected.
# Usage: cli_e2e.sh /path/to/privelet_cli
set -eu

CLI="$1"
TMP="${TMPDIR:-/tmp}/privelet_cli_e2e.$$"
mkdir -p "$TMP"
trap 'rm -rf "$TMP"' EXIT INT TERM

echo "== gen"
"$CLI" gen --synthetic 4096 --tuples 20000 --data-seed 5 \
       --csv-out "$TMP/table.csv" --schema-out "$TMP/schema.txt"

echo "== publish (csv)"
"$CLI" publish --csv "$TMP/table.csv" --schema "$TMP/schema.txt" \
       --mechanism privelet --epsilon 0.5 --seed 11 --threads 0 \
       --output "$TMP/release.pvls"

echo "== inspect"
"$CLI" inspect "$TMP/release.pvls" | tee "$TMP/inspect.txt"
grep -q "mechanism:    Privelet" "$TMP/inspect.txt"
grep -q "CRC OK" "$TMP/inspect.txt"
# Every snapshot is PVLS v4; a plan-less one has no plan section.
grep -q "PVLS v4" "$TMP/inspect.txt"
grep -q "^plan:         none" "$TMP/inspect.txt"
# The table is the only payload section, and the publish-mode note (the
# file cannot record the mode: streamed and in-core snapshots are
# byte-identical). No matrix section, accumulator header or seed exists.
grep -q "^table:        offset " "$TMP/inspect.txt"
grep -q "publish mode: not recorded" "$TMP/inspect.txt"
for gone in "values:" "table accum:" "seed:"; do
  if grep -q "^$gone" "$TMP/inspect.txt"; then
    echo "FAIL: inspect still prints a '$gone' line" >&2
    exit 1
  fi
done

echo "== query (random workload, dumped, then replayed from file)"
"$CLI" query "$TMP/release.pvls" --random 500 --workload-seed 3 \
       --dump-workload "$TMP/workload.txt" --output "$TMP/answers1.txt"
"$CLI" query "$TMP/release.pvls" --workload "$TMP/workload.txt" \
       --threads 0 --output "$TMP/answers2.txt"
cmp "$TMP/answers1.txt" "$TMP/answers2.txt"
[ "$(wc -l < "$TMP/answers1.txt")" -eq 500 ]

echo "== publish (generator path, 4 threads) must produce identical bytes"
"$CLI" publish --synthetic 4096 --tuples 20000 --data-seed 5 \
       --mechanism privelet --epsilon 0.5 --seed 11 --threads 4 \
       --output "$TMP/release2.pvls"
cmp "$TMP/release.pvls" "$TMP/release2.pvls"

echo "== publish (streamed, 64K budget) must produce identical bytes"
"$CLI" publish --synthetic 4096 --tuples 20000 --data-seed 5 \
       --mechanism privelet --epsilon 0.5 --seed 11 --threads 2 \
       --max-memory 64K --scratch-dir "$TMP" \
       --output "$TMP/release3.pvls" | tee "$TMP/publish3.txt"
grep -q "publish mode: streamed" "$TMP/publish3.txt"
cmp "$TMP/release.pvls" "$TMP/release3.pvls"
# The printed mode is the one that ran: basic and hay release in core
# even from the budgeted (scratch-backed) input cube. Hay takes exactly
# one ordinal attribute, so it publishes the first column alone.
"$CLI" publish --synthetic 4096 --tuples 20000 --data-seed 5 \
       --mechanism basic --epsilon 0.5 --seed 11 --threads 2 \
       --max-memory 64K --scratch-dir "$TMP" \
       --output "$TMP/release_basic.pvls" > "$TMP/publish_basic.txt"
grep -q "publish mode: in-core" "$TMP/publish_basic.txt"
cut -d, -f1 "$TMP/table.csv" > "$TMP/o1.csv"
printf 'ordinal O1 8\n' > "$TMP/o1_schema.txt"
"$CLI" publish --csv "$TMP/o1.csv" --schema "$TMP/o1_schema.txt" \
       --mechanism hay --epsilon 0.5 --seed 11 --threads 2 \
       --max-memory 64K --scratch-dir "$TMP" \
       --output "$TMP/release_hay.pvls" > "$TMP/publish_hay.txt"
grep -q "publish mode: in-core" "$TMP/publish_hay.txt"
# --scratch-dir without a memory budget makes no sense; rejected.
if "$CLI" publish --synthetic 4096 --tuples 100 --scratch-dir "$TMP" \
       --output "$TMP/bad.pvls" 2>/dev/null; then
  echo "FAIL: --scratch-dir without --max-memory accepted" >&2
  exit 1
fi

echo "== CRLF CSV parses and publishes byte-identically"
awk '{printf "%s\r\n", $0}' "$TMP/table.csv" > "$TMP/table_crlf.csv"
"$CLI" publish --csv "$TMP/table_crlf.csv" --schema "$TMP/schema.txt" \
       --mechanism privelet --epsilon 0.5 --seed 11 --threads 0 \
       --output "$TMP/release_crlf.pvls"
cmp "$TMP/release.pvls" "$TMP/release_crlf.pvls"

echo "== plan + publish --auto-plan (workload-adaptive planner, plan section)"
# plan is pure analysis: schema + workload in, ranked candidates out.
"$CLI" plan --schema "$TMP/schema.txt" --workload "$TMP/workload.txt" \
       --epsilon 0.5 | tee "$TMP/plan.txt"
grep -q '^rank 1: ' "$TMP/plan.txt"
grep -q '^chosen: ' "$TMP/plan.txt"
# publish --auto-plan runs the same planner and must reach the same
# decision (the plan is a pure function of schema/workload/epsilon).
"$CLI" publish --csv "$TMP/table.csv" --schema "$TMP/schema.txt" \
       --auto-plan --workload "$TMP/workload.txt" \
       --epsilon 0.5 --seed 11 --threads 0 \
       --output "$TMP/planned.pvls" | tee "$TMP/publish_plan.txt"
grep '^chosen: ' "$TMP/plan.txt" > "$TMP/chosen_plan.txt"
grep '^chosen: ' "$TMP/publish_plan.txt" > "$TMP/chosen_publish.txt"
cmp "$TMP/chosen_plan.txt" "$TMP/chosen_publish.txt"
# The decision rides in the snapshot and survives the round trip.
"$CLI" inspect "$TMP/planned.pvls" | tee "$TMP/inspect_plan.txt"
grep -q "PVLS v4" "$TMP/inspect_plan.txt"
grep -q "CRC OK" "$TMP/inspect_plan.txt"
grep -q "^plan chosen:  " "$TMP/inspect_plan.txt"
grep -q "^plan queries: 500" "$TMP/inspect_plan.txt"
# The planned release serves queries like any other; replay is stable.
"$CLI" query "$TMP/planned.pvls" --workload "$TMP/workload.txt" \
       --output "$TMP/planned_answers1.txt"
"$CLI" query "$TMP/planned.pvls" --workload "$TMP/workload.txt" \
       --output "$TMP/planned_answers2.txt"
cmp "$TMP/planned_answers1.txt" "$TMP/planned_answers2.txt"
# Planning flags are validated: --auto-plan owns the mechanism choice,
# and the planning-workload flags require --auto-plan.
if "$CLI" publish --synthetic 4096 --tuples 100 --auto-plan --random 5 \
       --mechanism basic --output "$TMP/bad.pvls" 2>/dev/null; then
  echo "FAIL: --auto-plan with --mechanism accepted" >&2
  exit 1
fi
if "$CLI" publish --synthetic 4096 --tuples 100 --workload "$TMP/workload.txt" \
       --output "$TMP/bad.pvls" 2>/dev/null; then
  echo "FAIL: --workload without --auto-plan accepted" >&2
  exit 1
fi
if "$CLI" publish --synthetic 4096 --tuples 100 --auto-plan \
       --output "$TMP/bad.pvls" 2>/dev/null; then
  echo "FAIL: --auto-plan without a planning workload accepted" >&2
  exit 1
fi

echo "== --threads above 1024 is rejected before any pool starts"
# Only the rejection path runs at this value: the check precedes the pool.
for cmd in publish daemon; do
  rc=0
  if [ "$cmd" = publish ]; then
    "$CLI" publish --synthetic 4096 --tuples 100 --threads 1025 \
           --output "$TMP/bad.pvls" 2> "$TMP/threads.err" || rc=$?
  else
    "$CLI" daemon "main=$TMP/release.pvls" --port 0 --threads 1025 \
           > /dev/null 2> "$TMP/threads.err" || rc=$?
  fi
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: $cmd --threads 1025 exited $rc, want 2" >&2
    exit 1
  fi
  grep -q -- "--threads must be in \[0, 1024\]" "$TMP/threads.err"
done

echo "== daemon + client (text protocol over TCP; same answers as query)"
# --max-resident 1: the store keeps one release mapped, so alternating
# between ids evicts (LRU) and re-maps them; answers must not change.
rm -f "$TMP/port.txt"
"$CLI" daemon "main=$TMP/release.pvls" "planned=$TMP/planned.pvls" --port 0 \
       --max-resident 1 --port-file "$TMP/port.txt" \
       > "$TMP/daemon.log" 2> "$TMP/daemon.err" &
DAEMON_PID=$!
tries=0
while [ ! -s "$TMP/port.txt" ] && [ "$tries" -lt 100 ]; do
  tries=$((tries + 1))
  sleep 0.1
done
[ -s "$TMP/port.txt" ]
DPORT=$(cat "$TMP/port.txt")

# One session: liveness, a 500-query batch (bit-identical to the query
# subcommand), the two ids queried alternately, a hot RELOAD registering
# a third id, an intentional unknown-id error (the client exits 3 when
# any request failed), STATS.
grep -v '^#' "$TMP/workload.txt" > "$TMP/predicates.txt"
{
  echo "PING"
  echo "BATCH main 500"
  cat "$TMP/predicates.txt"
  echo "QUERY planned *"
  echo "QUERY main *"
  echo "QUERY planned *"
  echo "QUERY main *"
  echo "RELOAD spare $TMP/release2.pvls"
  echo "QUERY spare *"
  echo "QUERY planned *"
  echo "QUERY ghost *"
  echo "STATS"
  echo "QUIT"
} > "$TMP/daemon_requests.txt"
client_rc=0
"$CLI" client --port "$DPORT" --requests "$TMP/daemon_requests.txt" \
       > "$TMP/daemon_out.txt" 2>&1 || client_rc=$?
[ "$client_rc" -eq 3 ]
grep -q '^pong$' "$TMP/daemon_out.txt"
grep -q '^ok 500$' "$TMP/daemon_out.txt"
grep -q '^reloaded spare$' "$TMP/daemon_out.txt"
grep -q '^error: ' "$TMP/daemon_out.txt"
grep -q '^uptime_s' "$TMP/daemon_out.txt"
evictions=$(awk '$1 == "store_evictions" { print $2 }' "$TMP/daemon_out.txt")
if [ "${evictions:-0}" -lt 1 ]; then
  echo "FAIL: --max-resident 1 evicted nothing (store_evictions ${evictions:-?})" >&2
  exit 1
fi
# STATS reports the resident planned release's recorded decision; the
# plan-less release contributes no plan line.
grep -q '^plan planned chosen=' "$TMP/daemon_out.txt"
if grep -q '^plan main ' "$TMP/daemon_out.txt"; then
  echo "FAIL: plan-less release reported a plan in STATS" >&2
  exit 1
fi
awk '/^ok 500$/ { grab = 1; next } grab && n < 500 { print; n += 1 }' \
    "$TMP/daemon_out.txt" > "$TMP/daemon_answers.txt"
cmp "$TMP/daemon_answers.txt" "$TMP/answers1.txt"

# SIGTERM is a clean shutdown: exit 0 plus a stderr summary line.
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"
grep -q '^daemon: ' "$TMP/daemon.err"

echo "== sharded daemon (--loops/--backlog) + multi-connection client"
# Rebinding the SAME port immediately after the shutdown above: the
# previous daemon's closed connections leave TIME_WAIT entries on this
# port, so a missing SO_REUSEADDR turns this into an EADDRINUSE flake.
"$CLI" daemon "main=$TMP/release.pvls" --port "$DPORT" --loops 2 \
       --backlog 16 --port-file "$TMP/port2.txt" \
       > "$TMP/daemon2.log" 2> "$TMP/daemon2.err" &
DAEMON_PID=$!
tries=0
while [ ! -s "$TMP/port2.txt" ] && [ "$tries" -lt 100 ]; do
  tries=$((tries + 1))
  sleep 0.1
done
[ -s "$TMP/port2.txt" ]
[ "$(cat "$TMP/port2.txt")" = "$DPORT" ]
grep -q '(2 loops)' "$TMP/daemon2.log"

# The same request stream through 1 and 3 client connections (requests
# rotate over the sockets, so they land on different event loops) must
# print byte-identical output — sharding is invisible to answers.
{
  echo "PING"
  echo "BATCH main 500"
  cat "$TMP/predicates.txt"
  echo "QUERY main *"
  echo "BATCH main 500"
  cat "$TMP/predicates.txt"
  echo "STATS"
} > "$TMP/sharded_requests.txt"
"$CLI" client --port "$DPORT" --requests "$TMP/sharded_requests.txt" \
       --connections 1 > "$TMP/sharded_out1.txt"
"$CLI" client --port "$DPORT" --requests "$TMP/sharded_requests.txt" \
       --connections 3 > "$TMP/sharded_out3.txt"
# STATS output varies between runs (uptime, counters): compare only the
# answer payloads above it.
sed -n '/^uptime_s/q;p' "$TMP/sharded_out1.txt" > "$TMP/sharded_answers1.txt"
sed -n '/^uptime_s/q;p' "$TMP/sharded_out3.txt" > "$TMP/sharded_answers3.txt"
cmp "$TMP/sharded_answers1.txt" "$TMP/sharded_answers3.txt"
grep -q '^ok 500$' "$TMP/sharded_answers1.txt"
grep -q '^loops 2$' "$TMP/sharded_out3.txt"

kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"
grep -q '^daemon: ' "$TMP/daemon2.err"

echo "== bad privacy parameters are rejected before publishing"
for bad_epsilon in 0 -1 nan inf abc; do
  if "$CLI" publish --synthetic 4096 --tuples 100 --epsilon "$bad_epsilon" \
         --output "$TMP/bad.pvls" 2>/dev/null; then
    echo "FAIL: --epsilon $bad_epsilon accepted" >&2
    exit 1
  fi
done
if "$CLI" publish --synthetic 4096 --tuples 100 --seed=-3 \
       --output "$TMP/bad.pvls" 2>/dev/null; then
  echo "FAIL: --seed -3 accepted" >&2
  exit 1
fi

echo "== the noise seed appears in no output"
# 81985529216486895 = 0x0123456789ABCDEF: its little-endian bytes must
# occur nowhere in the snapshot, and inspect prints neither a seed line
# nor the value.
"$CLI" publish --synthetic 4096 --tuples 2000 --data-seed 5 \
       --seed 81985529216486895 --threads 0 \
       --output "$TMP/keyed.pvls" > "$TMP/publish_keyed.txt"
od -An -v -tx1 "$TMP/keyed.pvls" | tr -s ' \n' '  ' > "$TMP/keyed_hex.txt"
if grep -q " ef cd ab 89 67 45 23 01" "$TMP/keyed_hex.txt"; then
  echo "FAIL: the seed's bytes occur in the snapshot" >&2
  exit 1
fi
"$CLI" inspect "$TMP/keyed.pvls" > "$TMP/inspect_keyed.txt"
if grep -q -e "seed" -e "81985529216486895" "$TMP/inspect_keyed.txt" \
       "$TMP/publish_keyed.txt"; then
  echo "FAIL: publish or inspect printed the seed" >&2
  exit 1
fi

echo "== publish --no-table is an unknown flag"
if "$CLI" publish --synthetic 4096 --tuples 100 --no-table \
       --output "$TMP/bad.pvls" 2> "$TMP/no_table.err"; then
  echo "FAIL: --no-table accepted" >&2
  exit 1
fi
grep -q "unknown flag --no-table" "$TMP/no_table.err"

echo "== corrupt snapshots are rejected"
head -c 200 "$TMP/release.pvls" > "$TMP/truncated.pvls"
if "$CLI" inspect "$TMP/truncated.pvls" 2>/dev/null; then
  echo "FAIL: truncated snapshot accepted" >&2
  exit 1
fi
# Flip a header byte (the attribute count: magic 4 + version 4 +
# mech_len 2 + "Privelet" 8 + epsilon 8 = offset 26); the CRC check must
# reject the file before the parse reads it.
cp "$TMP/release.pvls" "$TMP/flipped.pvls"
printf '\377' | dd of="$TMP/flipped.pvls" bs=1 seek=26 conv=notrunc 2>/dev/null
if "$CLI" query "$TMP/flipped.pvls" --random 5 2>/dev/null; then
  echo "FAIL: corrupted snapshot accepted" >&2
  exit 1
fi

echo "cli_e2e: OK"
