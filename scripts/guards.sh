#!/usr/bin/env bash
# Architecture guards: grep checks that keep one implementation of each
# idea (one superstep cycle, one partition walk, one checker, one fork
# table, one message store, one C1 ledger, one barrier, one JSON codec,
# one clock per host, ...). Each prints its rule, and a guard that fires
# prints the offending lines and exits 1.
#
#   scripts/guards.sh
#
# Reads the source tree only; builds and writes nothing.
#
# Called by ci.sh and .github/workflows/ci.yml after clippy.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== one superstep cycle: one compute call site (cycle.rs), no hand-written scan in any host, one transport queue, one technique table =="
hosts="crates/engine/src crates/net/src crates/sim/src crates/check/src"
[ "$(grep -rn '\.compute(&mut' $hosts | cut -d: -f1)" = crates/engine/src/cycle.rs ]
if grep -rnE 'vertex_allowed\(|unit_skippable\(' $hosts; then exit 1; fi
if grep -rnE 'enum (NetAction|TransportEvent|CheckTechnique)' crates | grep -v '^crates/sync/src/transport.rs:'; then exit 1; fi

echo "== one vertex state: only cycle.rs drains an inbox, lends a value or delivers locally (no fn drain(, value_mut( or send_local( above #[cfg(test)] in crates/{engine,sim,net}/src, PartitionStore::drain and Context::value_mut aside); the networked worker keeps no whole-graph halt vector =="
for f in crates/engine/src/*.rs crates/sim/src/*.rs crates/net/src/*.rs; do
    [ "$f" = crates/engine/src/cycle.rs ] && continue
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE 'fn (drain|value_mut|send_local)\(' | grep -vF -e 'pub fn drain(&self, local: usize) -> Vec<Envelope<M>> {' -e 'pub fn value_mut(&mut self) -> &mut P::Value {'; then echo "in $f"; exit 1; fi
done
if sed '/^#\[cfg(test)\]/,$d' crates/net/src/worker.rs | grep -n 'halted: Vec<bool>'; then exit 1; fi

echo "== one partition walk: Cycle::run_partition is the only caller of PartitionWalk::next and granted (exactly one walk.next( and one .granted() above #[cfg(test)] in crates/{engine,sim,net}/src, both in cycle.rs); a host implements how it waits, not a loop =="
for pat in 'walk\.next\(' '\.granted\(\)'; do
    sites=$(for f in crates/engine/src/*.rs crates/sim/src/*.rs crates/net/src/*.rs; do sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE "$pat" | sed "s|^|$f:|" || true; done)
    if [ "$(echo "$sites" | grep -c .)" != 1 ] || [ "${sites%%:*}" != crates/engine/src/cycle.rs ]; then echo "$sites"; exit 1; fi
done

echo "== the incremental checker stays linear: no nested-Vec adjacency, no membership scan (tests below #[cfg(test)] may) =="
if sed '/^#\[cfg(test)\]/,$d' crates/serial/src/incremental.rs | grep -nE 'Vec<Vec<|\.contains\('; then exit 1; fi

echo "== one Theorem-1 checker: the live checker certifies commit order and keeps no serialization graph (no SerializationGraph, no reachability probe, no per-item last writer above #[cfg(test)]) =="
if sed '/^#\[cfg(test)\]/,$d' crates/serial/src/incremental.rs | grep -nE 'struct SerializationGraph|fn reaches|last_write'; then exit 1; fi

echo "== the post-hoc checker stays linear: no per-vertex Vec<Vec< list in history.rs (serialization_graph's return type, the tests' oracle, aside); summarize, c1/c2 and the separation scan reach conflict_edges/topo_sort only through the acyclicity fallback, behind the separation certificate =="
if sed '/^#\[cfg(test)\]/,$d' crates/serial/src/history.rs | grep -n 'Vec<Vec<' | grep -v 'pub fn serialization_graph(&self, g: &Graph) -> Vec<Vec<TxnId>> {$'; then exit 1; fi
body() { sed -n "/^    \(pub \)\?fn $1(/,/^    }$/p" crates/serial/src/history.rs; }
for f in summarize c1_violations c2_violations separation; do
    [ -n "$(body $f)" ] || { echo "no fn $f in history.rs"; exit 1; }
    if body $f | grep -nE 'conflict_edges|topo_sort|equivalent_serial_order|serialization_graph\(|is_one_copy_serializable'; then echo "in $f"; exit 1; fi
done
if body serialization_graph_acyclic | grep -E 'conflict_edges|topo_sort|equivalent_serial_order' | grep -v 'self\.separation(g)\.strict || '; then exit 1; fi

echo "== a fork costs what a fork costs: flat fork table, counters batched per protocol call, ring pass vs fork move told apart by the unit =="
if sed '/^#\[cfg(test)\]/,$d' crates/sync/src/chandy_misra.rs | grep -nE 'Vec<Vec<|metrics\.inc\('; then exit 1; fi
if grep -n 'granularity() == LockGranularity::None' crates/engine/src/engine.rs; then exit 1; fi

echo "== one fork table; one message store, three hosts: Proposition 1 and sg-gas on ForkTable, no mailbox of its own in sg-net or sg-sim, no per-vertex neighbour Vec in the partition map =="
if sed '/^#\[cfg(test)\]/,$d' crates/sync/src/bsp_lock.rs | grep -nE 'struct PairState|Mutex<Vec<'; then exit 1; fi
if grep -rn --include='*.rs' 'ForkTable::new(' crates src tests examples perf | grep -v '^crates/sync/'; then exit 1; fi
if for f in crates/sync/src/*.rs; do sed '/^#\[cfg(test)\]/,$d' "$f"; done | grep -n 'ForkTable::new('; then exit 1; fi
if grep -rn 'Vec<Vec<P::Message>>' crates/sim/src; then exit 1; fi
if grep -rnE 'struct PayloadQueue|inbox\.lock\(\)' crates/net/src; then exit 1; fi
if sed '/^#\[cfg(test)\]/,$d' crates/graph/src/partition.rs | grep -n '\.neighbors('; then exit 1; fi

echo "== a message costs what a message costs: no stripes or SipHash in the store, no run-wide pending counter, one slot table (PartitionMap::slot_of) =="
if sed '/^#\[cfg(test)\]/,$d' crates/engine/src/store.rs | grep -nE 'HashMap|MAX_STRIPES'; then exit 1; fi
if grep -n 'pending\.fetch_' crates/engine/src/engine.rs; then exit 1; fi
if grep -rnE 'locate: Vec<\(u32, u32\)>' crates/engine/src crates/net/src; then exit 1; fi

echo "== the thread engine ships what it stages: no OutboundBuffers, in_flight, flush_buffer or yield_now above #[cfg(test)] in crates/engine/src/engine.rs (a staged run lands under its staging lock, so the C1 write-all is one pass over the worker's staging locks) =="
if sed '/^#\[cfg(test)\]/,$d' crates/engine/src/engine.rs | grep -nE 'OutboundBuffers|in_flight|flush_buffer|yield_now'; then exit 1; fi

echo "== the thread engine and the networked worker fold only at the inbox: no SenderCombines and no .readable( above #[cfg(test)] in crates/engine/src/engine.rs or crates/net/src/worker.rs, and every StagingBuffers::new( there passes false (a staged message is one envelope, combined where its batch lands) =="
for f in crates/engine/src/engine.rs crates/net/src/worker.rs; do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE 'SenderCombines|\.readable\('; then echo "in $f"; exit 1; fi
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n 'StagingBuffers::new(' | grep -v 'StagingBuffers::new(workers, false)'; then echo "in $f"; exit 1; fi
done

echo "== a queued message costs a block slot, not a node: no per-envelope node type or node slab in the store =="
if sed '/^#\[cfg(test)\]/,$d' crates/engine/src/store.rs | grep -niE 'struct Node<|slab'; then exit 1; fi

echo "== a committed vertex value costs a slot write: no per-version node type, node slab or free list in the MVCC store =="
if sed '/^#\[cfg(test)\]/,$d' crates/store/src/store.rs | grep -niE 'struct Node<|slab|free list'; then exit 1; fi

echo "== one C1 ledger, addressed by the sender: no in-CSR pair search, no sent/visible counter arrays in the recorder, no in-to-out map in the ledger (a begin reads its summary) =="
if grep -rn 'in_edge_index' crates/*/src; then exit 1; fi
if sed '/^#\[cfg(test)\]/,$d' crates/serial/src/recorder.rs | grep -nE '\b(sent|visible):'; then exit 1; fi
if sed '/^#\[cfg(test)\]/,$d' crates/serial/src/ledger.rs | grep -nE 'in_to_out|in_edge_base'; then exit 1; fi

echo "== only what is in flight reaches the C1 ledger: exactly one on_visible( call above #[cfg(test)] across crates/*/src, InboxPair::readable's in crates/engine/src/store.rs (a send readable before its transaction closes records nothing) =="
sites=$(for f in $(find crates/*/src -name '*.rs' | sort); do sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE 'on_visible\(' | grep -v 'fn on_visible(' | sed "s|^|$f:|" || true; done)
if [ "$(echo "$sites" | grep -c .)" != 1 ] || [ "${sites%%:*}" != crates/engine/src/store.rs ]; then echo "$sites"; exit 1; fi

echo "== one barrier, one inbox pair: the engine and the simulator close a superstep in barrier.rs and keep BSP visibility in the inbox pair; sg-check models every technique =="
for f in crates/engine/src/*.rs crates/sim/src/*.rs; do
    if [ "$f" != crates/engine/src/barrier.rs ] && sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE 'end_superstep\(|\.roll\(\)'; then echo "in $f"; exit 1; fi
done
if sed '/^#\[cfg(test)\]/,$d' crates/sim/src/sim.rs | grep -nw 'Model::[A-Za-z]*'; then exit 1; fi
if grep -nE 'fn (bsp_swap|arrivals)\b' crates/engine/src/engine.rs; then exit 1; fi
if grep -rn 'NotModel[a]ble' crates tests scripts; then exit 1; fi

echo "== one staging path, one inbox, one batch insert: the net worker stages in StagingBuffers and lands in an InboxPair; the grouped insert is InboxPair::deliver_batch =="
if grep -rnE 'struct (Outbound|Inbox)\b|enc: Vec<u8>' crates/net/src; then exit 1; fi
for f in crates/engine/src/*.rs crates/net/src/*.rs crates/sim/src/*.rs; do
    if [ "$f" != crates/engine/src/store.rs ] && sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE 'get_or_insert_with\(\|\|[^;]*\.lock\(\)\)'; then echo "in $f"; exit 1; fi
done

echo "== the wire carries each fact once: one transaction stream, no request-token relay, lock executors on a std channel =="
if grep -rnE 'HistoryUpload|RequestTokenRelay|Message::RequestToken\b|on_request_token|struct ExecQueue' crates/net/src tests/net.rs; then exit 1; fi

echo "== each wire kind is declared once: no hand-written body codec, no hand-counted length guard, no panic on peer input in wire.rs =="
if sed '/^#\[cfg(test)\]/,$d' crates/net/src/wire.rs | grep -nE 'fn (encode_body|decode_body)|r\.len\([0-9]|unwrap\(\)|expect\('; then exit 1; fi

echo "== sg-check hosts the shipped datapath: no outbox or BSP flag of its own, no direct end of superstep, no second C1 ledger =="
if grep -rnE 'outbox|bsp:|end_superstep\(|IncrementalChecker' crates/check/src; then exit 1; fi

echo "== one JSON codec: every document is built as sg_metrics::Json; no hand-written \"key\": literal above #[cfg(test)] outside crates/metrics/src/json.rs, no second string writer or parser =="
for f in $(find crates/*/src -name '*.rs' ! -path crates/metrics/src/json.rs | sort); do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE '\\"[A-Za-z0-9_]+\\":'; then echo "in $f"; exit 1; fi
done
if grep -rnE 'fn (json_string|ids_json|json_value|snapshot_json)\b' crates src tests examples; then exit 1; fi
if grep -rn 'sg_bench::jso[n]' crates src tests examples scripts; then exit 1; fi

echo "== one clock per host: the thread engine and the model checker keep no virtual time (no SimClocks, CostModel, charge_lock_wait, charge_virtual or barrier_ns above #[cfg(test)] in crates/engine/src or crates/check/src; EngineConfig has no cost) =="
for f in crates/engine/src/*.rs crates/check/src/*.rs; do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE 'SimClocks|CostModel|charge_lock_wait|charge_virtual|barrier_ns'; then echo "in $f"; exit 1; fi
done
if grep -n 'pub cost:' crates/engine/src/config.rs; then exit 1; fi

echo "== the fork table keeps no clock: no per-pair stamp, link latency or ready time (ts:, link_latency_ns, ready_at) above #[cfg(test)] in crates/sync/src =="
for f in crates/sync/src/*.rs; do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE '\bts:|link_latency_ns|ready_at'; then echo "in $f"; exit 1; fi
done

echo "== the networked worker sleeps only to back off a retry: no thread::sleep( above #[cfg(test)] in crates/net/src/worker.rs or cluster.rs but the CONNECT_RETRY_DELAY one; bring-up and teardown wait on events =="
for f in crates/net/src/worker.rs crates/net/src/cluster.rs; do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n 'thread::sleep(' | grep -v 'thread::sleep(CONNECT_RETRY_DELAY);'; then echo "in $f"; exit 1; fi
done

echo "guards green."
