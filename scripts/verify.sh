#!/usr/bin/env bash
# Tier-1 verification + pipeline throughput gate + serve smoke test.
#
# 1. `cargo build --release && cargo test -q` (the repo's tier-1 bar);
# 2. the throughput benchmark (writes BENCH_pipeline.json with 1/2/4-
#    thread docs/sec and a per-stage ms breakdown);
# 3. perf gate: fails if (a) the 2-/4-thread speedups fall below
#    hardware-scaled floors (1.5x / 2.5x on a >=4-core host; overhead
#    bound 0.85x on a single core, where real speedup is impossible),
#    or (b) single-thread docs/sec regresses >10% below the committed
#    BENCH_pipeline.json baseline — printed as a diff-style report —
#    or (c) scan.annotate ms/doc (the dominant stage, pinned by the
#    zero-allocation annotation engine) regresses below the same
#    ETAP_PERF_FLOOR ratio against the committed baseline;
# 4. boots `etap-cli serve` on an ephemeral port, curls /healthz and
#    /leads, then load-tests with bench_serve (writes BENCH_serve.json)
#    and fails if any request was shed at nominal load;
# 5. persistence crash-recovery: publishes two generations into a
#    store, serves them warm, kill -9s the server, restarts it from
#    disk, and fails unless /leads is byte-identical across the crash
#    and the generation counter continues monotonically; also runs
#    bench_persist (writes BENCH_persist.json);
# 6. chaos: runs the `watch` daemon under deterministic fault injection
#    (ETAP_FAULTS: injected write errors, delayed polls, one panic),
#    kill -9s it mid-cycle, and fails unless a warm restart serves the
#    last sealed generation byte-for-byte and a fault-free watch run
#    then converges back to healthy with the generation counter still
#    monotone; also runs bench_watch (writes BENCH_watch.json).
#
# Right after tier 1, the end-to-end benchmark (`e2ebench/`, its own
# workspace, so tier 1 never compiles it) is built and its unit tests
# run: an API change that breaks the benchmark fails here.
#
# On a single-core host the parallel path cannot be faster — the gate
# then only requires that the fan-out overhead stays small (speedup
# >= 0.85 instead of >= 1.0). ETAP_THREADS / ETAP_DOCS are honored.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier 1: cargo build --release && cargo test -q =="
cargo build --release
cargo test -q

echo
echo "== benchmark: e2ebench builds and its tests pass =="
cargo build --release --offline --manifest-path e2ebench/Cargo.toml
cargo test --offline --manifest-path e2ebench/Cargo.toml

echo
echo "== throughput: bench_throughput (writes BENCH_pipeline.json) =="
# Capture the committed baseline before the bench overwrites it.
perf_baseline=""
if [ -f BENCH_pipeline.json ]; then
    perf_baseline=$(mktemp)
    cp BENCH_pipeline.json "$perf_baseline"
fi
cargo run -q --release -p etap-bench --bin bench_throughput

# jnum <file> <key>: pull a flat numeric JSON field.
jnum() { sed -n "s/.*\"$2\": \([0-9.]*\).*/\1/p" "$1"; }

cores=$(jnum BENCH_pipeline.json cores)
d1=$(jnum BENCH_pipeline.json docs_per_sec_1t)
s2=$(jnum BENCH_pipeline.json speedup_2t)
s4=$(jnum BENCH_pipeline.json speedup_4t)

# Hardware-scaled speedup floors. The fan-out is capped at the host's
# parallelism (oversubscription only adds context switches), so a
# 1-core host can never beat ~1.0x — there the gate only bounds the
# fan-out overhead, and a 2–3-core host can't be held to the 4-thread
# target.
if [ "$cores" -ge 4 ]; then
    floor2=1.5 floor4=2.5
elif [ "$cores" -ge 2 ]; then
    floor2=1.5 floor4=1.5
else
    floor2=0.85 floor4=0.85
    echo "note: single-core host — parallel speedup is bounded at ~1.0x;"
    echo "      gating only on fan-out overhead (speedup >= $floor2)."
fi

perf_fail=0
gate() { # gate <label> <value> <floor>
    if [ "$(awk -v v="$2" -v f="$3" 'BEGIN { print (v >= f) ? 1 : 0 }')" -ne 1 ]; then
        echo "FAIL: $1 = $2 (floor $3)" >&2
        perf_fail=1
    else
        echo "  ok: $1 = $2 (floor $3)"
    fi
}
gate "speedup_2t" "$s2" "$floor2"
gate "speedup_4t" "$s4" "$floor4"

# Regression gate vs the committed baseline: single-thread docs/sec is
# measurable on any host (unlike speedup), so it must not drop more
# than 10% below what was last committed. Printed as a diff-style
# report, per-stage times included. The bench takes best-of-3 to damp
# shared-host noise; ETAP_PERF_FLOOR overrides the 0.9 ratio on hosts
# whose clock-for-clock throughput genuinely drifts (noisy neighbors).
perf_floor="${ETAP_PERF_FLOOR:-0.9}"
if [ -n "$perf_baseline" ]; then
    base_d1=$(jnum "$perf_baseline" docs_per_sec_1t)
    if [ -n "$base_d1" ]; then
        echo "  perf diff vs committed BENCH_pipeline.json:"
        awk -v b="$base_d1" -v c="$d1" 'BEGIN {
            printf "    %-22s %10.1f  -> %10.1f    (%+.1f%%)\n",
                   "docs_per_sec_1t", b, c, (c / b - 1) * 100 }'
        # Stage names are the dotted keys of the "stages" object.
        for st in $(grep -o '"[a-z]*\.[a-z]*": [0-9.]*' BENCH_pipeline.json \
                    | sed 's/"\([^"]*\)": .*/\1/'); do
            bv=$(jnum "$perf_baseline" "$st")
            cv=$(jnum BENCH_pipeline.json "$st")
            if [ -n "$bv" ] && [ -n "$cv" ]; then
                awk -v n="$st" -v b="$bv" -v c="$cv" 'BEGIN {
                    printf "    %-22s %8.1f ms -> %8.1f ms (%+.1f%%)\n",
                           n, b, c, (b > 0 ? (c / b - 1) * 100 : 0) }'
            fi
        done
        gate "docs_per_sec_1t vs ${perf_floor}x baseline ($base_d1)" "$d1" \
            "$(awk -v b="$base_d1" -v f="$perf_floor" 'BEGIN { print b * f }')"
        # Per-stage floor on the dominant scan stage: annotate ms/doc
        # must stay within perf_floor of the committed baseline. This
        # pins the zero-allocation annotation engine specifically — a
        # regression here can hide inside a globally-noisy docs/sec
        # number, so the stage is gated on its own. Normalized per doc
        # so a different ETAP_DOCS run stays comparable; expressed as a
        # speed ratio (baseline ms-per-doc over current) so the shared
        # `gate >= floor` check applies.
        base_docs=$(jnum "$perf_baseline" docs)
        new_docs=$(jnum BENCH_pipeline.json docs)
        base_ann=$(jnum "$perf_baseline" "scan.annotate")
        new_ann=$(jnum BENCH_pipeline.json "scan.annotate")
        if [ -n "$base_ann" ] && [ -n "$new_ann" ] \
            && [ -n "$base_docs" ] && [ -n "$new_docs" ]; then
            ann_ratio=$(awk -v bm="$base_ann" -v bd="$base_docs" \
                            -v nm="$new_ann" -v nd="$new_docs" \
                'BEGIN { printf "%.3f", (bm / bd) / (nm / nd) }')
            gate "scan.annotate speed vs baseline (${base_ann}ms -> ${new_ann}ms)" \
                "$ann_ratio" "$perf_floor"
        else
            echo "  note: baseline lacks scan.annotate; stage gate skipped."
        fi
    else
        echo "  note: committed baseline predates the 1t/2t/4t schema; regression gate skipped."
    fi
    rm -f "$perf_baseline"
fi
if [ "$perf_fail" -ne 0 ]; then
    echo "FAIL: pipeline perf gate (see above)" >&2
    exit 1
fi

echo
echo "== serve smoke: etap-cli serve + curl + bench_serve =="
smoke_models=$(mktemp -d)
smoke_log=$(mktemp)
store_dir=$(mktemp -d)
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill -9 "$server_pid" 2>/dev/null || true
    rm -rf "$smoke_models" "$smoke_log" "$store_dir"
}
trap cleanup EXIT

# Small but real: train one driver, then serve a fresh crawl from it.
cargo run -q --release --bin etap-cli -- \
    train --out "$smoke_models" --docs 600 --driver cim >/dev/null
cargo run -q --release --bin etap-cli -- \
    serve --models "$smoke_models" --addr 127.0.0.1:0 --docs 120 \
    >"$smoke_log" 2>/dev/null &
server_pid=$!

base=""
for _ in $(seq 1 50); do
    base=$(sed -n 's/^listening on \(http:\/\/[0-9.:]*\)$/\1/p' "$smoke_log")
    [ -n "$base" ] && break
    kill -0 "$server_pid" 2>/dev/null || { echo "FAIL: serve exited early" >&2; exit 1; }
    sleep 0.2
done
[ -n "$base" ] || { echo "FAIL: serve never printed its address" >&2; exit 1; }
echo "serving at $base"

curl -fsS "$base/healthz" | grep -q '"ok": *true' \
    || { echo "FAIL: /healthz not ok" >&2; exit 1; }
curl -fsS "$base/leads?top=3" | grep -q '"leads"' \
    || { echo "FAIL: /leads gave no lead list" >&2; exit 1; }
echo "smoke: /healthz and /leads respond"
kill "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
server_pid=""

cargo run -q --release -p etap-bench --bin bench_serve

shed_rate=$(sed -n 's/.*"shed_rate": \([0-9.]*\).*/\1/p' BENCH_serve.json)
shed_ok=$(awk -v s="$shed_rate" 'BEGIN { print (s == 0) ? 1 : 0 }')
if [ "$shed_ok" -ne 1 ]; then
    echo "FAIL: server shed requests at nominal load (shed_rate ${shed_rate})" >&2
    exit 1
fi

echo
echo "== persistence: publish ×2, kill -9, warm restart, byte parity =="
cargo run -q --release --bin etap-cli -- \
    publish --store "$store_dir" --models "$smoke_models" --docs 120 >/dev/null
cargo run -q --release --bin etap-cli -- \
    publish --store "$store_dir" --extend --docs 60 --seed 11 >/dev/null
echo "published generations: $(ls "$store_dir" | tr '\n' ' ')"

# boot_store <logfile>: warm-start a server from the store; sets the
# globals $server_pid and $base (no subshell — both must survive).
boot_store() {
    : >"$1"
    cargo run -q --release --bin etap-cli -- \
        serve --store "$store_dir" --addr 127.0.0.1:0 >"$1" 2>/dev/null &
    server_pid=$!
    base=""
    for _ in $(seq 1 50); do
        base=$(sed -n 's/^listening on \(http:\/\/[0-9.:]*\)$/\1/p' "$1")
        [ -n "$base" ] && break
        kill -0 "$server_pid" 2>/dev/null \
            || { echo "FAIL: warm serve exited early" >&2; exit 1; }
        sleep 0.2
    done
    [ -n "$base" ] || { echo "FAIL: warm serve never printed its address" >&2; exit 1; }
}

boot_store "$smoke_log"
leads_before=$(curl -fsS "$base/leads?top=100")
gen_before=$(curl -fsS "$base/healthz" | sed -n 's/.*"generation": \([0-9]*\).*/\1/p')
[ "$gen_before" = "2" ] \
    || { echo "FAIL: warm start served generation ${gen_before}, expected 2" >&2; exit 1; }

kill -9 "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
server_pid=""

boot_store "$smoke_log"
leads_after=$(curl -fsS "$base/leads?top=100")
if [ "$leads_before" != "$leads_after" ]; then
    echo "FAIL: /leads differs across kill -9 + warm restart" >&2
    exit 1
fi
echo "crash recovery: /leads byte-identical across kill -9 (generation ${gen_before})"
kill -9 "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
server_pid=""

# The generation counter continues past the crash: the next publish is 3.
cargo run -q --release --bin etap-cli -- \
    publish --store "$store_dir" --extend --docs 40 --seed 13 \
    | grep -q "published generation 3" \
    || { echo "FAIL: generation counter did not continue monotonically" >&2; exit 1; }
echo "generation counter monotonic across restart (next publish was 3)"

cargo run -q --release -p etap-bench --bin bench_persist

echo
echo "== chaos: watch under ETAP_FAULTS, kill -9 mid-cycle, reconverge =="
chaos_store=$(mktemp -d)
chaos_cleanup() {
    rm -rf "$chaos_store"
}
trap 'cleanup; chaos_cleanup' EXIT

# A long-running watch under injected faults: some writes fail (and are
# retried), polls are delayed, the retrain stage panics exactly once.
: >"$smoke_log"
ETAP_FAULTS='persist.write=io@0.05,corpus.poll=delay:20ms@0.2,retrain=panic@once' \
ETAP_FAULT_SEED=11 \
cargo run -q --release --bin etap-cli -- \
    watch --store "$chaos_store" --models "$smoke_models" \
    --addr 127.0.0.1:0 --docs 60 --interval-ms 100 \
    >"$smoke_log" 2>/dev/null &
server_pid=$!
base=""
for _ in $(seq 1 50); do
    base=$(sed -n 's/^listening on \(http:\/\/[0-9.:]*\)$/\1/p' "$smoke_log")
    [ -n "$base" ] && break
    kill -0 "$server_pid" 2>/dev/null \
        || { echo "FAIL: chaos watch exited early" >&2; exit 1; }
    sleep 0.2
done
[ -n "$base" ] || { echo "FAIL: chaos watch never printed its address" >&2; exit 1; }

# Let it cycle through the injected faults until generation >= 3.
chaos_gen=0
for _ in $(seq 1 100); do
    chaos_gen=$(curl -fsS "$base/healthz" 2>/dev/null \
        | sed -n 's/.*"generation": \([0-9]*\).*/\1/p' || echo 0)
    [ -n "$chaos_gen" ] && [ "$chaos_gen" -ge 3 ] && break
    sleep 0.2
done
[ "$chaos_gen" -ge 3 ] \
    || { echo "FAIL: chaos watch stuck at generation ${chaos_gen}" >&2; exit 1; }
echo "chaos watch reached generation ${chaos_gen} under injected faults"

# kill -9 mid-cycle: whatever was in flight must not be served later.
kill -9 "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
server_pid=""

# Two fault-free warm restarts must agree byte-for-byte: the daemon
# only ever serves sealed generations, so the kill lost at most an
# unsealed in-flight cycle.
old_store_dir=$store_dir
store_dir=$chaos_store
boot_store "$smoke_log"
chaos_leads_a=$(curl -fsS "$base/leads?top=100")
chaos_gen_a=$(curl -fsS "$base/healthz" | sed -n 's/.*"generation": \([0-9]*\).*/\1/p')
kill -9 "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
server_pid=""
boot_store "$smoke_log"
chaos_leads_b=$(curl -fsS "$base/leads?top=100")
kill -9 "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
server_pid=""
store_dir=$old_store_dir
[ "$chaos_leads_a" = "$chaos_leads_b" ] \
    || { echo "FAIL: /leads differs across kill -9 of the watch daemon" >&2; exit 1; }
echo "chaos recovery: /leads byte-identical across kill -9 (generation ${chaos_gen_a})"

# Fault-free convergence: a bounded watch run ends healthy and the
# generation counter keeps increasing past everything sealed so far.
chaos_out=$(cargo run -q --release --bin etap-cli -- \
    watch --store "$chaos_store" --docs 60 --cycles 2 --interval-ms 0 \
    --addr 127.0.0.1:0 2>&1 >/dev/null) \
    || { echo "FAIL: fault-free watch run exited non-zero" >&2; exit 1; }
echo "$chaos_out" | grep -q "watch done: 2 cycle(s), 0 failed" \
    || { echo "FAIL: watch did not reconverge: $chaos_out" >&2; exit 1; }
chaos_final=$(echo "$chaos_out" | sed -n 's/.*final generation \([0-9]*\).*/\1/p')
[ "$chaos_final" -gt "$chaos_gen_a" ] \
    || { echo "FAIL: generation not monotone (${chaos_gen_a} -> ${chaos_final})" >&2; exit 1; }
echo "chaos convergence: healthy after faults, generation ${chaos_gen_a} -> ${chaos_final}"

cargo run -q --release -p etap-bench --bin bench_watch

echo
echo "== scale: streamed corpus, sharded LEADS v2, mmap warm start =="
scale_store=$(mktemp -d)
scale_store4=$(mktemp -d)
scale_cleanup() {
    rm -rf "$scale_store" "$scale_store4"
}
trap 'cleanup; chaos_cleanup; scale_cleanup' EXIT

# bench_scale streams the corpus (never materializing it), publishes the
# same book as LEADS v1 text and sharded LEADS v2 binary, republishes a
# small extension incrementally, and measures parse-vs-mmap warm starts.
# CI-bounded to 100k docs; override with ETAP_SCALE_DOCS for the full
# million-document run recorded in the committed BENCH_scale.json.
ETAP_SCALE_DOCS="${ETAP_SCALE_DOCS:-100000}" \
    cargo run -q --release -p etap-bench --bin bench_scale

scale_fail=0
sgate() { # sgate <label> <value> <floor>
    if [ "$(awk -v v="$2" -v f="$3" 'BEGIN { print (v >= f) ? 1 : 0 }')" -ne 1 ]; then
        echo "FAIL: $1 = $2 (floor $3)" >&2
        scale_fail=1
    else
        echo "  ok: $1 = $2 (floor $3)"
    fi
}
warm_speedup=$(jnum BENCH_scale.json warm_speedup)
v2_bytes=$(jnum BENCH_scale.json v2_bytes)
extend_bytes=$(jnum BENCH_scale.json extend_bytes)
n_shards=$(jnum BENCH_scale.json shards)
dirty_shards=$(jnum BENCH_scale.json extend_dirty_shards)
linked_files=$(jnum BENCH_scale.json extend_linked_files)

# The acceptance gates: mmap warm start >= 10x the parsed one, and the
# append publish of the extension writing strictly fewer bytes than the
# full rebuild it replaces while hard-linking every base shard.
sgate "warm_speedup (mmap vs parse)" "$warm_speedup" 10
if [ "$(awk -v e="$extend_bytes" -v f="$v2_bytes" 'BEGIN { print (e < f) ? 1 : 0 }')" -ne 1 ]; then
    echo "FAIL: incremental publish wrote ${extend_bytes} B >= full publish ${v2_bytes} B" >&2
    scale_fail=1
else
    echo "  ok: incremental publish ${extend_bytes} B < full publish ${v2_bytes} B"
fi
if [ "$dirty_shards" -ge "$n_shards" ] || [ "$linked_files" -lt "$n_shards" ]; then
    echo "FAIL: extend linked ${linked_files} of ${n_shards} base shards (${dirty_shards} segment(s) written)" >&2
    scale_fail=1
else
    echo "  ok: extend hard-linked ${linked_files}/${n_shards} base shards, wrote ${dirty_shards} segment(s)"
fi
if [ "$scale_fail" -ne 0 ]; then
    echo "FAIL: scale gate (see above)" >&2
    exit 1
fi

# End to end across formats: the same crawl published as v1 text and
# re-published as sharded v2 must serve byte-identical /leads — across
# a kill -9 and an mmap-backed warm restart.
cargo run -q --release --bin etap-cli -- \
    publish --store "$scale_store" --models "$smoke_models" --docs 120 >/dev/null
cargo run -q --release --bin etap-cli -- \
    publish --store "$scale_store" --models "$smoke_models" --docs 120 \
    --format v2 --shards 8 >/dev/null

old_store_dir=$store_dir
store_dir=$scale_store
boot_store "$smoke_log"
scale_leads_v2=$(curl -fsS "$base/leads?top=100")
scale_gen=$(curl -fsS "$base/healthz" | sed -n 's/.*"generation": \([0-9]*\).*/\1/p')
scale_mmap=$(curl -fsS "$base/metrics" | sed -n 's/^etap_mmap_generations \([0-9]*\)$/\1/p')
[ "$scale_gen" = "2" ] \
    || { echo "FAIL: scale warm start served generation ${scale_gen}, expected 2" >&2; exit 1; }
[ "$scale_mmap" = "1" ] \
    || { echo "FAIL: v2 warm start is not serving from an mmap (etap_mmap_generations=${scale_mmap})" >&2; exit 1; }
kill -9 "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
server_pid=""

boot_store "$smoke_log"
scale_leads_again=$(curl -fsS "$base/leads?top=100")
kill -9 "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
server_pid=""
store_dir=$old_store_dir
[ "$scale_leads_v2" = "$scale_leads_again" ] \
    || { echo "FAIL: /leads differs across kill -9 + mmap warm restart" >&2; exit 1; }

# Byte parity v1 vs v2: gen 1 (text) and gen 2 (binary) hold the same
# crawl, so the CLI multiset diff must be empty.
cargo run -q --release --bin etap-cli -- \
    diff --store "$scale_store" --from 1 --to 2 \
    | grep -q "(+0 / -0)" \
    || { echo "FAIL: v1 and v2 generations of the same crawl disagree" >&2; exit 1; }
echo "scale: v1/v2 byte parity, mmap warm start survives kill -9 (generation ${scale_gen})"

# In-memory extends on a mapped store: two fresh polls extended into two
# copies of the v2 store, scanned with 1 and 4 threads. Each extend
# shares the loaded generation's segments and lays the book out as the
# publish does, so both copies must seal byte-identical generations.
# The extended store then serves byte-identical /leads across a kill -9
# and an mmap warm restart.
cp -a "$scale_store/." "$scale_store4/"
for t in 1 4; do
    ext_store=$scale_store
    [ "$t" = 4 ] && ext_store=$scale_store4
    for ext_seed in 31 32; do
        ETAP_THREADS=$t cargo run -q --release --bin etap-cli -- \
            publish --store "$ext_store" --extend --docs 60 --seed "$ext_seed" \
            --format v2 --shards 8 >/dev/null
    done
done
for g in 3 4; do
    ext_files=$(cd "$scale_store/gen-$g" && find . -type f | sort)
    [ -n "$ext_files" ] && [ "$ext_files" = "$(cd "$scale_store4/gen-$g" && find . -type f | sort)" ] \
        || { echo "FAIL: extended generation $g holds different files at 1 and 4 threads" >&2; exit 1; }
    for f in $ext_files; do
        cmp -s "$scale_store/gen-$g/$f" "$scale_store4/gen-$g/$f" \
            || { echo "FAIL: extended generation $g: $f differs between 1 and 4 threads" >&2; exit 1; }
    done
done

old_store_dir=$store_dir
store_dir=$scale_store
boot_store "$smoke_log"
ext_leads=$(curl -fsS "$base/leads?top=100")
ext_gen=$(curl -fsS "$base/healthz" | sed -n 's/.*"generation": \([0-9]*\).*/\1/p')
ext_mmap=$(curl -fsS "$base/metrics" | sed -n 's/^etap_mmap_generations \([0-9]*\)$/\1/p')
kill -9 "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
server_pid=""
boot_store "$smoke_log"
ext_leads_again=$(curl -fsS "$base/leads?top=100")
kill -9 "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
server_pid=""
store_dir=$old_store_dir
[ "$ext_gen" = "4" ] && [ "$ext_mmap" = "1" ] \
    || { echo "FAIL: extended store warm start served generation ${ext_gen} (mmap ${ext_mmap})" >&2; exit 1; }
[ "$ext_leads" = "$ext_leads_again" ] \
    || { echo "FAIL: /leads of the extended store differs across kill -9 + mmap warm restart" >&2; exit 1; }
echo "scale: extends at 1 and 4 threads seal identical generations; /leads survives kill -9 (generation ${ext_gen})"

echo
echo "== drivers as data: DRIVERS file -> train -> publish v2 -> crash + thread parity =="
drv_models=$(mktemp -d)
drv_models4=$(mktemp -d)
drv_store=$(mktemp -d)
drv_store4=$(mktemp -d)
drv_cleanup() {
    rm -rf "$drv_models" "$drv_models4" "$drv_store" "$drv_store4"
}
trap 'cleanup; chaos_cleanup; scale_cleanup; drv_cleanup' EXIT

# The committed driver pack must match what the emitter writes today
# (checksum trailer included) — the same invariant the integration
# tests pin, but here against the real binary.
cargo run -q --release --bin etap-cli -- example-drivers \
    | cmp -s - drivers/extra.drivers \
    || { echo "FAIL: drivers/extra.drivers drifted from 'etap-cli example-drivers'" >&2; exit 1; }

# Train the two shipped example drivers purely from the data file — no
# driver-specific Rust anywhere in this stage. Both drivers train off
# one shared negative pool; training it again at 4 threads must write
# byte-identical models (the pool's chunked parallel merge, end to end).
for t in 1 4; do
    out=$drv_models
    [ "$t" = 4 ] && out=$drv_models4
    ETAP_THREADS=$t cargo run -q --release --bin etap-cli -- \
        train --out "$out" --docs 900 --drivers drivers/extra.drivers \
        --driver funding-rounds,executive-hires >/dev/null
done
for m in funding-rounds executive-hires; do
    [ -f "$drv_models/$m.model" ] \
        || { echo "FAIL: train --drivers did not write $m.model" >&2; exit 1; }
    cmp -s "$drv_models/$m.model" "$drv_models4/$m.model" \
        || { echo "FAIL: $m.model differs between ETAP_THREADS=1 and =4" >&2; exit 1; }
done
echo "drivers: custom .model files byte-identical at 1 vs 4 training threads"

# Publish as sharded LEADS v2 single-threaded (custom driver codes
# travel in the book's code table).
ETAP_THREADS=1 cargo run -q --release --bin etap-cli -- \
    publish --store "$drv_store" --models "$drv_models" --docs 150 \
    --drivers drivers/extra.drivers --format v2 --shards 4 >/dev/null

# Warm-start WITHOUT --drivers: the sealed v2 book is self-describing,
# so the server must resolve the custom keys from the code table alone.
old_store_dir=$store_dir
store_dir=$drv_store
boot_store "$smoke_log"
drv_leads=$(curl -fsS "$base/leads?driver=funding-rounds&top=50")
echo "$drv_leads" | grep -q '"driver":"funding-rounds"' \
    || { echo "FAIL: no funding-rounds leads served from the data-file driver" >&2; exit 1; }
unknown_code=$(curl -s -o /dev/null -w '%{http_code}' "$base/leads?driver=no-such-driver")
[ "$unknown_code" = "404" ] \
    || { echo "FAIL: unknown driver key gave ${unknown_code}, expected 404" >&2; exit 1; }

kill -9 "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
server_pid=""

boot_store "$smoke_log"
drv_leads_again=$(curl -fsS "$base/leads?driver=funding-rounds&top=50")
kill -9 "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
server_pid=""
[ "$drv_leads" = "$drv_leads_again" ] \
    || { echo "FAIL: custom-driver /leads differs across kill -9 + warm restart" >&2; exit 1; }
echo "drivers: funding-rounds /leads byte-identical across kill -9"

# Thread parity: the same publish at ETAP_THREADS=4 must seal a book
# that serves bit-identical /leads for the custom driver.
ETAP_THREADS=4 cargo run -q --release --bin etap-cli -- \
    publish --store "$drv_store4" --models "$drv_models" --docs 150 \
    --drivers drivers/extra.drivers --format v2 --shards 4 >/dev/null
store_dir=$drv_store4
boot_store "$smoke_log"
drv_leads_4t=$(curl -fsS "$base/leads?driver=funding-rounds&top=50")
kill -9 "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
server_pid=""
store_dir=$old_store_dir
[ "$drv_leads" = "$drv_leads_4t" ] \
    || { echo "FAIL: custom-driver /leads differs between ETAP_THREADS=1 and =4" >&2; exit 1; }
echo "drivers: funding-rounds /leads bit-identical at 1 vs 4 threads"

echo
echo "OK: verify passed (1t ${d1} docs/s, speedup ${s2}x/${s4}x on ${cores} core(s), shed_rate ${shed_rate}, warm_speedup ${warm_speedup}x)"
