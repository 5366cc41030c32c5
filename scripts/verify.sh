#!/usr/bin/env bash
# Repository verification: every stage must pass, and the script leaves
# every committed file as it found it.
#
# 1. tier 1: `cargo build --release && cargo test -q`, after
#    `cargo fmt --all --check` (rustfmt defaults; `e2ebench/` is its own
#    workspace, so `--all` leaves it alone) and
#    `cargo clippy --all-targets -- -D warnings` (clippy's default lints,
#    every target of the workspace, no warning allowed) and
#    `RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace` (no
#    broken, private or ambiguous intra-doc link, no stray HTML tag);
# 2. e2ebench: the end-to-end benchmark (`e2ebench/`, its own workspace,
#    so tier 1 never compiles it) builds and its unit tests pass; then
#    its three workloads run traced at seed 101 for 5 s each, and the
#    exact-counter gate compares them with the committed BENCH_e2e.json:
#    every run correct with no failed check, each workload's output
#    digest equal, and each counter in E2E_COUNTERS equal to or better
#    than its committed value ("better" as BENCHMARK.json declares it).
#    No floor, ratio or knob: these counters do not drift with the host.
#    A gate self-test then feeds the comparator doctored baselines (one
#    counter one unit better than the fresh run, one digest flipped)
#    and fails unless it rejects both. A change that alters output
#    re-records the baseline: copy .bench_out/BENCH_e2e.json over
#    BENCH_e2e.json and say so in CHANGES.md;
# 3. throughput: over 30 interleaved pairs of bench_throughput runs from
#    this tree and from the base revision (HEAD when the working tree
#    differs from it; else, on a branch that is not main's tip, its
#    merge base with main; else HEAD~1), the median ratio of single-thread
#    docs/sec, scan.annotate ms and the 2-/4-thread speedups must each
#    stay within a constant bound. A self-test fails unless the gate
#    rejects the base with a sed-slowed annotation stage and accepts it
#    paired with itself;
# 4. serve smoke: boots `etap-cli serve` on an ephemeral port and curls
#    /healthz and /leads;
# 5. persistence: publishes two generations into a store, serves them
#    warm, kill -9s the server, restarts it from disk, and fails unless
#    /leads is byte-identical across the crash and the generation
#    counter continues monotonically;
# 6. chaos: runs the `watch` daemon under deterministic fault injection
#    (ETAP_FAULTS: injected write errors, delayed polls, one panic),
#    kill -9s it mid-cycle, and fails unless a warm restart serves the
#    last sealed generation byte-for-byte and a fault-free watch run
#    then converges back to healthy with the generation counter still
#    monotone;
# 7. scale: bench_scale (100k docs unless ETAP_SCALE_DOCS says
#    otherwise), run in a scratch directory, gated on mmap warm start
#    >= 10x the parsed one and an append publish that writes fewer bytes
#    than a full one and hard-links every base shard; then v1/v2 byte
#    parity, extends sealing identical generations at 1 and 4 threads,
#    and /leads across kill -9 and mmap warm restarts;
# 8. drivers as data: the DRIVERS file trains byte-identical models at 1
#    and 4 threads and serves identical /leads across kill -9 and thread
#    counts.
#
# Finally, every tracked BENCH_*.json must match its checksum taken at
# the start. ETAP_THREADS / ETAP_DOCS are honored.
set -euo pipefail
cd "$(dirname "$0")/.."
repo=$(pwd)

work=$(mktemp -d)
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill -9 "$server_pid" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

bench_sums="$work/bench.sha256"
(git ls-files 'BENCH_*.json' 2>/dev/null || ls BENCH_*.json) | xargs -r sha256sum >"$bench_sums"

# jnum <file> <key>: pull a flat numeric JSON field.
jnum() { sed -n "s/.*\"$2\": \([0-9.]*\).*/\1/p" "$1"; }

echo "== tier 1: cargo fmt --all --check, cargo clippy, cargo doc, cargo build --release && cargo test -q =="
cargo fmt --all --check
cargo clippy --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
cargo build --release
cargo test -q

echo
echo "== benchmark: e2ebench builds and its tests pass =="
cargo build --release --offline --manifest-path e2ebench/Cargo.toml
cargo test --offline --manifest-path e2ebench/Cargo.toml

echo
echo "== e2ebench: exact counters and digests vs BENCH_e2e.json =="
E2E_COUNTERS="scan.events scan.allocs_per_doc scan.alloc_bytes_per_doc
    book.events book.companies store.publish_wchar_bytes
    store.publish_bytes_written store.publish_files_written
    store.bytes_written store.write_calls store.files_written
    store.link_ratio serve.shed watch.retries watch.cycles_failed"

# e2e_gate <baseline> <fresh>: both files hold the record and result
# line of each run, as BENCH_e2e.json does. Fails, naming every miss,
# unless each baseline workload has a fresh run that is correct with no
# failed check, has the baseline's digest, and reads every counter in
# E2E_COUNTERS equal to or better than the baseline.
e2e_gate() {
    awk -v counters="$E2E_COUNTERS" '
        function str(line, key,   i, rest) {
            i = index(line, "\"" key "\": \"")
            if (!i) return ""
            rest = substr(line, i + length(key) + 5)
            return substr(rest, 1, index(rest, "\"") - 1)
        }
        function num(line, key,   i, rest) {
            i = index(line, "\"" key "\": {\"value\": ")
            if (!i) return ""
            rest = substr(line, i + length(key) + 14)
            return substr(rest, 1, match(rest, /[,}]/) - 1)
        }
        function miss(msg) { print "FAIL: " msg > "/dev/stderr"; bad = missed = 1 }
        FNR == 1 { file++ }
        file == 1 && /"name":/ { name = $0; gsub(/.*"name": *"|".*/, "", name) }
        file == 1 && /"better":/ { b = $0; gsub(/.*"better": *"|".*/, "", b); better[name] = b }
        file > 1 && /^\{"record":/ { w = str($0, "workload"); digest[file, w] = str($0, "digest") }
        file > 1 && /^\{"correct":/ { result[file, w] = $0; if (file == 2) order[++n] = w }
        END {
            split(counters, names, /[ \n]+/)
            for (k = 1; k <= n; k++) {
                w = order[k]; base = result[2, w]; now = result[3, w]; missed = 0
                if (now == "") { miss(w ": no fresh run"); continue }
                if (now !~ /^\{"correct": true, "attempted": [0-9]+, "failed": 0,/)
                    miss(w ": run not correct or with failed checks")
                if (digest[3, w] != digest[2, w])
                    miss(w ": digest " digest[3, w] ", committed " digest[2, w])
                for (j = 1; j in names; j++) {
                    m = names[j]; if (m == "") continue
                    b = num(base, m); v = num(now, m)
                    if (b == "" || v == "") { miss(w ": " m " missing"); continue }
                    if ((better[m] == "higher" && v + 0 < b + 0) ||
                        (better[m] == "lower" && v + 0 > b + 0) ||
                        (better[m] != "higher" && better[m] != "lower"))
                        miss(w ": " m " = " v ", committed " b " (better: " better[m] ")")
                }
                if (!missed) print "  ok: " w " digest " digest[3, w] ", every counter equal or better"
                fflush()
            }
            exit bad
        }
    ' BENCHMARK.json "$1" "$2"
}

e2e_bin="${CARGO_TARGET_DIR:-e2ebench/target}/release/etap-e2e-bench"
e2e_fresh=.bench_out/BENCH_e2e.json
mkdir -p .bench_out
{
    echo "["
    for w in crawl serve watch; do
        "$e2e_bin" --workload "$w" --seed 101 --seconds 5 --trace 1 | tail -n 2
    done | sed '$!s/$/,/'
    echo "]"
} >"$e2e_fresh"
if ! e2e_gate BENCH_e2e.json "$e2e_fresh"; then
    echo "FAIL: e2ebench gate; if the output change is intended, copy" \
        "$e2e_fresh over BENCH_e2e.json and say so in CHANGES.md" >&2
    exit 1
fi

# Gate self-test: the comparator must reject a baseline one counter unit
# better than the fresh crawl run, and one whose crawl digest differs.
crawl_line=$(($(grep -n '"workload": "crawl"' "$e2e_fresh" | cut -d: -f1) + 1))
events=$(sed -n "${crawl_line}s/.*\"book.events\": {\"value\": \([0-9.]*\).*/\1/p" "$e2e_fresh")
sed "${crawl_line}s/\"book.events\": {\"value\": [0-9.]*/\"book.events\": {\"value\": $(awk -v v="$events" 'BEGIN { print v + 1 }')/" \
    BENCH_e2e.json >"$work/doctored-counter.json"
digest=$(sed -n 's/.*"workload": "crawl".*"digest": "\([0-9a-f]*\)".*/\1/p' BENCH_e2e.json)
flipped="${digest%?}$(printf '%s' "${digest: -1}" | tr '0-9a-f' '1-9a-f0')"
sed "s/\"digest\": \"$digest\"/\"digest\": \"$flipped\"/" BENCH_e2e.json >"$work/doctored-digest.json"
for probe in "counter:book.events = $events, committed" "digest:digest $digest, committed $flipped"; do
    if out=$(e2e_gate "$work/doctored-${probe%%:*}.json" "$e2e_fresh" 2>&1); then
        echo "FAIL: e2ebench gate accepted a doctored ${probe%%:*}" >&2
        exit 1
    fi
    echo "$out" | grep -qF "crawl: ${probe#*:}" \
        || { echo "FAIL: e2ebench gate rejected the doctored ${probe%%:*} for another reason: $out" >&2; exit 1; }
    echo "  ok: gate rejects a doctored ${probe%%:*}"
done

echo
echo "== throughput: bench_throughput paired with the base build =="
# One timing rule: each figure is the median, over THROUGHPUT_PAIRS
# interleaved runs, of the ratio of this tree's bench_throughput to the
# base revision's, held to a constant bound. The bounds come from 200
# A/A pairs (two builds of one commit) on a 2-vCPU shared VM, recorded
# in CHANGES.md: single pairs read 0.38-1.71 there, and a 30-pair median
# crosses one of these bounds in ~0.6% of resamples.
THROUGHPUT_PAIRS=30
THROUGHPUT_GATES="docs_per_sec_1t 1 higher 0.91
scan.annotate 2 lower 1.08
speedup_2t 3 higher 0.87
speedup_4t 4 higher 0.87"
# The base is where the change under test starts: HEAD for a dirty
# tree; for a clean branch other than main's tip, its merge base with
# main, so a change committed in several commits is gated as a whole;
# else HEAD~1.
base_rev=HEAD~1
if [ -n "$(git status --porcelain)" ]; then
    base_rev=HEAD
elif main_tip=$(git rev-parse -q --verify main) && [ "$(git rev-parse HEAD)" != "$main_tip" ]; then
    fork=$(git merge-base HEAD main || true)
    [ -z "$fork" ] || [ "$fork" = "$(git rev-parse HEAD)" ] || base_rev=$fork
fi
tree_bench="${CARGO_TARGET_DIR:-$repo/target}/release/bench_throughput"

# build_bench <dir> [sed script]: export the base revision into <dir>,
# apply the sed script to its crates/core/src/events.rs, and build its
# bench_throughput under <dir>/target.
build_bench() {
    mkdir "$1"
    git archive "$base_rev" | tar -x -C "$1"
    [ -z "${2:-}" ] || sed -i "$2" "$1/crates/core/src/events.rs"
    CARGO_TARGET_DIR="$1/target" cargo build -q --release --offline \
        --manifest-path "$1/Cargo.toml" -p etap-bench --bin bench_throughput
}

# bench_figures <bench>: one run, from $work (older builds write a file
# into the working directory); prints its docs_per_sec_1t, scan.annotate,
# speedup_2t and speedup_4t.
bench_figures() {
    (cd "$work" && "$1") | sed -n 's/.*"docs_per_sec_1t": \([0-9.]*\).*"speedup_2t": \([0-9.]*\), "speedup_4t": \([0-9.]*\).*"scan.annotate": \([0-9.]*\).*/\1 \4 \2 \3/p' | tail -n 1
}

# paired_ratios <bench A> <bench B>: THROUGHPUT_PAIRS pairs of runs, A
# first in odd pairs; one line per pair of the ratios A/B of the figures
# in THROUGHPUT_GATES.
paired_ratios() {
    local i a b
    for i in $(seq 1 "$THROUGHPUT_PAIRS"); do
        if [ $((i % 2)) -eq 1 ]; then
            a=$(bench_figures "$1"); b=$(bench_figures "$2")
        else
            b=$(bench_figures "$2"); a=$(bench_figures "$1")
        fi
        echo "$a $b" | awk 'NF != 8 { exit 1 } { printf "%.4f %.4f %.4f %.4f\n", $1 / $5, $2 / $6, $3 / $7, $4 / $8 }' \
            || { echo "FAIL: a bench_throughput run printed no complete record" >&2; exit 1; }
    done
}

# pair_gate <ratios>: fails, naming every miss, unless each figure's
# median ratio is within its bound in THROUGHPUT_GATES.
pair_gate() {
    local bad=0 name col better bound med
    while read -r name col better bound; do
        med=$(cut -d' ' -f"$col" "$1" | sort -g | awk '{ v[NR] = $1 }
            END { printf "%.3f", NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }')
        if awk -v m="$med" -v b="$bound" -v w="$better" 'BEGIN { exit !(w == "higher" ? m >= b : m <= b) }'; then
            echo "  ok: $name median ratio $med (bound: $better than $bound)"
        else
            echo "FAIL: $name median ratio $med (bound: $better than $bound)" >&2
            bad=1
        fi
    done <<<"$THROUGHPUT_GATES"
    return "$bad"
}

echo "base: $base_rev ($(git rev-parse --short "$base_rev")), $THROUGHPUT_PAIRS pairs per comparison"
build_bench "$work/base"
base_bench="$work/base/target/release/bench_throughput"
paired_ratios "$tree_bench" "$base_bench" >"$work/tree.ratios"
pair_gate "$work/tree.ratios" || { echo "FAIL: throughput gate, this tree vs $base_rev" >&2; exit 1; }

# Gate self-test: the base with its annotation stage spinning 16
# black-boxed steps per snippet byte (scan.annotate 1.31x slower, median
# of 40 pairs on the VM above) must fail on scan.annotate, and the base
# paired with itself must pass.
build_bench "$work/slow" 's/let _t = STAGE_ANNOTATE.scope();/&(0..snippet.len() * 16).for_each(|i| { std::hint::black_box(i); });/'
paired_ratios "$work/slow/target/release/bench_throughput" "$base_bench" >"$work/slow.ratios"
if out=$(pair_gate "$work/slow.ratios" 2>&1) || ! echo "$out" | grep -q "^FAIL: scan.annotate"; then
    echo "FAIL: throughput gate did not reject the slowed copy on scan.annotate" \
        "(does its patch still apply to events.rs?): $out" >&2
    exit 1
fi
echo "  ok: gate rejects the slowed copy ($(echo "$out" | grep "^FAIL: scan.annotate" | cut -d' ' -f2-5))"
paired_ratios "$base_bench" "$base_bench" >"$work/aa.ratios"
pair_gate "$work/aa.ratios" >/dev/null || { echo "FAIL: throughput gate rejected the base paired with itself" >&2; exit 1; }
echo "  ok: gate accepts the base paired with itself"

echo
echo "== serve smoke: etap-cli serve + curl =="
smoke_models="$work/models"
smoke_log="$work/serve.log"
store_dir="$work/store"
chaos_store="$work/chaos-store"
scale_store="$work/scale-store"
scale_store4="$work/scale-store4"
drv_models="$work/drv-models"
drv_models4="$work/drv-models4"
drv_store="$work/drv-store"
drv_store4="$work/drv-store4"
mkdir "$smoke_models" "$store_dir" "$chaos_store" "$scale_store" "$scale_store4" \
    "$drv_models" "$drv_models4" "$drv_store" "$drv_store4"

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

# kill_server: kill -9 the running server and reap it.
kill_server() {
    kill -9 "$server_pid" 2>/dev/null || true
    wait "$server_pid" 2>/dev/null || true
    server_pid=""
}

boot_store "$smoke_log"
leads_before=$(curl -fsS "$base/leads?top=100")
gen_before=$(curl -fsS "$base/healthz" | sed -n 's/.*"generation": \([0-9]*\).*/\1/p')
[ "$gen_before" = "2" ] \
    || { echo "FAIL: warm start served generation ${gen_before}, expected 2" >&2; exit 1; }

kill_server

boot_store "$smoke_log"
leads_after=$(curl -fsS "$base/leads?top=100")
if [ "$leads_before" != "$leads_after" ]; then
    echo "FAIL: /leads differs across kill -9 + warm restart" >&2
    exit 1
fi
echo "crash recovery: /leads byte-identical across kill -9 (generation ${gen_before})"
kill_server

# The generation counter continues past the crash: the next publish is 3.
cargo run -q --release --bin etap-cli -- \
    publish --store "$store_dir" --extend --docs 40 --seed 13 \
    | grep -q "published generation 3" \
    || { echo "FAIL: generation counter did not continue monotonically" >&2; exit 1; }
echo "generation counter monotonic across restart (next publish was 3)"

echo
echo "== chaos: watch under ETAP_FAULTS, kill -9 mid-cycle, reconverge =="
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
kill_server

# Two fault-free warm restarts must agree byte-for-byte: the daemon
# only ever serves sealed generations, so the kill lost at most an
# unsealed in-flight cycle.
old_store_dir=$store_dir
store_dir=$chaos_store
boot_store "$smoke_log"
chaos_leads_a=$(curl -fsS "$base/leads?top=100")
chaos_gen_a=$(curl -fsS "$base/healthz" | sed -n 's/.*"generation": \([0-9]*\).*/\1/p')
kill_server
boot_store "$smoke_log"
chaos_leads_b=$(curl -fsS "$base/leads?top=100")
kill_server
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

echo
echo "== scale: streamed corpus, sharded LEADS v2, mmap warm start =="
# bench_scale streams the corpus (never materializing it), publishes the
# same book as LEADS v1 text and sharded LEADS v2 binary, republishes a
# small extension incrementally, and measures parse-vs-mmap warm starts.
# CI-bounded to 100k docs; override with ETAP_SCALE_DOCS for the full
# million-document run recorded in the committed BENCH_scale.json. It
# runs in a scratch directory, so that record stays as committed.
mkdir "$work/scale"
(cd "$work/scale" && ETAP_SCALE_DOCS="${ETAP_SCALE_DOCS:-100000}" \
    cargo run -q --release --manifest-path "$repo/Cargo.toml" -p etap-bench --bin bench_scale)
scale="$work/scale/BENCH_scale.json"

scale_fail=0
sgate() { # sgate <label> <value> <floor>
    if [ "$(awk -v v="$2" -v f="$3" 'BEGIN { print (v >= f) ? 1 : 0 }')" -ne 1 ]; then
        echo "FAIL: $1 = $2 (floor $3)" >&2
        scale_fail=1
    else
        echo "  ok: $1 = $2 (floor $3)"
    fi
}
warm_speedup=$(jnum "$scale" warm_speedup)
v2_bytes=$(jnum "$scale" v2_bytes)
extend_bytes=$(jnum "$scale" extend_bytes)
n_shards=$(jnum "$scale" shards)
dirty_shards=$(jnum "$scale" extend_dirty_shards)
linked_files=$(jnum "$scale" extend_linked_files)

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
kill_server

boot_store "$smoke_log"
scale_leads_again=$(curl -fsS "$base/leads?top=100")
kill_server
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
kill_server
boot_store "$smoke_log"
ext_leads_again=$(curl -fsS "$base/leads?top=100")
kill_server
store_dir=$old_store_dir
[ "$ext_gen" = "4" ] && [ "$ext_mmap" = "1" ] \
    || { echo "FAIL: extended store warm start served generation ${ext_gen} (mmap ${ext_mmap})" >&2; exit 1; }
[ "$ext_leads" = "$ext_leads_again" ] \
    || { echo "FAIL: /leads of the extended store differs across kill -9 + mmap warm restart" >&2; exit 1; }
echo "scale: extends at 1 and 4 threads seal identical generations; /leads survives kill -9 (generation ${ext_gen})"

echo
echo "== drivers as data: DRIVERS file -> train -> publish v2 -> crash + thread parity =="
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

kill_server

boot_store "$smoke_log"
drv_leads_again=$(curl -fsS "$base/leads?driver=funding-rounds&top=50")
kill_server
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
kill_server
store_dir=$old_store_dir
[ "$drv_leads" = "$drv_leads_4t" ] \
    || { echo "FAIL: custom-driver /leads differs between ETAP_THREADS=1 and =4" >&2; exit 1; }
echo "drivers: funding-rounds /leads bit-identical at 1 vs 4 threads"

echo
echo "== committed files: every tracked BENCH_*.json as at the start =="
sha256sum --quiet -c "$bench_sums" \
    || { echo "FAIL: a committed BENCH_*.json changed during verify" >&2; exit 1; }
echo "  ok: $(wc -l <"$bench_sums") BENCH_*.json file(s) unchanged"

echo
echo "OK: verify passed (e2ebench counters and digests as committed, throughput within its bounds of $base_rev, warm_speedup ${warm_speedup}x)"
