#!/usr/bin/env sh
# CI gate: release build, full test suite, and lint-clean under clippy.
# Run from anywhere; operates on the repo this script lives in.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> benchmark tests: known answers, same-seed determinism, metric listing"
# perfbench is a Cargo workspace of its own, so the run above never
# reaches it. Running its suite here makes an analysis change that breaks
# a known answer fail CI, not only a benchmark run.
cargo test --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> multi-job determinism: iwa check -j 1/2/8 agree byte-for-byte on each corpus"
# A step budget (not a wall-clock one) keeps trip-vs-complete independent
# of scheduling. Only the wall-clock fields (elapsed_ms, wall_ms) may vary
# between runs, so mask exactly those — everything else, the meta.metrics
# counters included, is diffed raw. This also exercises the worker pool
# end to end on every CI run. Each directory deliberately contains
# anomalies, so each run must exit 1; anything else is a real failure.
mask='s/"elapsed_ms": [0-9][0-9]*/"elapsed_ms": 0/g;s/"wall_ms": [0-9][0-9]*/"wall_ms": 0/g'
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
for dir in corpus corpus/locks corpus/channels; do
    for j in 1 2 8; do
        status=0
        ./target/release/iwa check "$dir" --json --max-steps 200000 -j "$j" \
            > "$tmpdir/raw-j$j.json" || status=$?
        [ "$status" -eq 1 ] || { echo "iwa check $dir -j $j exited $status, want 1" >&2; exit 1; }
        grep -q '"schema_version"' "$tmpdir/raw-j$j.json"
        sed "$mask" "$tmpdir/raw-j$j.json" > "$tmpdir/check-j$j.json"
    done
    diff "$tmpdir/check-j1.json" "$tmpdir/check-j2.json"
    diff "$tmpdir/check-j1.json" "$tmpdir/check-j8.json"
done

echo "==> check golden: iwa check corpus --json matches tests/golden byte-for-byte"
# The stage above compares job counts only against each other, and the
# lint goldens run the full registry through iwa lint, so this pins the
# quick-lint diagnostics and verdicts iwa check reports per file. The long
# deadline leaves the step ceiling as the only budget that can trip. To
# regenerate the golden after an intended change, send the masked output
# to the golden file instead of the temp file.
status=0
./target/release/iwa check corpus --json --max-steps 200000 --deadline-ms 600000 -j 1 \
    > "$tmpdir/check-golden-raw.json" || status=$?
[ "$status" -eq 1 ] || { echo "iwa check corpus exited $status, want 1" >&2; exit 1; }
sed "$mask" "$tmpdir/check-golden-raw.json" > "$tmpdir/check-golden.json"
diff tests/golden/check_corpus.json "$tmpdir/check-golden.json"

echo "==> bench trajectory gate"
# One smoke run, gated on its step counts against the committed
# trajectory (reports/bench_history.jsonl; >15% regression on any family
# fails). CI never appends to the trajectory (--no-history) so the gate
# stays anchored to the committed record.
./target/release/iwa bench --smoke --validate --no-history

echo "==> lint goldens: iwa lint on each corpus matches tests/golden byte-for-byte"
# Text and SARIF per directory, each against tests/golden/<golden>.txt and
# .sarif. Exit 1 is expected: each directory deliberately contains denials.
for pair in corpus:corpus_lints corpus/locks:corpus_locks corpus/channels:corpus_channels; do
    dir="${pair%%:*}"
    golden="tests/golden/${pair#*:}"
    for format in text sarif; do
        ext=txt
        [ "$format" = text ] || ext=sarif
        status=0
        ./target/release/iwa lint "$dir" --format "$format" > "$tmpdir/lint.$ext" || status=$?
        [ "$status" -eq 1 ] || { echo "iwa lint $dir ($format) exited $status, want 1" >&2; exit 1; }
        diff "$golden.$ext" "$tmpdir/lint.$ext"
    done
    grep -q '"\$schema": "https://json.schemastore.org/sarif-2.1.0.json"' "$tmpdir/lint.sarif"
done

echo "==> locks corpus: analyze drives the .lok frontend end to end"
# The seeded acceptance case: the three-mutex ring is anomalous with a
# span-anchored acquisition-chain witness.
status=0
./target/release/iwa analyze corpus/locks/three_cycle.lok > "$tmpdir/three_cycle.txt" || status=$?
[ "$status" -eq 1 ] || { echo "analyze three_cycle.lok exited $status, want 1" >&2; exit 1; }
grep -q 'a → b → c → a' "$tmpdir/three_cycle.txt"
grep -q 'holds a (6:13) while locking b (6:21)' "$tmpdir/three_cycle.txt"

echo "==> channels corpus: analyze drives the .chan frontend end to end"
# The seeded acceptance case: the default-spinning poller is anomalous
# with a span-anchored livelock witness and a starved-arm rationale.
status=0
./target/release/iwa analyze corpus/channels/select_default_spin.chan > "$tmpdir/spin.txt" || status=$?
[ "$status" -eq 1 ] || { echo "analyze select_default_spin.chan exited $status, want 1" >&2; exit 1; }
grep -q 'spins on select default' "$tmpdir/spin.txt"
grep -q 'can never fire' "$tmpdir/spin.txt"

echo "==> corpus verdicts: plain iwa analyze answers every // expect: header"
# Default flags only: the ladder from the oracle rung under a 2000 ms
# deadline, the defaults iwa check uses. A file whose header is clean
# must exit 0; deadlock, stall and livelock must exit 1. Other headers
# (stall-free-with-transforms, no-deadlock) name no single exit code.
checked=0
for f in corpus/*.iwa corpus/locks/*.lok corpus/channels/*.chan; do
    expect="$(sed -n 's|^// expect: *\([a-z-]*\).*|\1|p' "$f" | head -n 1)"
    case "$expect" in
        clean) want=0 ;;
        deadlock|stall|livelock) want=1 ;;
        *) continue ;;
    esac
    status=0
    ./target/release/iwa analyze "$f" > "$tmpdir/expect.txt" || status=$?
    [ "$status" -eq "$want" ] || {
        echo "iwa analyze $f exited $status, want $want (expect: $expect)" >&2
        exit 1
    }
    checked=$((checked + 1))
done
echo "$checked corpus files answered as their headers expect"

# Every fixture and corpus file, for the graph and analyze stages below.
specs="$(./target/release/iwa fixtures | cut -d' ' -f1)
$(echo corpus/*.iwa corpus/lints/*.iwa corpus/locks/*.lok corpus/channels/*.chan)"

echo "==> graph goldens: iwa graph and iwa graph --clg on every fixture and corpus file"
# Each input's DOT under a `// <input>` header, diffed byte-for-byte
# against tests/golden/graph_sync.dot and tests/golden/graph_clg.dot. To
# regenerate a golden after an intended change, send the loop's output to
# the golden file instead of the temp file.
for flag in "" --clg; do
    golden=tests/golden/graph_sync.dot
    [ -z "$flag" ] || golden=tests/golden/graph_clg.dot
    for spec in $specs; do
        echo "// $spec"
        ./target/release/iwa graph "$spec" $flag
    done > "$tmpdir/graph.dot"
    diff "$golden" "$tmpdir/graph.dot"
done

echo "==> analyze goldens: every refined rung and the naive floor on every fixture and corpus file"
# The corpus check above answers every file at the oracle rung, so this
# stage pins what the lower rungs report: flagged heads, witness-component
# sizes, steps and the meta.metrics counters. Entries are
# {"spec", "start", "exit", "report"} with the -j stage's mask applied to
# the report, collected into one JSON array and diffed byte-for-byte
# against tests/golden/analyze_rungs.json. To regenerate the golden after
# an intended change, send the block's output to the golden file instead
# of the temp file.
{
    echo "["
    sep=""
    for spec in $specs; do
        for start in headtails pairs heads naive; do
            status=0
            ./target/release/iwa analyze "$spec" --json --start "$start" \
                --max-steps 200000 > "$tmpdir/rung.json" || status=$?
            # 0 clean, 1 anomalous, 3 degraded; anything else is a failure.
            case "$status" in
                0 | 1 | 3) ;;
                *)
                    echo "iwa analyze $spec --start $start exited $status" >&2
                    exit 1
                    ;;
            esac
            printf '%s{"spec": "%s", "start": "%s", "exit": %s, "report":\n' \
                "$sep" "$spec" "$start" "$status"
            sed "$mask" "$tmpdir/rung.json"
            echo "}"
            sep=","
        done
    done
    echo "]"
} > "$tmpdir/analyze_rungs.json"
diff tests/golden/analyze_rungs.json "$tmpdir/analyze_rungs.json"

echo "==> analyze -j determinism: every refined rung agrees at -j 1/2/8"
# The golden above runs each rung on one worker. With more, the per-head
# search fans out across workers and the relation tables are built by
# whichever worker first reads them; the masked reports must not change.
for j in 1 2 8; do
    for spec in $specs; do
        for start in headtails pairs heads; do
            status=0
            ./target/release/iwa analyze "$spec" --json --start "$start" \
                --max-steps 200000 -j "$j" > "$tmpdir/rung.json" || status=$?
            case "$status" in
                0 | 1 | 3) ;;
                *)
                    echo "iwa analyze $spec --start $start -j $j exited $status" >&2
                    exit 1
                    ;;
            esac
            echo "// $spec --start $start: exit $status"
            sed "$mask" "$tmpdir/rung.json"
        done
    done > "$tmpdir/rungs-j$j.txt"
done
diff "$tmpdir/rungs-j1.txt" "$tmpdir/rungs-j2.txt"
diff "$tmpdir/rungs-j1.txt" "$tmpdir/rungs-j8.txt"

echo "==> serve smoke: the daemon routes .lok and .chan requests through their frontends"
cargo test -q -p iwa-serve --test serve lok_requests_route_through_the_lock_frontend
cargo test -q -p iwa-serve --test serve chan_requests_route_through_the_channel_frontend
# One write per frame and TCP_NODELAY: a client waiting for each reply
# never pays the peer's delayed ACK (100 sequential round trips < 1 s).
cargo test -q -p iwa-serve --test serve sequential_round_trips_do_not_wait_for_a_delayed_ack
# A listener blocked in accept: a fresh connection per request never
# waits for a poll (100 connect-ping-close round trips < 500 ms).
cargo test -q -p iwa-serve --test serve fresh_connections_do_not_wait_for_a_listener_poll
# The check op answers with the quick-lint diagnostics iwa check prints
# (each corpus/lints file's list equals its check_corpus.json entry).
cargo test -q -p iwa-serve --test serve check_op_carries_the_quick_lint_diagnostics

echo "==> serve chaos: no request hangs under faults, answers match single-shot analysis"
# Concurrent clients under a fault plan at every site (injected panics,
# io-errors, budget trips, sleeps) must each get an explicit answer; with
# faults off, computed and cached answers must match a direct analysis of
# every .iwa corpus program. The reap test checks that closed connections
# leave no thread stacks mapped in a long-lived daemon.
cargo test -q -p iwa-serve --test chaos
cargo test -q -p iwa-serve --test reap

echo "==> CI green"
