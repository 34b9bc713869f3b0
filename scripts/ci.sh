#!/usr/bin/env bash
# Tier-1 gate. Every PR must leave this green. The build is fully offline:
# the workspace has no third-party dependencies (see DESIGN.md → Dependency
# policy), so --offline both works and enforces that nothing sneaks in.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --workspace --release --offline
cargo test --workspace -q --offline
cargo fmt --all --check

# The finishing path and the branch assembly (DESIGN.md → Result assembly)
# are written once; a new engine or baseline calls them instead of pasting
# the block again.
for def in compare_terms finalize_select 'union(_relations)?' 'assemble_branch(<[^>]*>)?'; do
    n=$(grep -rhoE "fn ${def}\(" crates --include='*.rs' | wc -l)
    [ "$n" -eq 1 ] || { echo "fn ${def} is defined ${n} times under crates/, want 1" >&2; exit 1; }
done
# One join planner: the left-deep min-rule DP and its size-only fallback are
# gone, and nothing stands beside `plan_joins` to choose between.
n=$(grep -rhoE "fn plan_joins\(" crates --include='*.rs' | wc -l)
[ "$n" -eq 1 ] || { echo "fn plan_joins is defined ${n} times under crates/, want 1" >&2; exit 1; }
if grep -rnE 'fn (dp_join_order|greedy_order)\(' crates --include='*.rs'; then
    echo "an old join-order function is back; plan_joins is the one planner" >&2
    exit 1
fi
# One hash join (DESIGN.md → Engine-side interning): `HashTable` in
# sparql::solution builds and probes every join, OPTIONAL, MINUS and `=`
# bridge of the engine and the store; the eight loops it replaced, their
# per-row key vectors and the slot-hash table stay gone (non-test code).
n=$(grep -rhoE "struct HashTable\b" crates --include='*.rs' | wc -l)
if [ "$n" -ne 1 ] || ! grep -q "struct HashTable\b" crates/sparql/src/solution.rs; then
    echo "struct HashTable is defined ${n} times under crates/, want 1, in crates/sparql/src/solution.rs" >&2
    exit 1
fi
join_files="crates/sparql/src/solution.rs crates/core/src/sape/join.rs crates/store/src/eval.rs"
if awk 'FNR==1{t=0} /#\[cfg\(test\)\]/{t=1} !t' $join_files \
    | grep -nE 'fn (chunked_probe_join|merge_rows)\(|FxHashMap<Vec<|FxHashMap<u64, *Vec<usize>>|slot_hash'; then
    echo "a hand-written join loop or its key table is back; build and probe a solution::HashTable" >&2
    exit 1
fi
# One budgeted join (DESIGN.md → Memory & backpressure semantics): a join
# charges its finished output and nothing else. The external sort-merge
# spill stays deleted (both inputs are resident and already charged, so it
# never lowered the ledger), and SAPE opens no file.
if grep -rnE 'fn spill_join|SortedSource|write_sorted_runs|record_spill|fn would_fit|lusail-spill-' crates/*/src; then
    echo "the join spill is back; budgeted_join joins in memory and charges the output" >&2
    exit 1
fi
if grep -rn 'std::fs' crates/core/src/sape/; then
    echo "crates/core/src/sape uses std::fs; a join writes no file" >&2
    exit 1
fi
# One term syntax (DESIGN.md → Term syntax): lusail_rdf::syntax::Cursor
# lexes every IRI, prefixed name, blank node, literal and number, and the
# N-Triples, Turtle and SPARQL parsers keep only their statement grammars,
# so a term cannot parse one way in a data file and another in a query.
if grep -nE 'fn (literal_term|parse_literal|number_term|parse_number|parse_prefixed_name|parse_iri_ref|skip_trivia)\(|unescape_literal\(' \
    crates/rdf/src/ntriples.rs crates/rdf/src/turtle.rs -r crates/sparql/src/; then
    echo "a second term lexer is back; read terms through lusail_rdf::syntax::Cursor" >&2
    exit 1
fi
# One strand rule and no knob (DESIGN.md → Deviations from Algorithm 3):
# `fn strands(` is defined once, in sape/execute.rs, and no LusailConfig
# field, env var or CLI flag mentions strands; `--explain` only reports them.
n=$(grep -rhoE "fn strands\(" crates --include='*.rs' | wc -l)
if [ "$n" -ne 1 ] || ! grep -q "fn strands(" crates/core/src/sape/execute.rs; then
    echo "fn strands is defined ${n} times under crates/, want 1, in crates/core/src/sape/execute.rs" >&2
    exit 1
fi
if grep -niE 'strand' crates/core/src/config.rs \
    || grep -rniE 'env::var(_os)?\([^)]*strand|LUSAIL_[A-Z_]*STRAND|--[a-z-]*strand' crates --include='*.rs'; then
    echo "strands gained a knob; the split is one deterministic rule" >&2
    exit 1
fi
# The round-number integrity rule stays gone: two config fields, one branch
# of `observe_rows`, no catch on any corpus in any census (DESIGN.md → Known
# performance issues).
if grep -rnE 'round_(floor|modulus)' crates; then
    echo "the round-number integrity rule is back; it never caught anything" >&2
    exit 1
fi
# The engine sends no endpoint request of its own: requests go out from
# source.rs, lade/gjv.rs, sape/execute.rs and integrity.rs only, so the next
# kind of block cannot bypass the one response-settling path.
if grep -nE 'map_cancellable\(|_within\(|dispatch\(' crates/core/src/engine.rs; then
    echo "crates/core/src/engine.rs sends an endpoint request; fetch through SapeExecutor" >&2
    exit 1
fi
# One dispatch (DESIGN.md → Request dispatch): every request the four
# engines send leaves through RunContext::dispatch, which alone touches
# map_cancellable and the query's deadline. Checked on the non-test part of
# each file (above the first #[cfg(test)]), comments and whitespace dropped
# so a call rustfmt spread over lines still matches.
for f in $(find crates/core/src crates/baselines/src -name '*.rs'); do
    code=$(awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//' "$f" | tr -d ' \n')
    old='fncheck_deadline\(|(endpoint(\([^()]*\))?|ep)\.(select|ask|count|execute)\(&'
    case "$f" in
        crates/core/src/run.rs) ;;
        crates/core/src/sape/join.rs) old="$old|map_cancellable\(|\.deadline\.clone\(\)" ;;
        *) old="$old|map_cancellable\(|\.deadline\.clone\(\)|handler\.map\(" ;;
    esac
    if hits=$(grep -oE "$old" <<<"$code"); then
        echo "$f sends a request past RunContext::dispatch: $(sort -u <<<"$hits" | tr '\n' ' ')" >&2
        exit 1
    fi
done

# Nothing waits for what it does not depend on (DESIGN.md → ERH elasticity,
# Request dispatch): the ERH has no ramp timer to come back, branches fan
# out through the one method beside `dispatch`, and crates/core/src spawns
# no thread of its own — concurrency there goes through the RequestHandler.
if grep -rnE 'RAMP_INTERVAL|ramped_waves' crates; then
    echo "the ERH ramp is back; a wave starts min(tasks, ceiling) threads at once" >&2
    exit 1
fi
n=$(grep -rhoE "fn fan_out(<[^>]*>)?\(" crates --include='*.rs' | wc -l)
[ "$n" -eq 1 ] && grep -qE "fn fan_out(<[^>]*>)?\(" crates/core/src/run.rs \
    || { echo "fn fan_out is defined ${n} times under crates/, want once, in crates/core/src/run.rs" >&2; exit 1; }
for f in $(find crates/core/src -name '*.rs'); do
    if awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//' "$f" | grep -nE 'thread::(spawn|scope|Builder)'; then
        echo "$f spawns a thread; fan out through the RequestHandler (RunContext::dispatch / fan_out)" >&2
        exit 1
    fi
done

# Nothing is rendered twice (DESIGN.md → Stats model): one HTTP response
# writer, no hand-written stats or error renderer beside the `to_json`
# descriptions, and no JSON document assembled with format! outside the
# results_json data plane.
n=$(grep -rhoE "fn write_response\(" crates/server/src --include='*.rs' | wc -l)
[ "$n" -eq 1 ] || { echo "fn write_response is defined ${n} times under crates/server/src, want 1" >&2; exit 1; }
if grep -rnE 'fn (write_json|write_error|write_overloaded|stats_body|stats_json|queries_json|print_[a-z]+_stats)\(' crates --include='*.rs'; then
    echo "a hand-written renderer is back; build a Json and print it with Display / render_text / write_response" >&2
    exit 1
fi
for f in crates/server/src/*.rs crates/cli/src/*.rs crates/bench/src/*.rs crates/bench/src/bin/*.rs; do
    if awk '/#\[cfg\(test\)\]/{exit} {print FILENAME":"FNR":"$0}' "$f" | grep -E '"\{\{\\"'; then
        echo "$f assembles JSON text with format!; build a federation::json::Json instead" >&2
        exit 1
    fi
done

# Every figure is measured one way (crates/bench/src/lib.rs): one timing
# loop, one `measure`, and the second harness stays gone.
for def in measure sample; do
    n=$(grep -rhoE "fn ${def}(<[^>]*>)?\(" crates/bench --include='*.rs' | wc -l)
    [ "$n" -eq 1 ] || { echo "fn ${def} is defined ${n} times under crates/bench, want 1" >&2; exit 1; }
done
if [ -e crates/bench/benches ] || [ -e crates/bench/src/timing.rs ] || grep -n '^\[\[bench\]\]' crates/bench/Cargo.toml; then
    echo "the second timing harness is back; time with lusail_bench::sample" >&2
    exit 1
fi
# The two quickest figure bins, from a directory of their own: a bin that
# panics or leaves no BENCH_*.json fails here, not at the next re-run.
root="$PWD"
smoke=$(mktemp -d)
for bin in fig12_profiling fig8_qfed; do
    (cd "$smoke" && "$root/target/release/$bin" >/dev/null)
    [ -s "$smoke/BENCH_$bin.json" ] || { echo "$bin wrote no BENCH_$bin.json" >&2; exit 1; }
done
rm -rf "$smoke"

# The transport is written once (DESIGN.md → The transport seam): every
# endpoint retries, records and gives up in one attempt loop
# (`EndpointHealth::run`), and one HTTP/1.x reader (`http::HttpReader`)
# reads both ends of the wire. Checked on non-test code, comments dropped.
nontest() { awk 'FNR==1{t=0} /#\[cfg\(test\)\]/{t=1} !t && !/^[[:space:]]*\/\//' "$@"; }
rs=$(find crates -name '*.rs')
for pattern in '\.record_retry\(' 'giving up after'; do
    n=$( { nontest $rs | grep -oE "$pattern" || true; } | wc -l)
    [ "$n" -eq 1 ] || { echo "'$pattern' appears ${n} times under crates/, want 1: retries live in EndpointHealth::run" >&2; exit 1; }
done
n=$( { nontest crates/federation/src/*.rs crates/server/src/*.rs | grep -oE 'fn read_line\(' || true; } | wc -l)
[ "$n" -eq 1 ] || { echo "fn read_line is defined ${n} times in crates/{federation,server}/src, want 1: read through HttpReader" >&2; exit 1; }
if nontest $rs | grep -nE 'struct RequestReader|enum ReadError|answer_cancellable|can_fail_over'; then
    echo "a second copy of the transport is back; use EndpointHealth::run, HttpReader, QueryBackend::answer, EndpointError::is_skippable" >&2
    exit 1
fi

# Only a backend that acts on its cancel token is watched (DESIGN.md →
# Supervision): the disconnect monitor is spawned in one place, behind
# `QueryBackend::cancellable`, so a plain store never waits out its peek.
code=$(nontest crates/server/src/*.rs | tr -d ' \n')
n=$( { grep -oE 'DisconnectMonitor::spawn\(' <<<"$code" || true; } | wc -l)
guarded=$( { grep -oE '\.cancellable\(\)\.then\(\|\|DisconnectMonitor::spawn\(' <<<"$code" || true; } | wc -l)
[ "$n" -eq 1 ] && [ "$guarded" -eq 1 ] || {
    echo "DisconnectMonitor::spawn is called ${n} times in crates/server/src (${guarded} behind cancellable()), want once, behind it" >&2
    exit 1
}

# JSON escaping has one path (DESIGN.md → Data plane & codec semantics):
# `json::escape_into` appends into the caller's buffer; the allocating
# `escape` and the per-term `term_json` stay gone.
if nontest $rs | grep -nE 'fn (escape|term_json)\('; then
    echo "a second JSON escaping path is back; append with json::escape_into" >&2
    exit 1
fi
n=$( { nontest $rs | grep -oE 'fn escape_into\(' || true; } | wc -l)
[ "$n" -eq 1 ] || { echo "fn escape_into is defined ${n} times under crates/, want 1" >&2; exit 1; }

# The store does only the work its answer needs (DESIGN.md → The store):
# sorted-array indexes, hashed foreign VALUES terms, a linear-time REGEX,
# and one `=` key behind both the store's and the engine's bridge joins.
if nontest crates/store/src/store.rs | grep -n 'BTreeSet'; then
    echo "crates/store/src/store.rs uses a BTreeSet again; the indexes are sorted arrays" >&2
    exit 1
fi
if nontest crates/store/src/eval.rs | grep -n 'foreign\.iter()\.position'; then
    echo "crates/store/src/eval.rs scans its foreign terms again; look them up in foreign_ids" >&2
    exit 1
fi
if nontest crates/store/src/regex_lite.rs | grep -n 'fn match_here'; then
    echo "the backtracking REGEX matcher is back outside its test; match with state sets" >&2
    exit 1
fi
n=$( { nontest $rs | grep -oE 'fn equality_key\(' || true; } | wc -l)
[ "$n" -eq 1 ] || { echo "fn equality_key is defined ${n} times under crates/, want 1: the store and the engine share it" >&2; exit 1; }

# Result integrity is one module behind one switch (DESIGN.md → Result
# integrity semantics): the ledger, the settle path and the paging builders
# live in crates/core/src/integrity.rs, its thresholds are constants there,
# and sape/execute.rs hands each wave to it in one call.
if grep -rnE 'IntegrityConfig|QuarantineTransition|apply_transition' crates tests; then
    echo "the integrity config or the quarantine transition is back; the ledger marks the endpoint itself" >&2
    exit 1
fi
for f in crates/federation/src/integrity.rs crates/core/src/sape/recover.rs; do
    [ ! -e "$f" ] || { echo "$f is back; result integrity lives in crates/core/src/integrity.rs" >&2; exit 1; }
done
code=$(nontest crates/core/src/sape/execute.rs)
if grep -nE '\.(record_[a-z_]+|observe_rows|needs_verification|count_within)\(|(merge_pages|initial_limit|adaptive_limit)\(' <<<"$code"; then
    echo "crates/core/src/sape/execute.rs decides integrity itself; hand the wave to IntegrityRegistry::settle" >&2
    exit 1
fi
n=$( { grep -oE '\.settle\(' <<<"$code" || true; } | wc -l)
[ "$n" -eq 1 ] || { echo "crates/core/src/sape/execute.rs calls settle ${n} times, want once (in run_wave)" >&2; exit 1; }

# Every bound is enforced once (DESIGN.md → Federation service semantics,
# Memory & backpressure semantics): one CacheMap behind the analysis and
# result caches, one RowCharge::charge behind every chunked budget charge,
# and a result-cache key that never rewrites a literal.
if nontest crates/core/src/cache.rs | grep -nE 'ResultCacheStats|fn (lookup|store)<'; then
    echo "crates/core/src/cache.rs has a second cache implementation again; use CacheMap" >&2
    exit 1
fi
readers=$(for f in $rs; do
    nontest "$f" | awk -v f="$f" 'match($0, /fn [a-z_0-9]+/) { cur = substr($0, RSTART + 3, RLENGTH - 3) }
        /ADMISSION_CHUNK_ROWS/ && !/const ADMISSION_CHUNK_ROWS|use .*ADMISSION_CHUNK_ROWS/ { print f ": fn " cur }'
done | sort -u)
n=$( { grep -c . <<<"$readers" || true; } )
[ "$n" -eq 1 ] || { echo "ADMISSION_CHUNK_ROWS is read by ${n} non-test functions, want 1 (RowCharge::charge): $readers" >&2; exit 1; }
if nontest crates/server/src/federate.rs | grep -n 'split_whitespace'; then
    echo "crates/server/src/federate.rs normalizes query text by whitespace again; key on serialize_query" >&2
    exit 1
fi

# What an endpoint lists of its own vocabulary prunes Lusail's analysis
# probe and nothing else (DESIGN.md, key design decision 6): FedX,
# HiBISCuS and SPLENDID keep their own source selection, so Figs. 8-11 stay
# a fair comparison. Besides crates/core/src/cache.rs, which stores it, only
# crates/core/src/source.rs reads it.
readers=$(for f in $rs; do
    [ "$f" = crates/core/src/cache.rs ] && continue
    if nontest "$f" | grep -E 'get_vocabulary\(|Vocabulary' >/dev/null; then echo "$f"; fi
done)
[ "$readers" = crates/core/src/source.rs ] || { echo "the listed vocabulary is read outside crates/core/src/source.rs: $readers" >&2; exit 1; }
# An index-based baseline whose endpoint offers no statistics fails naming
# it (ROADMAP item 13(a)); it never answers from an empty index again.
for f in crates/baselines/src/*.rs; do
    if nontest "$f" | tr -d ' \n' | grep -oE 'collect_stats\(\)\.unwrap_or_default|None=>[A-Za-z]*Summary::default\(\)'; then
        echo "$f defaults a missing collect_stats(); fail with common::unindexed instead" >&2
        exit 1
    fi
done

# What the paper's system does not need stays deleted (ROADMAP item 5):
# keyword search and `lusail search` (the paper's future work), the two
# FaultProfile knobs no suite set, and any example without a stanza or
# stanza without a file.
if [ -e crates/core/src/keyword.rs ] || grep -rnE 'keyword_search|KeywordConfig|Command::Search' crates; then
    echo "keyword search is back; nothing in the paper's evaluation uses it" >&2
    exit 1
fi
if grep -rnE 'error_rate|malformed_rate' crates; then
    echo "a FaultProfile knob no suite sets is back" >&2
    exit 1
fi
stanzas=$(awk '/^\[\[example\]\]/{ex=1} ex && /^path *=/{gsub(/^path *= *"(\.\.\/\.\.\/)?|"$/, ""); print; ex=0}' \
    crates/bench/Cargo.toml | sort)
files=$(find examples -name '*.rs' | sort)
[ "$stanzas" = "$files" ] || {
    echo "crates/bench/Cargo.toml [[example]] paths ($stanzas) differ from examples/ ($files)" >&2
    exit 1
}
# Examples are built above but only run here, so their asserts gate too.
cargo run --release --offline -q -p lusail-bench --example quickstart >/dev/null

# The product API the benchmark compiles against (a package of its own,
# outside the workspace) must still build: a break fails here, not in the
# benchmark run.
cargo build --release --offline --manifest-path lusail_benchmark/Cargo.toml
# ... and its own unit tests, which compile against `core::source::ask_query`,
# `sape::estimate::count_query`, `lade::gjv::check_query` and the
# `SparqlEndpoint` defaults, must still pass.
cargo test --release --offline -q --manifest-path lusail_benchmark/Cargo.toml
# One short pass of the WAN workload: the benchmark checks every answer
# against the merged graph and exits non-zero on a wrong one.
cargo run --release --offline --quiet --manifest-path lusail_benchmark/Cargo.toml -- \
    --workload oneshot_wan --seed 1 --seconds 1 --trace 0 >/dev/null
# And one of the CPU workload: 32 answers at scale 4, where a slip in term
# equality or ordering would show as a wrong row count or row hash.
cargo run --release --offline --quiet --manifest-path lusail_benchmark/Cargo.toml -- \
    --workload oneshot_cpu --seed 1 --seconds 1 --trace 0 >/dev/null
# And one of the HTTP workload: the only one whose bound-join blocks travel
# as real POST bodies to real servers, both codecs.
cargo run --release --offline --quiet --manifest-path lusail_benchmark/Cargo.toml -- \
    --workload http_session --seed 1 --seconds 1 --trace 0 >/dev/null

# Seeded e2e groups (tests/tests/<suite>.rs). Fault sequences are drawn from
# a seeded PRNG; export LUSAIL_CHAOS_SEED to try other histories. On failure
# we print the seed so the run can be replayed.
#   chaos            fault injection: dead/flaky endpoints, fail-fast vs --partial
#   replica_chaos    failover and hedging: a member killed mid-wave, a slow member
#   mem_chaos        result bomb against a small --memory-budget; tight-budget join == in-memory
#   federate         serve --federate: parallel clients, hot-query cache, 503/429 shedding
#   cancel_chaos     disconnect, watchdog reap, admin cancel, contained panic; nothing leaks
#   codec            binary vs JSON results byte-identical, fallback, under --partial
#   integrity_chaos  silent truncation recovered exactly; miscounting endpoint quarantined
seed="${LUSAIL_CHAOS_SEED:-42}"
for suite in chaos replica_chaos mem_chaos federate cancel_chaos codec integrity_chaos; do
    if ! LUSAIL_CHAOS_SEED="$seed" cargo test -p integration --test "$suite" -q --offline; then
        echo "$suite suite failed with LUSAIL_CHAOS_SEED=$seed -- replay with:" >&2
        echo "    LUSAIL_CHAOS_SEED=$seed cargo test -p integration --test $suite" >&2
        exit 1
    fi
done
