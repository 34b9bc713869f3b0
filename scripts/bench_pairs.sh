#!/usr/bin/env bash
# Paired benchmark runs: a parent revision against the working tree.
#
#   scripts/bench_pairs.sh <parent-rev> [pairs=10] [seconds=20] > results/prNN_pairs.txt
#
# Builds `lusail_benchmark` at <parent-rev> (a `git archive` of it, so .git
# keeps no trace) and in the working tree, side by side, then runs every
# workload of BENCHMARK.json in alternating order: odd pairs parent first,
# even pairs change first, `--trace 0`. Writes, per workload and end-to-end
# metric, both sides' median [q1, q3], the pairs the change read better
# (wins) or the same (ties), and every run in pair order — the format of
# results/pr16_pairs.txt onwards. Progress goes to stderr.
#
#   SEED=2 scripts/bench_pairs.sh HEAD~1          the seed (default 1)
#   WORKLOADS="oneshot_cpu" scripts/...           a subset of the workloads
#   BENCH_PAIRS_DIR=/some/dir scripts/...         where the parent checkout,
#       both sides' raw JSON lines and the parent's build go (default: a
#       fresh `mktemp -d`, removed at exit)
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:?usage: scripts/bench_pairs.sh <parent-rev> [pairs=10] [seconds=20]}"
pairs="${2:-10}"
seconds="${3:-20}"
seed="${SEED:-1}"
sha="$(git rev-parse --short "$rev")"

if [ -n "${BENCH_PAIRS_DIR:-}" ]; then
    dir="$BENCH_PAIRS_DIR"
    mkdir -p "$dir"
else
    dir="$(mktemp -d)"
    trap 'rm -rf "$dir"' EXIT
fi
root="$PWD"
workloads="${WORKLOADS:-$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')}"

rm -rf "$dir/parent" && mkdir -p "$dir/parent" "$dir/runs"
git archive "$rev" | tar -x -C "$dir/parent"
echo "building parent $sha ..." >&2
(cd "$dir/parent" && CARGO_TARGET_DIR="$dir/parent-target" \
    cargo build --release --offline --quiet --manifest-path lusail_benchmark/Cargo.toml)
echo "building working tree ..." >&2
cargo build --release --offline --quiet --manifest-path lusail_benchmark/Cargo.toml
change_bin="${CARGO_TARGET_DIR:-$root/lusail_benchmark/target}/release/lusail_benchmark"
parent_bin="$dir/parent-target/release/lusail_benchmark"

# One run: the JSON line (the last of stdout) appended to the side's file.
run() { # side workload
    local side="$1" workload="$2" bin cwd
    if [ "$side" = parent ]; then bin="$parent_bin" cwd="$dir/parent"; else bin="$change_bin" cwd="$root"; fi
    (cd "$cwd" && CARGO_TARGET_DIR="$dir/$side-scratch" "$bin" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -1) \
        >>"$dir/runs/$workload.$side.jsonl" || {
        echo "$side run of $workload failed" >&2
        exit 1
    }
}

for workload in $workloads; do
    : >"$dir/runs/$workload.parent.jsonl"
    : >"$dir/runs/$workload.change.jsonl"
    for pair in $(seq 1 "$pairs"); do
        echo "$workload pair $pair/$pairs" >&2
        if [ $((pair % 2)) -eq 1 ]; then
            run parent "$workload" && run change "$workload"
        else
            run change "$workload" && run parent "$workload"
        fi
    done
done

python3 - "$dir/runs" "$sha" "$pairs" "$seconds" "$seed" "$(nproc)" $workloads <<'PY'
import json, sys

runs, sha, pairs, seconds, seed, cores, *workloads = sys.argv[1:]
metrics = [(m["name"], m["better"]) for m in json.load(open("BENCHMARK.json"))["end_to_end"]]

def quartiles(xs):
    xs = sorted(xs)
    def at(p):
        k = (len(xs) - 1) * p
        lo = int(k)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)
    return at(0.25), at(0.5), at(0.75)

print(f"# paired runs: lusail_benchmark, {pairs} alternating {seconds} s pairs per workload "
      f"(odd pairs parent first, even pairs change first), seed {seed}, --trace 0, {cores} cores.")
print(f"# parent = {sha}, change = the working tree. median [q1, q3]; wins = pairs the change "
      "read better; every run listed in pair order.")
for w in workloads:
    sides = {}
    for side in ("parent", "change"):
        sides[side] = [json.loads(line) for line in open(f"{runs}/{w}.{side}.jsonl") if line.strip()]
    failed = {s: (sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs)) for s, rs in sides.items()}
    print(f"{w:<13} {'failed':<20} parent {failed['parent'][0]}/{failed['parent'][1]}"
          f" -> change {failed['change'][0]}/{failed['change'][1]}")
    for name, better in metrics:
        p = [r["metrics"][name]["value"] for r in sides["parent"]]
        c = [r["metrics"][name]["value"] for r in sides["change"]]
        (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(p), quartiles(c)
        wins = sum((y < x) if better == "lower" else (y > x) for x, y in zip(p, c))
        ties = sum(x == y for x, y in zip(p, c))
        delta = f"{100 * (cm - pm) / pm:+.2f}%" if pm else "n/a"
        print(f"{w:<13} {name:<20} parent {pm:.3f} [{pq1:.3f}, {pq3:.3f}] -> change {cm:.3f} "
              f"[{cq1:.3f}, {cq3:.3f}]  {delta}  wins {wins}/{len(p)} ties {ties}")
        fmt = lambda xs: "[" + ", ".join(f"{x:.6g}" for x in xs) + "]"
        print(f"     parent {fmt(p)}")
        print(f"     change {fmt(c)}")
PY
