#!/usr/bin/env bash
# The performance gate: this tree's benchmark/ against the same harness
# at BASE_REV, on the same machine, in alternating pairs.
#
#   ci/bench-pair.sh BASE_REV
#
# 1. Checks the comparator against the fixtures in ci/bench-pair-fixtures/:
#    a `pass-*` set must pass, and a `fail-*` set must fail by its verdict,
#    not by a broken comparator.
# 2. Checks BASE_REV out in a git worktree and builds benchmark/ in both
#    trees, each into its own target directory.
# 3. Runs every workload that BENCHMARK.json names in both trees (one a
#    change adds has no parent to be worse than) in PAIRS pairs, both
#    sides on the same seed, the parent first in even pairs and the
#    change first in odd ones, and keeps each run's exit code and last
#    stdout line (its result line) in bench-pair.jsonl.
# 4. Compares the medians with ci/bench-compare.jq: exit non-zero when
#    the change's median of an end-to-end metric is worse than the
#    parent's by more than that metric's bound, or when any run failed.
#    The metrics and bounds are the parent's, so a change cannot loosen
#    the gate it is judged by.
#
# The table also goes to $GITHUB_STEP_SUMMARY when that is set.
set -euo pipefail

PAIRS=3
SEED=42

base=${1:?usage: ci/bench-pair.sh BASE_REV}
cd "$(git rev-parse --show-toplevel)"
compare() { jq -r -s --slurpfile spec "$1" -f ci/bench-compare.jq "$2"; }

echo "== comparator self-check =="
for fixture in ci/bench-pair-fixtures/*.jsonl; do
  want=pass
  [[ $(basename "$fixture") == fail-* ]] && want=fail
  got=error
  verdict=$(compare BENCHMARK.json "$fixture" 2>/dev/null) && got=pass
  [[ $got == error && $verdict == *"verdict: FAIL"* ]] && got=fail
  echo "   $fixture: $got"
  if [[ $got != "$want" ]]; then
    echo "comparator self-check: $fixture should $want" >&2
    exit 1
  fi
done

base_sha=$(git rev-parse --verify "$base^{commit}")
work=$(mktemp -d)
trap 'git worktree remove --force "$work/parent" >/dev/null 2>&1 || true; rm -rf "$work"' EXIT
git worktree add --quiet --detach "$work/parent" "$base_sha"
spec="$work/spec.json"
jq --slurpfile parent "$work/parent/BENCHMARK.json" \
  '.workloads |= map(select(.name as $n | any($parent[0].workloads[]; .name == $n)))
   | .end_to_end = $parent[0].end_to_end' \
  BENCHMARK.json >"$spec"

declare -A tree=([parent]="$work/parent" [change]="$PWD")
declare -A bin
for side in parent change; do
  echo "== building benchmark/ for the $side (${tree[$side]}) =="
  target="$work/target-$side"
  [[ $side == change ]] && target="$PWD/benchmark/target"
  cargo build --release --quiet --manifest-path "${tree[$side]}/benchmark/Cargo.toml" --target-dir "$target"
  bin[$side]="$target/release/kcc_benchmark"
done

results=bench-pair.jsonl
: >"$results"
mapfile -t workloads < <(jq -r '.workloads[].name' "$spec")
for ((pair = 0; pair < PAIRS; pair++)); do
  order=(parent change)
  ((pair % 2)) && order=(change parent)
  seed=$((SEED + pair))
  for w in "${workloads[@]}"; do
    for side in "${order[@]}"; do
      code=0
      out=$(cd "${tree[$side]}" && "${bin[$side]}" run --workload "$w" --seed "$seed") || code=$?
      jq -cn --arg w "$w" --arg side "$side" --argjson pair "$pair" --argjson code "$code" \
        --arg line "$(tail -n 1 <<<"$out")" \
        '{workload: $w, side: $side, pair: $pair, exit: $code,
          result: ($line | (try fromjson catch null) | (objects // null))}' >>"$results"
      echo "   pair $pair, seed $seed, $w, $side: exit $code"
    done
  done
done

echo "== $PAIRS pairs: parent ${base_sha:0:12} vs this tree =="
status=0
table=$(compare "$spec" "$results") || status=$?
echo "$table"
if [[ -n ${GITHUB_STEP_SUMMARY:-} ]]; then
  printf '### bench-pair: parent %s, %d pairs\n\n%s\n' "${base_sha:0:12}" "$PAIRS" "$table" >>"$GITHUB_STEP_SUMMARY"
fi
exit "$status"
