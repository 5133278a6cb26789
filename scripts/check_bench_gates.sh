#!/usr/bin/env bash
# Declarative acceptance gates over the BENCH_*.json artifacts.
#
# Each gate is one `<artifact>|<"key": value>` entry below. It holds when
# the artifact exists, is non-empty and parses as JSON (python3's `json`
# module), its `"key":` occurs at least once, and every line carrying that
# key — with indentation and a trailing comma stripped — equals the
# fragment exactly (fixed-string matching, so JSON quotes need no
# escaping). A gate is therefore universal over every
# scenario that reports the key: one passing line cannot hide another
# scenario's failure. CI invokes this
# script once per bench step with the artifact name as the argument —
# only that artifact's gates run, keeping failure attribution per step —
# and a bare invocation checks every artifact at once for local runs.
#
# Usage:
#   scripts/check_bench_gates.sh                 # check all artifacts
#   scripts/check_bench_gates.sh BENCH_sync.json # check one artifact
set -euo pipefail

gates=(
  'BENCH_mining.json|"allocations_per_hash": 0.0000'
  'BENCH_mining.json|"simd_faster_than_scalar": true'
  'BENCH_mining.json|"thread_counts_within_cores": true'
  'BENCH_sync.json|"converged": true'
  'BENCH_sync.json|"runs_identical": true'
  'BENCH_adversary.json|"spam_accepted": 0'
  'BENCH_adversary.json|"runs_identical": true'
  'BENCH_difficulty.json|"skew_inflates": true'
  'BENCH_difficulty.json|"drift_rule_holds": true'
  'BENCH_difficulty.json|"steering_inflates_verify_cost": true'
  'BENCH_difficulty.json|"cost_rule_holds": true'
  'BENCH_difficulty.json|"runs_identical": true'
  'BENCH_scale.json|"runs_identical": true'
  'BENCH_scale.json|"threads_identical": true'
  'BENCH_scale.json|"eclipse_undefended_isolated": true'
  'BENCH_scale.json|"eclipse_defended_converged": true'
  'BENCH_persistence.json|"recovered_identical": true'
  'BENCH_persistence.json|"torn_tail_truncated": true'
  'BENCH_persistence.json|"runs_identical": true'
  'BENCH_light.json|"light_converged": true'
  'BENCH_light.json|"fake_proofs_rejected": true'
  'BENCH_light.json|"runs_identical": true'
)

# With arguments, restrict to the gates of exactly those artifacts.
selected=()
if (($# == 0)); then
  selected=("${gates[@]}")
else
  for artifact in "$@"; do
    matched=0
    for gate in "${gates[@]}"; do
      if [[ "${gate%%|*}" == "$artifact" ]]; then
        selected+=("$gate")
        matched=1
      fi
    done
    if ((matched == 0)); then
      echo "FAIL: no gates declared for $artifact" >&2
      exit 1
    fi
  done
fi

failures=0
for gate in "${selected[@]}"; do
  artifact=${gate%%|*}
  fragment=${gate#*|}
  if [[ ! -s "$artifact" ]]; then
    echo "FAIL $artifact: missing or empty" >&2
    failures=$((failures + 1))
    continue
  fi
  if ! python3 -c 'import json, sys; json.load(open(sys.argv[1]))' "$artifact" 2>/dev/null; then
    echo "FAIL $artifact: not valid JSON" >&2
    failures=$((failures + 1))
    continue
  fi
  key=${fragment%%:*}
  carrying=$(grep -F "$key:" "$artifact" | sed -e 's/^[[:space:]]*//' -e 's/,[[:space:]]*$//' || true)
  if [[ -z "$carrying" ]]; then
    echo "FAIL $artifact: no line carries $key" >&2
    failures=$((failures + 1))
  elif differing=$(grep -vxF -- "$fragment" <<<"$carrying"); then
    echo "FAIL $artifact: $fragment (also found: $(tr '\n' ' ' <<<"$differing"))" >&2
    failures=$((failures + 1))
  else
    echo "  ok $artifact: $fragment ($(wc -l <<<"$carrying") line(s))"
  fi
done

if ((failures > 0)); then
  echo "$failures gate(s) failed" >&2
  exit 1
fi
echo "all ${#selected[@]} gate(s) hold"
