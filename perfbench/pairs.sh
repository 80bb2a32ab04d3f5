#!/usr/bin/env bash
# Measures a change against its parent: runs alternating pairs of one
# workload in two checkouts, parent first in odd pairs and change first in
# even ones, both sides of a pair on the same seed, then compares them.
#
#   bash perfbench/pairs.sh PARENT CHANGE WORKLOAD [PAIRS] [FIRST_SEED]
#
# PARENT and CHANGE are checkouts holding identical perfbench/ and
# BENCHMARK.json; runs last run_seconds from BENCHMARK.json. Results go to
# CHANGE/.bench_build/pairs-WORKLOAD/. Pick a FIRST_SEED not used while
# the change was written.
set -euo pipefail

if [[ $# -lt 3 ]]; then
	echo "usage: pairs.sh PARENT CHANGE WORKLOAD [PAIRS] [FIRST_SEED]" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
seed0=${5:-1000}
seconds=$(sed -n 's/^ *"run_seconds": *\([0-9]*\).*/\1/p' "$change/BENCHMARK.json")

out=$change/.bench_build/pairs-$workload
mkdir -p "$out"
: >"$out/parent.jsonl"
: >"$out/change.jsonl"

one() { # checkout seed results-file
	(cd "$1" && bash perfbench/run.sh --workload "$workload" --seed "$2" \
		--seconds "$seconds" --trace 0 | tail -n 1) >>"$3"
}

for ((i = 0; i < pairs; i++)); do
	seed=$((seed0 + i))
	if ((i % 2 == 0)); then
		one "$parent" "$seed" "$out/parent.jsonl"
		one "$change" "$seed" "$out/change.jsonl"
	else
		one "$change" "$seed" "$out/change.jsonl"
		one "$parent" "$seed" "$out/parent.jsonl"
	fi
done

cd "$change"
bash perfbench/run.sh --compare --workload "$workload" "$out/parent.jsonl" "$out/change.jsonl"
