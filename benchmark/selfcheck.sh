#!/usr/bin/env bash
# Two sets of runs of this commit must agree: every modelled value and
# exact count identical in every run, and every end-to-end metric's
# median over one set within its bound of the median over the other
# (in either direction). The sets are taken alternately, three full
# `--all --trace --seed 1` runs each, because the reference sandbox
# drifts within minutes: a single pair of runs disagrees about half the
# time for that reason alone.
# Extra arguments go to every run, e.g. `benchmark/selfcheck.sh --quick`
# for a smoke run or `--seed 5` for another seed (the last one given
# wins). Results land in benchmark/out/set{1,2}/run<N>/.
set -euo pipefail
cd "$(dirname "$0")/.."

bench() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}

set1="" set2=""
for round in 1 2 3; do
    for set in set1 set2; do
        out="$PWD/benchmark/out/$set/run$round"
        bench --all --trace --seed 1 --out "$out" "$@"
        declare "$set=${!set:+${!set},}$out/BENCH.json"
    done
done
bench --compare "$set1" "$set2"
echo "selfcheck: the two sets agree"
