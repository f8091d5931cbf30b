#!/bin/sh
# Split fpbench's halo `setup_s` into its two parts for two checkouts of
# the repository, so a setup move can be pinned on the workload generator
# (`workloads.programs_s`) or on the cluster build (`mpi.build_s`).
#
# It builds fpbench in each checkout, restores each checkout's
# `fpbench/Cargo.lock` (every fpbench build rewrites it), then runs
# `--seed 1 --seconds 2 --trace 1` processes in PAIRS interleaved pairs,
# alternating which side runs first. It prints both parts of each run and
# each side's medians.
#
# The placement of fpbench's loops depends on the checkout's path, so give
# both checkouts paths of equal length. The numbers are host timings: use
# them to diagnose, not as a gate.
#
# Usage: scripts/setup_split.sh PARENT_DIR CHANGE_DIR [WORKLOAD] [PAIRS]
#        (WORKLOAD defaults to halo-model, PAIRS to 3)
set -eu
if [ $# -lt 2 ]; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR [WORKLOAD] [PAIRS]" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=${3:-halo-model}
pairs=${4:-3}

for dir in "$parent" "$change"; do
    echo "building fpbench in $dir" >&2
    cargo build --release --offline --quiet --manifest-path "$dir/fpbench/Cargo.toml" \
        --target-dir "$dir/fpbench/target"
    git -C "$dir" checkout --quiet -- fpbench/Cargo.lock
done

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        if [ "$side" = parent ]; then dir=$parent; else dir=$change; fi
        "$dir/fpbench/target/release/fpbench" --workload "$workload" --seed 1 \
            --seconds 2 --trace 1 2>/dev/null | tail -n 1 >"$out/$side.$i.json"
    done
    i=$((i + 1))
done

python3 - "$out" "$workload" "$pairs" <<'EOF'
import json, statistics, sys

out, workload, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3])
keys = ("workloads.programs_s", "mpi.build_s")
print(f"{workload}: {pairs} interleaved pairs, seed 1, 2 s, --trace 1")
print(f"{'side':<7} {'pair':>4} {keys[0]:>22} {keys[1]:>12}")
for side in ("parent", "change"):
    runs = []
    for i in range(1, pairs + 1):
        with open(f"{out}/{side}.{i}.json") as f:
            metrics = json.load(f)["metrics"]
        row = [metrics[k]["value"] for k in keys]
        runs.append(row)
        print(f"{side:<7} {i:>4} {row[0]:>22.4f} {row[1]:>12.4f}")
    med = [statistics.median(col) for col in zip(*runs)]
    print(f"{side:<7} {'med':>4} {med[0]:>22.4f} {med[1]:>12.4f}")
EOF
