#!/bin/sh
# Split fpbench's halo `setup_s` into its two parts for two checkouts of
# the repository, so a setup move can be pinned on the workload generator
# (`workloads.programs_s`) or on the cluster build (`mpi.build_s`).
#
# It builds fpbench in each checkout, restores each checkout's
# `fpbench/Cargo.lock` from a copy taken before the build (every fpbench
# build rewrites it; the checkouts need not be git trees), then runs
# `--seed 1 --seconds 2 --trace 1` processes in PAIRS interleaved pairs,
# alternating which side runs first. It prints both parts of each run and
# each side's medians.
#
# The placement of fpbench's loops depends on the checkout's path, so give
# both checkouts paths of equal length. For each build it also prints
# where `fpbench::workload::Spec::inputs` starts, mod 64 (from `nm -C`):
# at 0 its scan loop crosses a 64-byte line and halo `programs_s` runs
# slow. The numbers are host timings: use them to diagnose, not as a gate.
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

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
for side in parent change; do
    if [ "$side" = parent ]; then dir=$parent; else dir=$change; fi
    echo "building fpbench in $dir" >&2
    cp "$dir/fpbench/Cargo.lock" "$out/Cargo.lock"
    cargo build --release --offline --quiet --manifest-path "$dir/fpbench/Cargo.toml" \
        --target-dir "$dir/fpbench/target"
    cp "$out/Cargo.lock" "$dir/fpbench/Cargo.lock"
    addr=$(nm -C "$dir/fpbench/target/release/fpbench" |
        awk '$3 == "fpbench::workload::Spec::inputs" { print $1; exit }')
    if [ -n "$addr" ]; then
        echo "$side: Spec::inputs at 0x$addr, $(( 0x$addr % 64 )) mod 64"
    else
        echo "$side: Spec::inputs not found (inlined?)"
    fi
done

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
