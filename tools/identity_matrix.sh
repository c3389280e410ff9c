#!/usr/bin/env bash
# Byte-identity matrix for one sraps_cli build.  Generates the mini dataset
# with the CLI under test, runs every scenario in tests/data/identity/ on it
# in tick mode and in event-calendar mode, and prints one sha256 line per
# output (stats.out, job_history.csv, history.csv) per run.  It then runs
# every sweep spec in tests/data/identity_sweeps/ on the plain path and with
# --sweep-tree, and prints one sha256 line per rows-*.csv shard,
# aggregates.json and manifest.json.  Two builds produce identical results
# on this matrix when their listings diff clean:
#
#   tools/identity_matrix.sh base-build/sraps_cli /tmp/id-base > base.txt
#   tools/identity_matrix.sh head-build/sraps_cli /tmp/id-head > head.txt
#   diff -u base.txt head.txt
#
# The scenarios cover no cooling with grid signals, caps, a DR window and an
# outage; the lumped cooling loop; the per-CDU loop on a thermal topology;
# transient rack thermals with CRAC control and thermal trips that fire; and
# the race_to_idle and pace_to_cap power-state policies.  The sweep spec
# records history under cooling and a price and carbon signal, so every
# metric column of its shards is non-zero somewhere, over a power_cap_w and
# a grid.price.scale axis.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 CLI OUTDIR" >&2
  exit 2
fi
cli=$(realpath "$1")
out=$2
scenarios=$(cd "$(dirname "$0")/../tests/data/identity" && pwd)
sweeps=$(cd "$(dirname "$0")/../tests/data/identity_sweeps" && pwd)

mkdir -p "$out"
"$cli" --generate mini --data "$out/mini" > /dev/null
for scenario in "$scenarios"/*.json; do
  name=$(basename "$scenario" .json)
  for mode in tick calendar; do
    flags=()
    if [ "$mode" = calendar ]; then flags=(--event-calendar); fi
    run="$out/$name-$mode"
    "$cli" --scenario "$scenario" -f "$out/mini" "${flags[@]}" -o "$run" > "$run.log"
    for file in stats.out job_history.csv history.csv; do
      echo "$(sha256sum < "$run/$file" | cut -d' ' -f1)  $name/$mode/$file"
    done
  done
done
for spec in "$sweeps"/*.json; do
  name=$(basename "$spec" .json)
  for mode in plain tree; do
    flags=()
    if [ "$mode" = tree ]; then flags=(--sweep-tree); fi
    run="$out/sweep-$name-$mode"
    "$cli" --sweep "$spec" --sweep-out "$run" --sweep-shard 2 --sweep-threads 2 \
        "${flags[@]}" > "$run.log"
    for file in "$run"/rows-*.csv "$run"/aggregates.json "$run"/manifest.json; do
      echo "$(sha256sum < "$file" | cut -d' ' -f1)  sweep-$name/$mode/$(basename "$file")"
    done
  done
done
