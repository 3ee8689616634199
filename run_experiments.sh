#!/usr/bin/env bash
# Regenerates every table and figure of the REX paper at the given scale.
# Usage: ./run_experiments.sh [smoke|fast|full] [outdir]
#
# Each experiment's failure is reported inline and counted; the script
# keeps going so one broken binary doesn't mask the rest, but it exits
# non-zero if anything failed — `|| echo` alone would swallow the status
# and report success to CI.
set -euo pipefail
SCALE="${1:-fast}"
OUT="${2:-results}"
mkdir -p "$OUT"
failed=0
# the schedule x budget grids run as `grid <name>`; the rest are binaries
for exp in table2 "grid table4" "grid table5" "grid table6" "grid table7" \
           "grid table8" "grid table9" table10_11 "grid fig3" fig4 \
           "grid ablations"; do
    name="${exp#grid }"
    echo "=== $name ($SCALE) ==="
    if ! ./target/release/$exp --scale "$SCALE" --out "$OUT" \
        > "$OUT/$name.md" 2> "$OUT/$name.log"; then
        echo "FAILED: $name (see $OUT/$name.log)"
        failed=$((failed + 1))
    fi
done
# fig2 (pure schedule curves) and the aggregates (which consume the CSVs
# above) read only --out
for bin in fig2 table1 fig1; do
    if ! ./target/release/$bin --out "$OUT" > "$OUT/$bin.md" 2> "$OUT/$bin.log"; then
        echo "FAILED: $bin (see $OUT/$bin.log)"
        failed=$((failed + 1))
    fi
done
if [ "$failed" -gt 0 ]; then
    echo "$failed experiment(s) FAILED; outputs in $OUT/"
    exit 1
fi
echo "all experiments complete; outputs in $OUT/"
