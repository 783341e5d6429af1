#!/usr/bin/env bash
# A/A check: runs the whole suite twice on one build and prints, for every
# end-to-end metric and workload, both values, their relative difference
# and the metric's bound. Exits 1 if any pair disagrees by more than its
# bound, or if either suite run fails. Takes about five minutes.
#
#   benchmark/aa_check.sh [--seed N] [--seconds N]
set -u
dir="$(cd "$(dirname "$0")" && pwd)"
cargo build --release --offline --manifest-path "$dir/Cargo.toml" || exit 1
bin="${CARGO_TARGET_DIR:-$dir/target}/release/depfast-benchmark"
mkdir -p "$dir/out"
status=0
for i in 1 2; do
    "$bin" "$@" > "$dir/out/aa_$i.txt" || {
        echo "suite run $i failed; see $dir/out/aa_$i.txt"
        grep '^FAILED' "$dir/out/aa_$i.txt"
        status=1
    }
done
# e2e <workload> <metric> <value> <unit> clock=.. better=.. bound=<b> ...
awk '
    $1 == "e2e" && !(FILENAME SUBSEP $2 SUBSEP $3 in seen) {
        seen[FILENAME, $2, $3] = 1
        key = $2 " " $3
        for (i = 6; i <= NF; i++) if ($i ~ /^bound=/) bound[key] = substr($i, 7) + 0
        if (FILENAME == ARGV[1]) { a[key] = $4; order[++n] = key } else b[key] = $4
    }
    END {
        printf "%-20s %-30s %14s %14s %9s %7s\n", "workload", "metric", "run 1", "run 2", "rel diff", "bound"
        for (i = 1; i <= n; i++) {
            key = order[i]
            if (!(key in b)) { printf "%s: missing from run 2\n", key; bad = 1; continue }
            base = a[key] < 0 ? -a[key] : a[key]
            diff = a[key] - b[key]; if (diff < 0) diff = -diff
            rel = base > 0 ? diff / base : diff
            split(key, k, " ")
            over = rel > bound[key] ? "  OVER" : ""
            if (over != "") bad = 1
            printf "%-20s %-30s %14.6g %14.6g %9.5f %7s%s\n", k[1], k[2], a[key], b[key], rel, bound[key], over
        }
        exit bad
    }
' "$dir/out/aa_1.txt" "$dir/out/aa_2.txt" || status=1
exit $status
