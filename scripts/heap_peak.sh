#!/bin/sh
# Heap census of one command, read by glibc's `memusage` (an LD_PRELOAD
# that counts every malloc, realloc, calloc and free): the heap peak —
# the most bytes live at once, what a narrower rule or a tighter table
# moves — the heap total, and the histogram of block sizes. The
# command's stdout passes through untouched; its stderr, then the
# census, go to stderr. Give a built binary, not `cargo run`: every
# process started under memusage prints a census of its own (cargo's
# too), and the MiB line restates the first one to finish.
#
#   scripts/heap_peak.sh target/release/exp_scaling fabric 2 16
#   scripts/heap_peak.sh hbench/target/release/hbench --workload fabric_ctrl --seed 7 --seconds 15
#
# Exits with the command's status. Without memusage (Debian and Ubuntu
# ship it in libc-dev-bin) it says so and exits 0.
set -eu

if ! command -v memusage >/dev/null 2>&1; then
    echo "heap_peak.sh: memusage not found (glibc's libc-dev-bin); no heap census" >&2
    exit 0
fi

err=$(mktemp)
trap 'rm -f "$err"' EXIT
status=0
memusage "$@" 2>"$err" || status=$?

# memusage colours its summary; drop the escapes, then restate the peak
# in MiB on a line of its own.
esc=$(printf '\033')
sed "s/${esc}\[[0-9;]*m//g" "$err" >&2
sed "s/${esc}\[[0-9;]*m//g" "$err" | awk '
    /^Memory usage summary:/ {
        for (i = 1; i <= NF; i++) if ($i == "peak:") { peak = $(i + 1); sub(",", "", peak); break }
        printf "heap peak: %s B (%.2f MiB)\n", peak, peak / 1048576
        exit
    }' >&2
exit "$status"
