#!/usr/bin/env bash
# Parent against change, from two revisions in one command: runs the same
# command in a checkout of <rev> and in the working tree, alternating ten
# pairs (the parent first in odd pairs, the change first in even ones, so
# neither side always runs on a warmer or quieter box), and prints per
# metric both medians and interquartile ranges, the pairs the change won
# and the gap between the medians in units of the parent's IQR.
#
#   scripts/ab.sh <rev> -- <cmd...>
#   scripts/ab.sh HEAD~1 -- cargo run --release --offline --quiet \
#       --manifest-path hbench/Cargo.toml -- --workload fabric_ctrl --seed 7 --seconds 15
#   scripts/ab.sh HEAD~1 -- cargo bench --offline --bench flowhash
#
# Metrics read from a run's stdout: the `"name": {"value": x` fields of
# the last line that has a `"metrics"` object (an hbench run's result),
# and every bench row line `name  x ns/unit  IQR ...` (bench::timing;
# the loops it replaced printed rows under other names, so compare
# benches only against revisions that have it).
# Lower is better, except for the metrics BENCHMARK.json marks "higher".
#
# <rev> is extracted with `git archive` into $AB_DIR/<commit>
# (default ${TMPDIR:-/tmp}/harmless-ab), kept for the next call so its
# build is reused. Each side builds in its own tree (CARGO_TARGET_DIR is
# unset for the runs), and one unmeasured run per side builds it first.
# Run logs stay in $AB_DIR/<commit>.runs/. A run that fails stops the
# comparison. A metric is compared over the pairs in which both sides
# reported it; the `won` column shows how many pairs that was.
set -euo pipefail

# Ten pairs: the fewest from which a claimed gain can be judged.
pairs=10
if [ $# -lt 3 ] || [ "$2" != "--" ]; then
    echo "usage: scripts/ab.sh <rev> -- <cmd...>" >&2
    exit 2
fi
rev=$1
shift 2

root=$(cd "$(dirname "$0")/.." && pwd)
sha=$(git -C "$root" rev-parse --verify "$rev^{commit}")
base=${AB_DIR:-${TMPDIR:-/tmp}/harmless-ab}
parent=$base/$sha
logs=$base/$sha.runs
if [ ! -d "$parent" ]; then
    mkdir -p "$parent.tmp"
    git -C "$root" archive "$sha" | tar -x -C "$parent.tmp"
    mv "$parent.tmp" "$parent"
fi
rm -rf "$logs"
mkdir -p "$logs"

# run SIDE TREE LOG: the command in TREE, stdout to LOG.out.
run() {
    (cd "$2" && env -u CARGO_TARGET_DIR "${@:4}") >"$3.out" 2>"$3.err" || {
        echo "ab.sh: $1 run failed (exit $?); see $3.err" >&2
        exit 1
    }
}

# metrics LOG: one "name value" line per metric of a run.
metrics() {
    awk '
        $3 ~ /^ns\// && $4 == "IQR" { print $1, $2 }
        /"metrics": \{/ { last = $0 }
        END {
            s = last
            while (match(s, /"[A-Za-z0-9_.]+": \{"value": [-+0-9.eE]+/)) {
                m = substr(s, RSTART, RLENGTH)
                split(m, q, "\"")
                v = m
                sub(/.*"value": /, "", v)
                print q[2], v
                s = substr(s, RSTART + RLENGTH)
            }
        }' "$1.out"
}

echo "ab.sh: parent $rev ($(git -C "$root" rev-parse --short "$sha")) vs working tree, $pairs pairs: $*" >&2
run parent "$parent" "$logs/build.parent" "$@"
run change "$root" "$logs/build.change" "$@"
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        if [ "$side" = parent ]; then tree=$parent; else tree=$root; fi
        run "$side" "$tree" "$logs/$side.$i" "$@"
        metrics "$logs/$side.$i" | sed "s/^/$side $i /" >>"$logs/metrics"
    done
    echo "ab.sh: pair $i of $pairs done" >&2
done

# Which metrics BENCHMARK.json marks higher-is-better.
higher=$(awk -F'"' '/"name":/ { name = $4 } /"better": "higher"/ { print name }' \
    "$root/BENCHMARK.json" | tr '\n' ' ')

awk -v higher=" $higher " '
    function quantile(xs, n, q,    pos, lo, hi) {
        pos = q * (n - 1); lo = int(pos); hi = (lo < pos) ? lo + 1 : lo
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    }
    # Sorts the values of m on one side, in pairs idx[1..n], into s[0..n-1]
    # (insertion sort; n is small).
    function sorted(side, m, n,    i, j, v) {
        for (i = 0; i < n; i++) {
            v = val[side, m, idx[i + 1]]
            for (j = i - 1; j >= 0 && s[j] > v; j--) s[j + 1] = s[j]
            s[j + 1] = v
        }
    }
    {
        side = $1; i = $2; m = $3
        val[side, m, i] = $4
        if (!(m in seen)) { seen[m] = 1; order[++nm] = m }
        if (i > np) np = i
    }
    END {
        printf "%-44s %6s %12s %9s %12s %9s %8s %6s %8s\n", "metric", "better", "parent", "IQR", \
            "change", "IQR", "change", "won", "gap/IQR"
        for (k = 1; k <= nm; k++) {
            m = order[k]; up = index(higher, " " m " ") > 0
            n = 0; won = 0
            for (i = 1; i <= np; i++) {
                if (!(("parent", m, i) in val) || !(("change", m, i) in val)) continue
                idx[++n] = i
                p = val["parent", m, i]; c = val["change", m, i]
                if ((up && c > p) || (!up && c < p)) won++
            }
            if (n == 0) continue
            delete s; sorted("parent", m, n); pm = quantile(s, n, 0.5); pi = quantile(s, n, 0.75) - quantile(s, n, 0.25)
            delete s; sorted("change", m, n); cm = quantile(s, n, 0.5); ci = quantile(s, n, 0.75) - quantile(s, n, 0.25)
            rel = (pm != 0) ? sprintf("%+.1f%%", 100 * (cm - pm) / pm) : "-"
            gap = (pi > 0) ? sprintf("%.1f", (cm - pm) / pi) : "-"
            printf "%-44s %6s %12.6g %9.3g %12.6g %9.3g %8s %3d/%-2d %8s\n", m, up ? "higher" : "lower", \
                pm, pi, cm, ci, rel, won, n, gap
        }
    }' "$logs/metrics"
