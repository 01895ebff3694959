#!/bin/sh
# Non-test lines of Rust — everything above a file's test module, i.e.
# above the first #[cfg(test)] whose next line opens a `mod` — per crate
# under crates/, and for the ten largest files. A #[cfg(test)] on a
# single item does not end the file: it is passed over with its item
# (both are counted; a test-only helper amid the code is code to read).
# ROADMAP tracks this number: a PR that keeps the tests and the benchmark
# where they were with fewer of these lines made the system simpler.
#
#   scripts/loc.sh            the table
#   scripts/loc.sh FILE...    just the count of each given file
set -eu
cd "$(dirname "$0")/.."

nontest() {
    awk 'held && /^[[:space:]]*(pub(\([a-z]+\))? +)?mod[[:space:]]/ { n--; exit }
         { held = /^[[:space:]]*#\[cfg\(test\)\]/; n++ }
         END { print n + 0 }' "$1"
}

if [ "$#" -gt 0 ]; then
    for f in "$@"; do
        printf '%7d  %s\n' "$(nontest "$f")" "$f"
    done
    exit 0
fi

counts=$(find crates -path '*/src/*' -name '*.rs' | sort | while read -r f; do
    printf '%d %s\n' "$(nontest "$f")" "$f"
done)

echo "non-test lines per crate"
echo "$counts" | awk '{ split($2, p, "/"); n[p[2]] += $1 } END { for (c in n) printf "%7d  %s\n", n[c], c }' | sort -k2
echo "$counts" | awk '{ n += $1 } END { printf "%7d  total\n", n }'
echo
echo "ten largest files"
echo "$counts" | sort -rn | head -10 | awk '{ printf "%7d  %s\n", $1, $2 }'
