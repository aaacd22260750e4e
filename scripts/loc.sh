#!/usr/bin/env sh
# Line ceilings, checked against scripts/loc_ceiling.txt: non-test,
# non-testdata Go lines — ROADMAP aim 2's tracked number — for the
# repository and for internal/core, and the lines of DESIGN.md and
# README.md. A change that lowers a Go count lowers its ceiling in the same
# commit; one that must raise a count says why in the commit that raises the
# ceiling. The document ceilings are fixed caps: -update leaves them as they
# are.
#
# Usage: scripts/loc.sh          print every count, fail past a ceiling
#        scripts/loc.sh -update  rewrite the Go ceilings to the current counts
set -eu
cd "$(dirname "$0")/.."

count() {
	find "$1" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.bench_build/*' -exec cat {} + | wc -l
}
repo=$(count .)
core=$(count internal/core)
design=$(wc -l <DESIGN.md)
readme=$(wc -l <README.md)
ceiling_file=scripts/loc_ceiling.txt

if [ "${1:-}" = "-update" ]; then
	docs=$(grep -E '^(DESIGN|README)\.md ' "$ceiling_file")
	{
		echo "# Ceilings for scripts/loc.sh: non-test, non-testdata Go lines, then document lines."
		echo "repo $repo"
		echo "internal/core $core"
		echo "$docs"
	} >"$ceiling_file"
fi

status=0
for entry in "repo $repo" "internal/core $core" "DESIGN.md $design" "README.md $readme"; do
	name=${entry% *}
	lines=${entry#* }
	ceiling=$(awk -v n="$name" '$1 == n { print $2 }' "$ceiling_file")
	if [ -z "$ceiling" ]; then
		echo "loc: FAIL — $ceiling_file has no ceiling for $name" >&2
		status=1
		continue
	fi
	echo "loc: $name $lines lines (ceiling $ceiling)"
	if [ "$lines" -gt "$ceiling" ]; then
		echo "loc: FAIL — $name grew past its ceiling" >&2
		status=1
	fi
done
exit $status
