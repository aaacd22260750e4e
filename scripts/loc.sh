#!/usr/bin/env sh
# Non-test, non-testdata Go lines — ROADMAP aim 2's tracked number — for the
# repository and for internal/core, checked against the ceilings in
# scripts/loc_ceiling.txt. A change that lowers a count lowers its ceiling in
# the same commit; one that must raise a count says why in the commit that
# raises the ceiling.
#
# Usage: scripts/loc.sh          print both counts, fail past a ceiling
#        scripts/loc.sh -update  rewrite the ceilings to the current counts
set -eu
cd "$(dirname "$0")/.."

count() {
	find "$1" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.bench_build/*' -exec cat {} + | wc -l
}
repo=$(count .)
core=$(count internal/core)
ceiling_file=scripts/loc_ceiling.txt

if [ "${1:-}" = "-update" ]; then
	{
		echo "# Ceilings for scripts/loc.sh: non-test, non-testdata Go lines."
		echo "repo $repo"
		echo "internal/core $core"
	} >"$ceiling_file"
fi

status=0
for entry in "repo $repo" "internal/core $core"; do
	name=${entry% *}
	lines=${entry#* }
	ceiling=$(awk -v n="$name" '$1 == n { print $2 }' "$ceiling_file")
	echo "loc: $name $lines lines (ceiling $ceiling)"
	if [ "$lines" -gt "$ceiling" ]; then
		echo "loc: FAIL — $name grew past its ceiling" >&2
		status=1
	fi
done
exit $status
