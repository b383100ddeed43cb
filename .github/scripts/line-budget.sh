#!/usr/bin/env bash
# Usage: line-budget.sh BASE-REF
#
# Counts the non-test Go lines outside bench/ at the merge base of BASE-REF
# and HEAD, and at HEAD, and prints both. Fails when HEAD has more and the
# change since the merge base does not touch ROADMAP.md: code may grow only
# with a roadmap line saying what it buys.
set -euo pipefail

base=$(git merge-base "${1:?usage: line-budget.sh BASE-REF}" HEAD)

count() {
	git grep -c '' "$1" -- '*.go' ':!*_test.go' ':!bench/' |
		awk -F: '{ n += $NF } END { print n + 0 }'
}

before=$(count "$base")
after=$(count HEAD)
echo "non-test Go lines outside bench/: $before at merge base ${base:0:12}, $after at HEAD"
if [ "$after" -le "$before" ]; then
	exit 0
fi
if git diff --quiet "$base" HEAD -- ROADMAP.md; then
	echo "non-test Go code grew by $((after - before)) lines and ROADMAP.md is untouched" >&2
	exit 1
fi
echo "grew by $((after - before)) lines; ROADMAP.md is touched"
