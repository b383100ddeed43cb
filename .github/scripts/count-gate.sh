#!/usr/bin/env bash
# Usage: count-gate.sh BASE-REF [HEAD-REF]
#
# The count gate. Runs ab.sh between BASE-REF and HEAD-REF (default HEAD) on
# every workload, 2 pairs of 1 s runs on seeds 1-2, once untraced (--trace 0)
# and once traced (--trace 1), and prints both tables. Fails when, on any
# workload, the median of a gated count rises by more than 1 % and the text in
# $PR_BODY does not name that metric, or when ab.sh fails (a run that was not
# correct or failed pages). Gated from the untraced pass: allocs_per_page,
# db_stmts_per_page and live_heap_mb; from the traced pass:
# cacheproto.roundtrips_per_page and orm.queries_per_page. Time metrics are
# printed, never gated: 1 s runs cannot resolve them.
set -euo pipefail

base=${1:?usage: count-gate.sh BASE-REF [HEAD-REF]}
head=${2:-HEAD}
here=$(dirname "$0")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/count-gate.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

status=0
for trace in 0 1; do
	case $trace in
	0) gated="allocs_per_page db_stmts_per_page live_heap_mb" ;;
	1) gated="cacheproto.roundtrips_per_page orm.queries_per_page" ;;
	esac
	if ! bash "$here/ab.sh" --pairs 2 --seconds 1 --seed 1 --trace "$trace" "$base" "$head" | tee "$tmp/ab.txt"; then
		status=1
	fi
	# ab.sh prints "== WORKLOAD: ..." and then one row per metric: name, base
	# median, head median, ...
	awk -v gated="$gated" '
		BEGIN { n = split(gated, g, " "); for (i = 1; i <= n; i++) want[g[i]] = 1 }
		/^== / { w = $2; sub(/:$/, "", w); next }
		($1 in want) && $3 + 0 > ($2 + 0) * 1.01 { print w, $1, $2, $3 }
	' "$tmp/ab.txt" >"$tmp/rises"
	while read -r w m b h; do
		if printf '%s' "${PR_BODY:-}" | grep -qF -- "$m"; then
			echo "count gate: $w $m rose $b -> $h; the PR body names it"
		else
			echo "count gate: $w $m rose $b -> $h, more than 1 %, and the PR body does not name it" >&2
			status=1
		fi
	done <"$tmp/rises"
done
exit "$status"
