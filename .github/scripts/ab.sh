#!/usr/bin/env bash
# Usage: ab.sh [--workload W[,W...]] [--pairs N] [--seconds S] [--trace 0|1]
#              [--seed FIRST] BASE-REF [HEAD-REF]
#
# Paired A/B run of geniebench. Exports the committed trees of BASE-REF and
# HEAD-REF (default HEAD) into a temporary directory, then, per workload, runs
# `bash bench/run.sh` on each tree on the same seeds FIRST, FIRST+1, ...: one
# pair per seed, base first on odd pairs and head first on even ones, so slow
# host drift falls on both sides. Defaults: every workload in BENCHMARK.json,
# 10 pairs, 10 s runs, --trace 0 (the end-to-end pass; 1 runs the traced
# per-layer pass instead), seeds from 1.
#
# Prints, per metric: both medians, the change of the median, how many pairs
# head won, the interquartile range of base's runs, and the verdict: "better"
# or "worse" when one side won every pair and the medians differ by more than
# base's IQR, "-" otherwise. Counts (any metric not in a unit of time) also get
# their difference per seed. Every run must report correct with no failed
# page; the script exits 1 when one does not.
#
# Needs git, jq and the Go toolchain; the trees build in their own directories
# (bench/run.sh), which go when the script exits.
set -euo pipefail

workloads="" pairs=10 seconds=10 trace=0 seed=1
refs=()
while [ $# -gt 0 ]; do
	case "$1" in
	--workload) workloads="$2"; shift 2 ;;
	--pairs) pairs="$2"; shift 2 ;;
	--seconds) seconds="$2"; shift 2 ;;
	--trace) trace="$2"; shift 2 ;;
	--seed) seed="$2"; shift 2 ;;
	-*) echo "ab.sh: unknown option $1" >&2; exit 2 ;;
	*) refs+=("$1"); shift ;;
	esac
done
if [ ${#refs[@]} -lt 1 ] || [ ${#refs[@]} -gt 2 ]; then
	sed -n '2,3p' "$0" >&2
	exit 2
fi
base=$(git rev-parse --verify "${refs[0]}^{commit}")
head=$(git rev-parse --verify "${refs[1]:-HEAD}^{commit}")

tmp=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
for side in base head; do
	mkdir -p "$tmp/$side/tree" "$tmp/$side/runs"
	git archive "${!side}" | tar -x -C "$tmp/$side/tree"
done
if [ -z "$workloads" ]; then
	workloads=$(jq -r '[.workloads[].name] | join(",")' "$tmp/head/tree/BENCHMARK.json")
fi
# Directions of every metric either tree declares; head's win a conflict.
jq -s '[.[] | (.end_to_end + .per_layer)[] | {(.name): .better}] | add' \
	"$tmp/base/tree/BENCHMARK.json" "$tmp/head/tree/BENCHMARK.json" >"$tmp/better.json"

# run SIDE WORKLOAD SEED: one geniebench run; its contract line is the last
# line it prints.
run() {
	local out="$tmp/$1/runs/$2-$3.json"
	(cd "$tmp/$1/tree" && bash bench/run.sh --workload "$2" --seed "$3" --seconds "$seconds" --trace "$trace") \
		>"$tmp/$1/runs/$2-$3.log" 2>&1
	tail -n 1 "$tmp/$1/runs/$2-$3.log" >"$out"
	jq -e '.metrics' "$out" >/dev/null || { echo "ab.sh: $1 $2 seed $3 printed no result:" >&2; tail -n 20 "$tmp/$1/runs/$2-$3.log" >&2; exit 1; }
}

status=0
IFS=, read -r -a list <<<"$workloads"
for w in "${list[@]}"; do
	for ((i = 0; i < pairs; i++)); do
		s=$((seed + i))
		if ((i % 2 == 0)); then run base "$w" "$s"; run head "$w" "$s"; else run head "$w" "$s"; run base "$w" "$s"; fi
		echo "ab.sh: $w pair $((i + 1))/$pairs (seed $s) done" >&2
	done
	echo "== $w: ${base:0:12} (base) vs ${head:0:12} (head), $pairs pairs of ${seconds}s, --trace $trace, seeds $seed-$((seed + pairs - 1))"
	for side in base head; do
		for ((i = 0; i < pairs; i++)); do cat "$tmp/$side/runs/$w-$((seed + i)).json"; done >"$tmp/$side/$w.jsonl"
	done
	jq -n -r --slurpfile better "$tmp/better.json" --slurpfile B "$tmp/base/$w.jsonl" --slurpfile H "$tmp/head/$w.jsonl" \
		--argjson n "$pairs" '
		def q($p): sort as $s | ($s | length) as $len | ($p * ($len - 1)) as $x | ($x | floor) as $i
			| if $i + 1 < $len then $s[$i] + ($x - $i) * ($s[$i + 1] - $s[$i]) else $s[$i] end;
		def pct($a; $b): if $a == 0 then "n/a" else (($b - $a) / $a * 1000 | round / 10 | if . == 0 then 0 else . end | tostring) + "%" end;
		def r: . * 1000 | round / 1000 | if . == 0 then 0 else . end;
		def abs: if . < 0 then -. else . end;
		def pad($w): tostring | if length < $w then " " * ($w - length) + . else . end;
		$better[0] as $dir_of
		| ($H[0].metrics | keys) as $names
		| (["metric", "base med", "head med", "change", "wins", "base IQR", "verdict"]),
		  ($names[] as $m
			| ($dir_of[$m] // "lower") as $dirn
			| [$B[] | .metrics[$m].value] as $b
			| [$H[] | .metrics[$m].value] as $h
			| select(($b | all(. != null)) and ($h | all(. != null)))
			| ($b | q(0.5)) as $mb | ($h | q(0.5)) as $mh | (($b | q(0.75)) - ($b | q(0.25))) as $iqr
			| def won($x; $y): if $dirn == "higher" then $x > $y else $x < $y end;
			  ([range(0; $n) | select(won($h[.]; $b[.]))] | length) as $wins
			| ([range(0; $n) | select(won($b[.]; $h[.]))] | length) as $losses
			| (($mh - $mb) | abs) as $gap
			| [$m, ($mb | r), ($mh | r), pct($mb; $mh), "\($wins)/\($n)", ($iqr | r),
				(if $wins == $n and $gap > $iqr then "better" elif $losses == $n and $gap > $iqr then "worse" else "-" end)])
		| .[0] + " " * (40 - (.[0] | length)) + (.[1:] | map(pad(12)) | join(""))
		'
	echo "per-seed difference (head - base), counts:"
	jq -n -r --slurpfile B "$tmp/base/$w.jsonl" --slurpfile H "$tmp/head/$w.jsonl" --argjson first "$seed" '
		def r: . * 1000 | round / 1000 | if . == 0 then 0 else . end;
		($H[0].metrics | to_entries[] | select(.value.unit | test("^(1/)?s$|^(ms|us|ns)(/|$)") | not) | .key) as $m
		| "  \($m): " + ([range(0; $H | length) | select($B[.].metrics[$m] != null)
			| "s\(. + $first)=\($H[.].metrics[$m].value - $B[.].metrics[$m].value | r)"] | join(" "))
		'
	bad=$(jq -s '[.[] | select(.correct != true or .failed != 0)] | length' "$tmp"/{base,head}/"$w".jsonl)
	if [ "$bad" -ne 0 ]; then
		echo "!! $bad runs of $w were not correct or failed pages"
		status=1
	fi
	echo
done
exit "$status"
