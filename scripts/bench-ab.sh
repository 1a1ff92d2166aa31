#!/usr/bin/env bash
# A/B runs of the repository's benchmark (bench/README.md): a base
# revision against the working tree, as the contract in BENCHMARK.json
# judges a change — alternating pairs with a fresh seed per pair, the
# side that goes first alternating too, then `-compare` of the two
# result files and, per end-to-end metric, how many pairs each side won.
#
#   scripts/bench-ab.sh <base-rev> [workload|all] [pairs]
#   make bench-ab BASE=<rev> [WORKLOAD=feed_capacity] [PAIRS=10]
#
# SECONDS_PER_RUN (default: run_seconds of BENCHMARK.json) and SEED (the
# first pair's; default from the clock, printed) can be set in the
# environment. The base is exported into a temporary directory, removed
# on exit; the two result files are kept and their directory printed.
set -euo pipefail

base=${1:?usage: scripts/bench-ab.sh <base-rev> [workload|all] [pairs]}
workload=${2:-feed_capacity}
pairs=${3:-10}
root=$(git rev-parse --show-toplevel)
spec="$root/BENCHMARK.json"
seconds=${SECONDS_PER_RUN:-$(awk -F'[:,]' '/"run_seconds"/ {gsub(/ /, "", $2); print $2}' "$spec")}
seed=${SEED:-$(( $(date +%s) % 1000000 * 100 ))}

rev=$(git -C "$root" rev-parse --verify "$base^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$root" archive "$rev" | tar -x -C "$tmp/base"

out=$(mktemp -d "${TMPDIR:-/tmp}/bench-ab.XXXXXX")
echo "base $rev, change: working tree; workload $workload, $pairs pairs of $seconds s, seeds $seed..$((seed + pairs - 1)); results in $out"

run() { # run <side> <checkout> <seed>
	(cd "$2" && bash bench/run.sh --workload "$workload" --seed "$3" --seconds "$seconds" \
		--results "$out/$1.jsonl") | grep -E '^(stripbench|  checks:)' | sed "s/^/[$1] /"
}
for ((i = 0; i < pairs; i++)); do
	if ((i % 2 == 0)); then
		run base "$tmp/base" $((seed + i))
		run change "$root" $((seed + i))
	else
		run change "$root" $((seed + i))
		run base "$tmp/base" $((seed + i))
	fi
done

echo
status=0
(cd "$root" && bash bench/run.sh -compare "$out/base.jsonl" "$out/change.jsonl") || status=$?

echo
echo "pairs won (same seed, run back to back), per end-to-end metric:"
awk -v spec="$spec" '
function value(line, name,    s) {
	if (!match(line, "\"" name "\":\\{\"value\":[-+0-9.eE]+")) return "missing"
	s = substr(line, RSTART, RLENGTH); sub(/.*:/, "", s); return s + 0
}
function workload(line,    s) {
	match(line, /"workload":"[^"]+"/); s = substr(line, RSTART, RLENGTH)
	gsub(/"workload":|"/, "", s); return s
}
BEGIN {
	while ((getline line < spec) > 0) {
		if (line ~ /"end_to_end"/) inside = 1
		else if (inside && line ~ /^  \]/) inside = 0
		else if (inside && line ~ /"name"/) { split(line, f, "\""); name = f[4] }
		else if (inside && line ~ /"better"/) { split(line, f, "\""); names[++n] = name; better[name] = f[4] }
	}
}
FNR == NR { a[FNR] = $0; next }
{
	w = workload($0)
	if (w != workload(a[FNR])) { print "result files are not paired at line " FNR > "/dev/stderr"; exit 2 }
	if (!(w in seen)) { seen[w] = 1; order[++nw] = w }
	for (i = 1; i <= n; i++) {
		m = names[i]; va = value(a[FNR], m); vb = value($0, m); k = w SUBSEP m
		if (va == vb) ties[k]++
		else if ((better[m] == "higher") == (vb > va)) won[k]++
		else lost[k]++
	}
}
END {
	for (j = 1; j <= nw; j++) for (i = 1; i <= n; i++) {
		k = order[j] SUBSEP names[i]
		printf "  %-16s %-18s change %2d, base %2d, ties %2d\n", order[j], names[i], won[k], lost[k], ties[k]
	}
}' "$out/base.jsonl" "$out/change.jsonl"
exit $status
