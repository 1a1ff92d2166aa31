#!/usr/bin/env bash
# A/B runs of the repository's benchmark (bench/README.md): a base
# revision against the working tree, as the contract in BENCHMARK.json
# judges a change — alternating pairs with a fresh seed per pair, the
# side that goes first alternating too, then `-compare` of the two
# result files and, per workload and end-to-end metric, each side's
# quartiles, minimum and maximum, how many pairs each side won, and
# whether the gain-claim rule holds: the change wins at least nine
# tenths of the pairs (ties count for neither) and its median beats the
# base's by more than the base's q3 - q1. Quartiles use the exclusive
# method of bench/stats.go, so they are the spreads -compare reports.
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
echo "per workload and end-to-end metric: each side's q1 / median / q3 [min, max], pairs won, gain claim:"
awk -v spec="$spec" '
function value(line, name,    s) {
	if (!match(line, "\"" name "\":\\{\"value\":[-+0-9.eE]+")) return "missing"
	s = substr(line, RSTART, RLENGTH); sub(/.*:/, "", s); return s + 0
}
function workload(line,    s) {
	match(line, /"workload":"[^"]+"/); s = substr(line, RSTART, RLENGTH)
	gsub(/"workload":|"/, "", s); return s
}
# stats fills q[1..3], q["min"], q["max"] from vals[k, 1..cnt] with the
# exclusive quartile method of bench/stats.go (Python statistics.quantiles).
function stats(vals, k, cnt, q,    s, i, j, t, c, d) {
	split("", s)
	for (i = 1; i <= cnt; i++) {
		t = vals[k, i]
		for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]
		s[j + 1] = t
	}
	q["min"] = s[1]; q["max"] = s[cnt]
	for (c = 1; c <= 3; c++) {
		if (cnt < 2) { q[c] = s[1]; continue }
		j = int(c * (cnt + 1) / 4)
		if (j < 1) j = 1
		if (j > cnt - 1) j = cnt - 1
		d = c * (cnt + 1) - j * 4
		q[c] = (s[j] * (4 - d) + s[j + 1] * d) / 4
	}
}
function side(name, q) {
	printf "    %-6s %10.6g / %10.6g / %10.6g  [%.6g, %.6g]\n", name, q[1], q[2], q[3], q["min"], q["max"]
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
		if (va != "missing") base[k, ++nb[k]] = va
		if (vb != "missing") chg[k, ++nc[k]] = vb
		if (va == vb) ties[k]++
		else if ((better[m] == "higher") == (vb > va)) won[k]++
		else lost[k]++
	}
}
END {
	for (j = 1; j <= nw; j++) for (i = 1; i <= n; i++) {
		m = names[i]; k = order[j] SUBSEP m
		if (!nb[k] || !nc[k]) { printf "  %s %s: missing\n", order[j], m; continue }
		stats(base, k, nb[k], qb); stats(chg, k, nc[k], qc)
		pairs = won[k] + lost[k] + ties[k]
		gain = better[m] == "higher" ? qc[2] - qb[2] : qb[2] - qc[2]
		holds = won[k] * 10 >= pairs * 9 && gain > qb[3] - qb[1]
		printf "  %s %s (%s is better)\n", order[j], m, better[m]
		side("base", qb); side("change", qc)
		printf "    pairs won: change %d, base %d, ties %d; median gain %.6g vs base q3-q1 %.6g: claim %s\n",
			won[k], lost[k], ties[k], gain, qb[3] - qb[1], holds ? "holds" : "does not hold"
	}
}' "$out/base.jsonl" "$out/change.jsonl"
exit $status
