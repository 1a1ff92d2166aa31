#!/usr/bin/env bash
# Checks that the working tree's simulator gives byte-identical results
# to a base revision's: the change touched code the simulator shares
# with the live engine (internal/uqueue, internal/sched) and claims the
# schedule did not move. Runs `stripsim -json` on both builds over the
# 60-configuration matrix
#
#   UF/TF/SU/OD/FC x coalesce on/off x fifo/lifo x {ma, uu, ma -partition}
#
# and diffs the outputs.
#
#   scripts/sim-identical.sh <base-rev>
#   make sim-identical BASE=<rev>
#
# DURATION (simulated seconds per configuration, default 60) can be set
# in the environment. The base is exported into a temporary directory,
# removed on exit together with both binaries and their outputs.
set -euo pipefail

base=${1:?usage: scripts/sim-identical.sh <base-rev>}
duration=${DURATION:-60}
root=$(git rev-parse --show-toplevel)

rev=$(git -C "$root" rev-parse --verify "$base^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base" "$tmp/out-base" "$tmp/out-change"
git -C "$root" archive "$rev" | tar -x -C "$tmp/base"
go build -C "$tmp/base" -o "$tmp/stripsim-base" ./cmd/stripsim
go build -C "$root" -o "$tmp/stripsim-change" ./cmd/stripsim

configs=0
differ=0
for policy in UF TF SU OD FC; do
	for coalesce in false true; do
		for order in fifo lifo; do
			for variant in "ma" "uu" "ma -partition"; do
				read -r staleness extra <<<"$variant"
				name="$policy-coalesce=$coalesce-$order-${variant// /}"
				for side in base change; do
					# $extra is empty or one flag: left unquoted on purpose.
					"$tmp/stripsim-$side" -json -policy "$policy" -coalesce="$coalesce" -order "$order" \
						-staleness "$staleness" $extra -duration "$duration" >"$tmp/out-$side/$name.json"
				done
				configs=$((configs + 1))
				if ! cmp -s "$tmp/out-base/$name.json" "$tmp/out-change/$name.json"; then
					differ=$((differ + 1))
					echo "DIFFERS: $name"
					diff "$tmp/out-base/$name.json" "$tmp/out-change/$name.json" | head -20 || true
				fi
			done
		done
	done
done

echo "sim-identical: base $rev against the working tree, $configs configurations of $duration s, $differ differ"
test "$differ" -eq 0
