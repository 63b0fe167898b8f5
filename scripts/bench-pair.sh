#!/bin/sh
# bench-pair.sh PARENT_DIR WORKLOAD PAIRS [FIRST_SEED]
#
# ROADMAP's rule for a speed claim, as one command: PAIRS alternating
# parent/change runs of one ledger workload in the driver's form
#
#     go run -C bench . --workload W --seed N --seconds 12 --trace 0
#
# PARENT_DIR is a checkout of the parent commit (git clone or git archive
# it somewhere outside the repository); the change is the checkout this
# script lives in. Pair i runs both sides on seed FIRST_SEED+i-1 (default
# 1); odd pairs run the parent first, even pairs the change. Every run's
# last stdout line (the driver's JSON) is printed as it lands, prefixed
# "pair side seed", so `| tee runs.txt` keeps every run made. The summary
# then gives, per end-to-end metric of BENCHMARK.json: both sides'
# medians and quartiles, the median and range of the per-pair ratios
# change/parent, how many pairs the change won, and a verdict by ROADMAP's
# measurement rule, with the metric's bound from the manifest:
#
#     gain        >= 9/10 wins, and the medians differ by more than the
#                 parent's interquartile range
#     worse       the change's median is past the parent's by more than
#                 the bound
#     unresolved  either side's interquartile range, over the parent's
#                 median, is wider than the bound
#     flat        otherwise
#
# Refuses to start beside another sompid: a run sharing the machine is a
# run to throw away.
set -eu

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	echo "usage: $0 PARENT_DIR WORKLOAD PAIRS [FIRST_SEED]" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$(dirname "$0")/.." && pwd)
workload=$2
pairs=$3
first=${4:-1}
manifest=$change/BENCHMARK.json

for dir in "$parent" "$change"; do
	if [ ! -f "$dir/bench/main.go" ]; then
		echo "$0: $dir has no bench/main.go" >&2
		exit 2
	fi
done
if [ "$parent" = "$change" ]; then
	echo "$0: PARENT_DIR is the change's own checkout" >&2
	exit 2
fi
if ps -e -o comm= | grep -qx sompid; then
	echo "$0: a sompid is already running; stop it (or wait for the other benchmark) first" >&2
	exit 1
fi

tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-pair.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

# run SIDE DIR PAIR SEED: one driver run; its last stdout line goes to
# the runs file and to stdout.
run() {
	if ! (cd "$2" && go run -C bench . --workload "$workload" --seed "$4" --seconds 12 --trace 0) \
		>"$tmp/out" 2>"$tmp/err"; then
		cat "$tmp/err" >&2
		echo "$0: $1 run of pair $3 (seed $4) failed" >&2
		exit 1
	fi
	line=$(tail -n 1 "$tmp/out")
	echo "$3 $1 $4 $line" | tee -a "$tmp/runs"
}

i=1
while [ "$i" -le "$pairs" ]; do
	seed=$((first + i - 1))
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$parent" "$i" "$seed"
		run change "$change" "$i" "$seed"
	else
		run change "$change" "$i" "$seed"
		run parent "$parent" "$i" "$seed"
	fi
	i=$((i + 1))
done

# The metric list and each metric's direction and bound come from the
# manifest's end_to_end section (one key per line), so the script cannot
# drift from what the driver gates.
awk -v workload="$workload" '
function metric(line, name,    at, rest) {
	at = index(line, "\"" name "\":{\"value\":")
	if (at == 0) return "nan"
	rest = substr(line, at + length(name) + 12)
	match(rest, /^-?[0-9.]+([eE][-+]?[0-9]+)?/)
	return substr(rest, 1, RLENGTH) + 0
}
function field(line, name,    at, rest) {
	at = index(line, "\"" name "\":")
	if (at == 0) return ""
	rest = substr(line, at + length(name) + 3)
	match(rest, /^[a-z0-9]+/)
	return substr(rest, 1, RLENGTH)
}
# quantile interpolates linearly between the order statistics, so q = 0.5
# is the median.
function quantile(a, n, q,    i, j, t, s, at, lo) {
	for (i = 1; i <= n; i++) s[i] = a[i]
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && s[j] < s[j-1]; j--) { t = s[j]; s[j] = s[j-1]; s[j-1] = t }
	at = 1 + q * (n - 1); lo = int(at)
	return lo < n ? s[lo] + (at - lo) * (s[lo+1] - s[lo]) : s[n]
}
function abs(x) { return x < 0 ? -x : x }
FNR == NR {
	if ($0 ~ /"end_to_end"/) inside = 1
	else if (inside && $0 ~ /\]/) inside = 0
	else if (inside && $1 == "\"name\":") { gsub(/[",]/, "", $2); names[++m] = $2 }
	else if (inside && $1 == "\"better\":") { gsub(/[",]/, "", $2); better[names[m]] = $2 }
	else if (inside && $1 == "\"bound\":") { gsub(/[",]/, "", $2); bound[names[m]] = $2 + 0 }
	next
}
{
	pair = $1; side = $2
	if (pair > n) n = pair
	json = $0; sub(/^[^{]*/, "", json)
	if (field(json, "correct") != "true") wrong[side]++
	attempted[side] += field(json, "attempted"); failed[side] += field(json, "failed")
	for (k = 1; k <= m; k++) v[side, names[k], pair] = metric(json, names[k])
}
END {
	printf "\n%s: %d pairs, ratios are change/parent, quartiles in brackets\n", workload, n
	printf "%-18s %27s %27s %9s %19s %7s  %s\n", "metric", "parent med [q1-q3]", "change med [q1-q3]", "ratio med", "ratio range", "wins", "verdict"
	for (k = 1; k <= m; k++) {
		name = names[k]; wins = 0; lo = hi = 0
		for (p = 1; p <= n; p++) {
			a[p] = v["parent", name, p]; b[p] = v["change", name, p]
			r[p] = a[p] ? b[p] / a[p] : 0
			if (p == 1 || r[p] < lo) lo = r[p]
			if (p == 1 || r[p] > hi) hi = r[p]
			if (better[name] == "higher" ? b[p] > a[p] : b[p] < a[p]) wins++
		}
		pm = quantile(a, n, 0.5); pq1 = quantile(a, n, 0.25); pq3 = quantile(a, n, 0.75)
		cm = quantile(b, n, 0.5); cq1 = quantile(b, n, 0.25); cq3 = quantile(b, n, 0.75)
		# gap > 0: the change median is on the better side of the parent median.
		gap = better[name] == "higher" ? cm - pm : pm - cm
		if (10 * wins >= 9 * n && gap > pq3 - pq1) verdict = "gain"
		else if (-gap > bound[name] * abs(pm)) verdict = "worse"
		else if (pq3 - pq1 > bound[name] * abs(pm) || cq3 - cq1 > bound[name] * abs(pm)) verdict = "unresolved"
		else verdict = "flat"
		printf "%-18s %10.4g [%6.4g-%-6.4g] %10.4g [%6.4g-%-6.4g] %9.3f %9.3f-%-9.3f %4d/%d  %-10s (%s is better, bound %g)\n",
			name, pm, pq1, pq3, cm, cq1, cq3, quantile(r, n, 0.5), lo, hi, wins, n, verdict, better[name], bound[name]
	}
	printf "failed operations: parent %d of %d, change %d of %d; runs not correct: parent %d, change %d\n",
		failed["parent"], attempted["parent"], failed["change"], attempted["change"], wrong["parent"], wrong["change"]
}
' "$manifest" "$tmp/runs"
