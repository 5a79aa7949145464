# benchgate.awk — the one benchmark gate behind `make gates` (and CI,
# which runs that target). It reads `go test -bench` output, pairs rows
# that differ only in their last name element (the variant), folds
# repeated rows of one variant, and fails when the geomean over pairs of
# numerator/denominator ns/op exceeds the limit. One pair makes the
# geomean a plain ratio. After the geomean it prints the five pairs with
# the largest ratio, so a failing run names the rows that tripped it.
#
#   go test -run '^$' -bench B ... | awk -f scripts/benchgate.awk \
#       -v num=VARIANT -v den=VARIANT -v limit=R [-v fold=min|median] [-v allocs=N]
#
#   num, den  variant names (last "/" element, GOMAXPROCS suffix and the
#             #NN Go gives a repeated sub-benchmark name stripped)
#   limit     largest passing geomean of num/den
#   fold      "min" keeps the fastest of repeated rows (-count N),
#             "median" their median; the default keeps the last
#   allocs    optional allocs/op ceiling on every matched row (needs
#             -benchmem)
#
# A gate that matched nothing fails: no pair, or an alloc ceiling with
# no allocs/op column to check, is a broken gate, not a passing one.

$4 == "ns/op" && $1 ~ /^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	sub(/#[0-9]+$/, "", name)
	if (name ~ ("/" num "$")) arm = "num"
	else if (name ~ ("/" den "$")) arm = "den"
	else next
	sub(/\/[^\/]*$/, "", name)
	ns = $3 + 0
	if (fold == "median") seen[arm, name, ++reads[arm, name]] = ns
	else if (fold != "min" || !((arm, name) in best) || ns < best[arm, name]) best[arm, name] = ns
	names[name]
	if (allocs != "" && $NF == "allocs/op") {
		checked++
		if ($(NF - 1) + 0 > allocs) { print "allocs/op over ceiling (" allocs "): " $0; bad = 1 }
	}
}

END {
	if (fold == "median")
		for (key in reads) {
			n = reads[key]
			for (i = 2; i <= n; i++)
				for (j = i; j > 1 && seen[key, j - 1] > seen[key, j]; j--) {
					t = seen[key, j]; seen[key, j] = seen[key, j - 1]; seen[key, j - 1] = t
				}
			best[key] = n % 2 ? seen[key, (n + 1) / 2] : (seen[key, n / 2] + seen[key, n / 2 + 1]) / 2
		}
	for (name in names)
		if (("num", name) in best && ("den", name) in best && best["num", name] > 0 && best["den", name] > 0) {
			ratio[++pairs] = best["num", name] / best["den", name]
			row[pairs] = name
			sum += log(ratio[pairs])
		}
	if (pairs == 0) { print "no " num "/" den " pairs matched — gate is vacuous"; exit 1 }
	if (allocs != "" && checked == 0) { print "no allocs/op columns (run with -benchmem) — alloc ceiling is vacuous"; exit 1 }
	g = exp(sum / pairs)
	printf "geomean %s/%s ns/op over %d pair(s): %.4f (limit %s)\n", num, den, pairs, g, limit
	# A NaN or infinite geomean (a row read at +Inf ns/op) compares as
	# within the limit in mawk: it fails by its printed form.
	for (k = 1; k <= 5 && k <= pairs; k++) {
		top = k
		for (i = k + 1; i <= pairs; i++) if (ratio[i] > ratio[top]) top = i
		t = ratio[k]; ratio[k] = ratio[top]; ratio[top] = t
		t = row[k]; row[k] = row[top]; row[top] = t
		printf "  %.4f %s\n", ratio[k], row[k]
	}
	if (g > limit + 0 || tolower(g "") ~ /nan|inf/) { print "gate exceeded"; bad = 1 }
	exit bad + 0
}
