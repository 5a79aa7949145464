package service

import (
	"fmt"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obsv"
	"repro/internal/tree"
)

// The /metrics contract, held as assertions over the families table
// (prometheus.go) and the stats structs it reads; the promFamilies
// golden and TestPrometheusExposition hold the rendered page.

var familyNameRx = regexp.MustCompile(`^(xpqd|go)_[a-z0-9_]+$`)

// checkFamilies reports every way fams breaks the exposition contract:
// names match familyNameRx (go_* is reserved for the runtime gauges)
// and carry help text; counters end in _total and nothing else does;
// a family is declared once; a row has exactly the one getter its type
// and label call for; an xpqd_* family reads Stats — a live getter is a
// second count beside /stats — except the uptime, which no Stats field
// holds.
func checkFamilies(fams []family) []error {
	var errs []error
	seen := map[string]bool{}
	for _, f := range fams {
		bad := func(format string, args ...any) {
			errs = append(errs, fmt.Errorf("family %s "+format, append([]any{f.name}, args...)...))
		}
		if !familyNameRx.MatchString(f.name) {
			bad("breaks the naming contract %s", familyNameRx)
		}
		if strings.TrimSpace(f.help) == "" {
			bad("has no help text")
		}
		switch total := strings.HasSuffix(f.name, "_total"); {
		case f.typ == obsv.TypeCounter && !total:
			bad("is a counter and must end in _total")
		case (f.typ == obsv.TypeGauge || f.typ == obsv.TypeHistogram) && total:
			bad("is a %s and must not end in _total (reserved for counters)", f.typ)
		case f.typ != obsv.TypeCounter && f.typ != obsv.TypeGauge && f.typ != obsv.TypeHistogram:
			bad("has unknown type %q", f.typ)
		}
		if seen[f.name] {
			bad("is declared twice")
		}
		seen[f.name] = true
		getters := 0
		for _, set := range []bool{f.stat != nil, f.byLabel != nil, f.hist != nil, f.live != nil} {
			if set {
				getters++
			}
		}
		if getters != 1 {
			bad("has %d getters, want exactly one (a row without one is a dead family)", getters)
		}
		if (f.byLabel != nil) != (f.label != "") {
			bad("must set label and byLabel together")
		}
		if (f.hist != nil) != (f.typ == obsv.TypeHistogram) {
			bad("must set hist exactly when it is a histogram")
		}
		if f.live != nil && strings.HasPrefix(f.name, "xpqd_") && f.name != "xpqd_uptime_seconds" {
			bad("reads the service live; an xpqd_ family must read a Stats field")
		}
	}
	return errs
}

// TestCheckFamiliesBites proves the checker on one row per drift (the
// rows of the lint fixture it replaces) before trusting its silence.
func TestCheckFamiliesBites(t *testing.T) {
	one := func(*Stats) float64 { return 1 }
	good := family{name: "xpqd_good_total", typ: counter, help: "A well-formed counter.", stat: one}
	for _, tc := range []struct {
		row  family
		want []string
	}{
		{family{name: "go_fine", typ: gauge, help: "A well-formed runtime gauge.", live: func(*Service) (float64, bool) { return 1, true }}, nil},
		{family{name: "xpqd_Bad_name", typ: counter, help: "Mixed case.", stat: one}, []string{"breaks the naming contract", "must end in _total"}},
		{family{name: "other_requests_total", typ: counter, help: "Foreign prefix.", stat: one}, []string{"breaks the naming contract"}},
		{family{name: "xpqd_notatotal", typ: counter, help: "Counter without suffix.", stat: one}, []string{"is a counter and must end in _total"}},
		{family{name: "xpqd_gauge_total", typ: gauge, help: "Gauge wearing a counter suffix.", stat: one}, []string{"is a gauge and must not end in _total"}},
		{family{name: "xpqd_nohelp_total", typ: counter, help: " ", stat: one}, []string{"has no help text"}},
		{family{name: "xpqd_good_total", typ: counter, help: "Declared twice.", stat: one}, []string{"is declared twice"}},
		{family{name: "xpqd_dead_total", typ: counter, help: "Never emitted."}, []string{"has 0 getters"}},
		{family{name: "xpqd_odd", typ: "summary", help: "Unknown type.", stat: one}, []string{"has unknown type"}},
		{family{name: "xpqd_unlabelled_total", typ: counter, help: "Map without a label.", byLabel: func(*Stats) map[string]uint64 { return nil }}, []string{"must set label and byLabel together"}},
		{family{name: "xpqd_flat_seconds", typ: obsv.TypeHistogram, help: "Histogram without bins.", stat: one}, []string{"must set hist exactly when"}},
		{family{name: "xpqd_side_total", typ: counter, help: "Counted beside /stats.", live: func(*Service) (float64, bool) { return 1, true }}, []string{"must read a Stats field"}},
	} {
		errs := checkFamilies([]family{good, tc.row})
		if len(errs) != len(tc.want) {
			t.Errorf("%s: got %v, want %d errors %q", tc.row.name, errs, len(tc.want), tc.want)
			continue
		}
		for i, want := range tc.want {
			if !strings.Contains(errs[i].Error(), want) {
				t.Errorf("%s: error %q, want it to contain %q", tc.row.name, errs[i], want)
			}
		}
	}
}

// TestFamilyTable runs the checker over the real table and holds the
// table and the promFamilies golden to each other in both directions,
// type included: a family missing from the golden is untested, a golden
// row without a family is a stale contract.
func TestFamilyTable(t *testing.T) {
	for _, err := range checkFamilies(families) {
		t.Error(err)
	}
	inTable := map[string]bool{}
	for _, f := range families {
		inTable[f.name] = true
		if want, ok := promFamilies[f.name]; !ok {
			t.Errorf("family %s is not in the promFamilies golden", f.name)
		} else if want != f.typ {
			t.Errorf("family %s is a %s in the table but a %s in the golden", f.name, f.typ, want)
		}
	}
	for name := range promFamilies {
		if !inTable[name] {
			t.Errorf("the golden lists %s but the table has no such family", name)
		}
	}
}

// noTwin is the one list of numeric /stats fields that have no
// Prometheus family on purpose, by field path from Stats (slice and
// array elements and pointers elided), with the reason. A path covers
// the fields below it. Fields named *Mean* or *Rate are exempt by rule:
// PromQL derives means and ratios from the exact sums and counts.
var noTwin = map[string]string{
	"AllocsPerQuery":            "xpqd_heap_alloc_objects_total / xpqd_queries_total in PromQL",
	"Queries.Streaming.Streams": "completed + aborted, both exported",
	"Queries.Streaming.Aborted": "sum of xpqd_streams_aborted_total over the cause label",
	"Queries.Latency.LEMicros":  "the bin's bound: the le label renders the same latencyBuckets",
	"Documents":                 "per-document detail: xpqd_documents and xpqd_doc_bytes carry the totals",
	"Shards":                    "cmd/xpqbench's copy of DocBytes, and lock fields that are always 0",
	"Mapped.MapFaults":          "always 0 since the store stopped releasing mappings; cmd/xpqbench reads it",
}

// TestStatsFieldsHavePrometheusTwin perturbs every exported numeric
// field /stats serves — through the nested core, store and qcache
// structs too — and requires the /metrics page to change, unless the
// field is exempt, in which case the page must not change: a /stats key
// cannot silently lack its family, and the exemption list cannot go
// stale.
func TestStatsFieldsHavePrometheusTwin(t *testing.T) {
	s := newTestService(t, Options{})
	promTraffic(t, s)
	st := s.Stats()
	render := func() string {
		var sb strings.Builder
		if err := s.writeFamilies(&sb, &st); err != nil {
			t.Fatal(err)
		}
		// Uptime and the runtime gauges move on their own and read no
		// stats field.
		var kept []string
		for _, line := range strings.Split(sb.String(), "\n") {
			if !strings.HasPrefix(line, "xpqd_uptime_seconds") && !strings.HasPrefix(line, "go_") {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}
	base := render()
	usedExemption := map[string]bool{}
	leaves := 0
	// check perturbs one leaf through set and its undo.
	check := func(path string, exempt bool, set, undo func()) {
		leaves++
		set()
		changed := render() != base
		undo()
		switch {
		case !changed && !exempt:
			t.Errorf("/stats field %s has no Prometheus twin: changing it leaves /metrics unchanged (add a family, or an entry in noTwin saying why not)", path)
		case changed && exempt:
			t.Errorf("/stats field %s is exempt from the twin rule but /metrics reads it", path)
		}
	}
	var walk func(v reflect.Value, path string, exempt bool)
	walk = func(v reflect.Value, path string, exempt bool) {
		if _, ok := noTwin[path]; ok {
			usedExemption[path] = true
			exempt = true
		}
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				f := v.Type().Field(i)
				if !f.IsExported() || f.Tag.Get("json") == "-" {
					continue
				}
				derivable := strings.Contains(f.Name, "Mean") || strings.HasSuffix(f.Name, "Rate")
				walk(v.Field(i), strings.TrimPrefix(path+"."+f.Name, "."), exempt || derivable)
			}
		case reflect.Pointer:
			if v.IsNil() {
				t.Errorf("%s is nil: the test's traffic must populate it", path)
				return
			}
			walk(v.Elem(), path, exempt)
		case reflect.Slice, reflect.Array:
			if v.Len() == 0 {
				t.Errorf("%s is empty: the test's traffic must populate it", path)
				return
			}
			walk(v.Index(0), path, exempt)
		case reflect.Map:
			if v.Type().Elem().Kind() != reflect.Uint64 {
				return
			}
			key := reflect.ValueOf("perturbed")
			check(path, exempt,
				func() { v.SetMapIndex(key, reflect.ValueOf(uint64(1))) },
				func() { v.SetMapIndex(key, reflect.Value{}) })
		case reflect.Int, reflect.Int64:
			old := v.Int()
			check(path, exempt, func() { v.SetInt(old + 1) }, func() { v.SetInt(old) })
		case reflect.Uint64:
			old := v.Uint()
			check(path, exempt, func() { v.SetUint(old + 1) }, func() { v.SetUint(old) })
		case reflect.Float64:
			old := v.Float()
			check(path, exempt, func() { v.SetFloat(old + 1) }, func() { v.SetFloat(old) })
		}
	}
	walk(reflect.ValueOf(&st).Elem(), "", false)
	for path := range noTwin {
		if !usedExemption[path] {
			t.Errorf("noTwin lists %s, which is not a /stats field", path)
		}
	}
	if leaves < 55 {
		t.Errorf("walked %d numeric fields, want the whole of Stats (over 55): reflection walk regressed?", leaves)
	}
}

// TestCountersNeverDecrease scrapes /metrics after each step of a
// document's life — queries, a PATCH that retires a generation, an
// evict and reload — and requires every counter series to still be
// there and to be at least what it was.
func TestCountersNeverDecrease(t *testing.T) {
	s := newTestService(t, Options{})
	prev := map[string]float64{}
	scrape := func(step string) {
		t.Helper()
		var sb strings.Builder
		if err := s.WriteMetrics(&sb); err != nil {
			t.Fatal(err)
		}
		counters := map[string]bool{}
		now := map[string]float64{}
		for _, line := range strings.Split(strings.TrimRight(sb.String(), "\n"), "\n") {
			if f := strings.Fields(line); strings.HasPrefix(line, "# TYPE ") {
				counters[f[2]] = f[3] == obsv.TypeCounter
			} else if m := promSampleRE.FindStringSubmatch(line); m != nil && counters[m[1]] {
				v, err := strconv.ParseFloat(m[3], 64)
				if err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				now[m[1]+m[2]] = v
			}
		}
		if len(now) == 0 {
			t.Fatalf("after %s: no counter series parsed", step)
		}
		for series, was := range prev {
			if is, ok := now[series]; !ok {
				t.Errorf("after %s: %s disappeared (was %v)", step, series, was)
			} else if is < was {
				t.Errorf("after %s: %s went backwards, %v -> %v", step, series, was, is)
			}
		}
		prev = now
	}
	queries := func() {
		t.Helper()
		for i := 0; i < 6; i++ {
			for _, strat := range []string{"", "optimized"} {
				if resp := s.Eval(Request{Doc: "d1", Query: "//a/b", Strategy: strat}); resp.Err != "" {
					t.Fatal(resp.Err)
				}
			}
		}
	}
	scrape("start")
	queries()
	scrape("queries")
	if st := s.Stats(); st.Pool.Hits == 0 {
		t.Fatalf("traffic left pool hits %d: nothing to lose", st.Pool.Hits)
	}
	for i := 0; s.Stats().MVCC.Retired == 0; i++ {
		if i == 8 {
			t.Fatal("no generation retired after 8 patches")
		}
		if _, err := s.PatchDoc("d1", PatchDocRequest{Op: "insert", Node: tree.NodeID(1), XML: "<b/>"}); err != nil {
			t.Fatal(err)
		}
	}
	scrape("a PATCH that retired a generation")
	queries()
	scrape("queries on the new generation")
	if !s.EvictDoc("d1") {
		t.Fatal("d1 was not resident")
	}
	scrape("evict")
	if _, err := s.Store().LoadXML("d1", []byte("<r><a><b>x</b></a></r>")); err != nil {
		t.Fatal(err)
	}
	queries()
	scrape("reload and queries")
}
