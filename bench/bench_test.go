package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload for 200ms on 5k transactions, untraced
// and traced, and checks that each prints exactly the metrics
// BENCHMARK.json declares for that mode, with their units, and that no
// op failed its oracle check.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	namePat := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	unitPat := regexp.MustCompile(`^[A-Za-z0-9_/%.-]+$`)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			dir := t.TempDir()
			cfg := config{workload: w.name, seed: 1, seconds: 0.2, trace: trace, txns: 5000, builds: 2, workdir: dir}
			rep, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			var buf bytes.Buffer
			if err := rep.write(&buf); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", w.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t failed=%d of %d: %v", w.name, trace, res.Correct, res.Failed, res.Attempted, rep.firstErr)
			}
			want := decl.EndToEnd
			if trace {
				want = decl.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json declares %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
			for _, l := range lines[1 : len(lines)-1] {
				f := strings.Fields(l)
				if len(f) != 4 || f[0] != w.name || !namePat.MatchString(f[1]) || !unitPat.MatchString(f[3]) {
					t.Errorf("%s: malformed metric line %q", w.name, l)
				}
			}
			if trace {
				spans, err := os.ReadFile(filepath.Join(dir, "spans-"+w.name+".jsonl"))
				if err != nil || len(spans) == 0 {
					t.Errorf("%s: no spans written: %v", w.name, err)
				}
			}
		}
	}
}

// TestAnalyze checks self times, including context-less write spans
// parented by TID to the traced write op that made them.
func TestAnalyze(t *testing.T) {
	spans := []span{
		{Name: "op.knn", ID: 1, Op: 1, Start: 0, End: 100},
		{Name: "http", ID: 2, Parent: 1, Op: 1, Start: 10, End: 90},
		{Name: "engine.Query", ID: 3, Parent: 2, Op: 1, Start: 20, End: 80},
		{Name: "op.insert", ID: 4, Op: 4, TID: 70, Start: 200, End: 300},
		{Name: "http", ID: 5, Parent: 4, Op: 4, Start: 210, End: 290},
		// An untraced insert on another connection overlaps the traced
		// one in time and finishes first; time containment would claim
		// it for http span 5.
		{Name: "engine.Insert", ID: 6, TID: 71, Start: 215, End: 225},
		{Name: "engine.Insert", ID: 7, TID: 70, Start: 220, End: 250},
		{Name: "engine.Insert", ID: 8, TID: 72, Start: 400, End: 410}, // an untraced op's
		// An in-process traced delete: no http span, so the engine span
		// goes under the op span itself, and the insert of the same TID
		// does not match it.
		{Name: "op.delete", ID: 9, Op: 9, TID: 70, Start: 500, End: 540},
		{Name: "engine.Delete", ID: 10, TID: 70, Start: 505, End: 535},
	}
	st := analyze(spans)
	parents := map[int64]int64{}
	for _, s := range st.spans {
		parents[s.ID] = s.Parent
	}
	if len(st.spans) != 8 || parents[7] != 5 || parents[10] != 9 {
		t.Fatalf("kept %+v, want 8 spans with engine span 7 under http span 5 and 10 under op span 9", st.spans)
	}
	want := map[string][]int64{"op": {20, 20, 10}, "http": {20, 50}, "engine": {60, 30, 30}}
	for layer, w := range want {
		got := st.self[layer]
		if len(got) != len(w) {
			t.Errorf("%s self times %v, want %v", layer, got, w)
			continue
		}
		for i := range w {
			if int64(got[i]) != w[i] {
				t.Errorf("%s self times %v, want %v", layer, got, w)
				break
			}
		}
	}
}
