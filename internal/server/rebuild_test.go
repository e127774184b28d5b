package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sigtable"
)

// diskTestServer builds an index in disk mode with a buffer pool, the
// configuration where /v1/rebuild and the pool metrics have teeth.
func diskTestServer(t *testing.T, opt Options) (*httptest.Server, *sigtable.Index) {
	t.Helper()
	g, err := sigtable.NewGenerator(sigtable.GeneratorConfig{
		UniverseSize: 200, NumItemsets: 300, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := g.Dataset(2000)
	idx, err := sigtable.BuildIndex(data, sigtable.IndexOptions{
		SignatureCardinality: 10,
		PageSize:             512,
		BufferPoolPages:      64,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(idx, data, opt).Handler())
	t.Cleanup(ts.Close)
	return ts, idx
}

func TestBatchInsert(t *testing.T) {
	ts, idx := diskTestServer(t, Options{})
	before := idx.Live()

	var ins InsertResponse
	batch := [][]sigtable.Item{{1, 2, 3}, {4, 5}, {6, 7, 8, 9}}
	if code := post(t, ts.URL+"/v1/insert", InsertRequest{Batch: batch}, &ins); code != http.StatusOK {
		t.Fatalf("batch insert status %d", code)
	}
	if len(ins.TIDs) != 3 {
		t.Fatalf("got %d tids, want 3", len(ins.TIDs))
	}
	for i := 1; i < len(ins.TIDs); i++ {
		if ins.TIDs[i] != ins.TIDs[i-1]+1 {
			t.Fatalf("non-consecutive tids: %v", ins.TIDs)
		}
	}
	if got := idx.Live(); got != before+3 {
		t.Fatalf("live = %d, want %d", got, before+3)
	}

	// items and batch together are rejected.
	var e ErrorResponse
	code := post(t, ts.URL+"/v1/insert", InsertRequest{Items: []sigtable.Item{1}, Batch: batch}, &e)
	if code != http.StatusBadRequest || e.Error.Code != CodeBadRequest {
		t.Fatalf("status %d code %q", code, e.Error.Code)
	}
}

func TestRebuildEndpoint(t *testing.T) {
	ts, idx := diskTestServer(t, Options{})

	// Mutate so the rebuild has something to compact.
	var ins InsertResponse
	post(t, ts.URL+"/v1/insert", InsertRequest{Batch: [][]sigtable.Item{{1, 2}, {3, 4}}}, &ins)
	var del DeleteResponse
	if code := post(t, ts.URL+"/v1/delete", DeleteRequest{TID: 0}, &del); code != http.StatusOK {
		t.Fatalf("delete status %d", code)
	}
	wantLive := idx.Live()

	var reb RebuildResponse
	if code := post(t, ts.URL+"/v1/rebuild", RebuildRequest{}, &reb); code != http.StatusOK {
		t.Fatalf("rebuild status %d", code)
	}
	if reb.Live != wantLive {
		t.Fatalf("rebuilt live = %d, want %d", reb.Live, wantLive)
	}
	if err := idx.Validate(); err != nil {
		t.Fatalf("index invalid after rebuild: %v", err)
	}
	// TIDs were renumbered densely: Len == Live, no tombstones left.
	if idx.Len() != wantLive {
		t.Fatalf("len = %d after compaction, want %d", idx.Len(), wantLive)
	}

	// The build has no worker count to set: the field is unknown.
	var e ErrorResponse
	if code := post(t, ts.URL+"/v1/rebuild", map[string]int{"parallelism": 2}, &e); code != http.StatusBadRequest || e.Error.Code != CodeBadRequest {
		t.Fatalf("status %d code %q", code, e.Error.Code)
	}

	// The server still answers queries against the swapped table.
	var q QueryResponse
	if code := post(t, ts.URL+"/v1/query", QueryRequest{Items: []sigtable.Item{1, 2}, F: "jaccard", K: 1}, &q); code != http.StatusOK {
		t.Fatalf("post-rebuild query status %d", code)
	}
	if len(q.Neighbors) == 0 || q.Neighbors[0].Value != 1 {
		t.Fatalf("inserted basket lost across rebuild: %+v", q.Neighbors)
	}
}

func TestStatsBuildAndPoolSections(t *testing.T) {
	ts, _ := diskTestServer(t, Options{})

	// Warm the pool with a few queries.
	for i := 0; i < 5; i++ {
		var q QueryResponse
		post(t, ts.URL+"/v1/query", QueryRequest{Items: []sigtable.Item{1, 2, 3}, F: "cosine", K: 3}, &q)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Build.TotalMS <= 0 {
		t.Fatalf("build.totalMs = %v", stats.Build.TotalMS)
	}
	if stats.Pool == nil {
		t.Fatal("no pool section for a pooled disk-mode index")
	}
	if stats.Pool.Shards < 1 || stats.Pool.Capacity != 64 {
		t.Fatalf("pool = %+v", stats.Pool)
	}
	if stats.Pool.Hits+stats.Pool.Misses == 0 {
		t.Fatal("no pool traffic recorded after queries")
	}
}

func TestPoolMetricsExposition(t *testing.T) {
	ts, _ := diskTestServer(t, Options{})
	var q QueryResponse
	post(t, ts.URL+"/v1/query", QueryRequest{Items: []sigtable.Item{1, 2, 3}, F: "cosine", K: 3}, &q)
	var reb RebuildResponse
	if code := post(t, ts.URL+"/v1/rebuild", RebuildRequest{}, &reb); code != http.StatusOK {
		t.Fatalf("rebuild status %d", code)
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"sigtable_pool_hits_total",
		"sigtable_pool_misses_total",
		"sigtable_pool_contention_total",
		"sigtable_pool_shards",
		"sigtable_pool_resident_pages",
		`sigtable_pool_shard_hits_total{shard="0"}`,
		`sigtable_pool_shard_resident_pages{shard="0"}`,
		"sigtable_rebuilds_total 1",
		"sigtable_rebuild_duration_seconds_count 1",
		"sigtable_build_write_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}
