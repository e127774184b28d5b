package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"time"

	"sigtable"
	"sigtable/internal/pager"
)

type metricDef struct{ name, unit string }

type reading struct {
	name  string
	value float64
	unit  string
}

// endToEnd are the metrics a user of the index sees; BENCHMARK.json
// declares each with its regression bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"index_mib", "MiB"},
	{"knn_p50_ms", "ms"},
	{"knn_p90_ms", "ms"},
	{"early_p50_ms", "ms"},
	{"early_exact_frac", "frac"},
	{"range_p50_ms", "ms"},
	{"batch_p50_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
}

// perLayer are the traced run's readings, named layer.metric. Layers a
// workload does not run through read 0.
var perLayer = []metricDef{
	{"build.mining_s", "s"},
	{"build.partition_s", "s"},
	{"build.coords_s", "s"},
	{"build.group_s", "s"},
	{"build.write_s", "s"},
	{"core.scan_frac", "frac"},
	{"core.entries_visited_per_knn", "count"},
	{"core.entries_pruned_per_knn", "count"},
	{"core.early_certified_frac", "frac"},
	{"core.rank_share", "frac"},
	{"core.rank_us_per_search", "us"},
	{"core.speculated_frac", "frac"},
	{"core.workers_per_knn", "count"},
	{"core.allocs_per_op", "count"},
	{"core.bytes_per_op", "B"},
	{"core.snapshot_versions", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"pager.reads_per_search", "count"},
	{"pager.misses_per_search", "count"},
	{"pager.backend_reads_per_search", "count"},
	{"pager.bytes_read_per_search", "B"},
	{"pager.run_pages_per_coalesced_read", "count"},
	{"pager.pool_hit_frac", "frac"},
	{"pager.prefetch_issued_per_search", "count"},
	{"pager.prefetch_useful_frac", "frac"},
	{"pager.file_pages", "count"},
	{"pager.logical_per_stored_byte", "ratio"},
	{"shard.scans_per_search", "count"},
	{"shard.live_imbalance", "ratio"},
	{"server.self_ms_p50", "ms"},
	{"server.self_share", "frac"},
	{"client.late_ms_p99", "ms"},
	{"client.slo_miss_frac", "frac"},
	{"invindex.knn_ms_p50", "ms"},
	{"invindex.candidates_per_knn", "count"},
	{"seqscan.knn_ms_p50", "ms"},
	{"trace.overhead_frac", "frac"},
	{"trace.op_self_ms_p50", "ms"},
	{"trace.engine_ms_p50", "ms"},
	{"trace.spans", "count"},
}

// report collects one run's outcome and metrics.
type report struct {
	workload  string
	cfg       config
	defs      []metricDef
	values    map[string]float64
	extra     []reading // printed with the metrics but not in the result: sample counts, totals
	attempted int
	failed    int
	firstErr  error
}

func newReport(workload string, cfg config) *report {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	return &report{workload: workload, cfg: cfg, defs: defs, values: map[string]float64{}}
}

func (r *report) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// check counts one op as attempted and verifies it, reporting whether
// the answer reached the optimum.
func (r *report) check(o *oracle, rec record, v view) bool {
	r.attempted++
	exact, err := o.check(rec, v)
	if err != nil {
		r.fail(fmt.Errorf("%s on target %d: %w", kindNames[rec.kind], rec.target, err))
	}
	return exact && err == nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile interpolates linearly between the closest ranks; 0 when
// there are no samples.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i] + time.Duration((pos-float64(i))*float64(s[i+1]-s[i]))
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// latencies returns the latencies of the records whose kind is in kinds.
func latencies(recs []record, kinds ...opKind) []time.Duration {
	var ds []time.Duration
	for _, rec := range recs {
		if slices.Contains(kinds, rec.kind) {
			ds = append(ds, rec.latency())
		}
	}
	return ds
}

// phase is a measured stretch of a run: its ops and how long it lasted.
type phase struct {
	recs []record
	d    time.Duration
}

func (r *report) endToEnd(setupSecs, heapMiB []float64, measured, capacity phase, earlyExact float64) {
	lat := map[string][]time.Duration{
		"knn":   latencies(measured.recs, opKNN),
		"early": latencies(measured.recs, opEarly),
		"range": latencies(measured.recs, opRange),
		"batch": latencies(capacity.recs, opBatch),
		"write": latencies(measured.recs, opInsert, opDelete),
	}
	for _, name := range []string{"knn", "early", "range", "batch", "write"} {
		r.extra = append(r.extra, reading{"samples." + name, float64(len(lat[name])), "count"})
	}
	r.extra = append(r.extra, reading{"write_p95_ms", ms(quantile(lat["write"], 0.95)), "ms"})
	r.values["setup_s"] = median(setupSecs)
	r.values["index_mib"] = median(heapMiB)
	r.values["knn_p50_ms"] = ms(quantile(lat["knn"], 0.5))
	r.values["knn_p90_ms"] = ms(quantile(lat["knn"], 0.90))
	r.values["early_p50_ms"] = ms(quantile(lat["early"], 0.5))
	r.values["early_exact_frac"] = earlyExact
	r.values["range_p50_ms"] = ms(quantile(lat["range"], 0.5))
	r.values["batch_p50_ms"] = ms(quantile(lat["batch"], 0.5))
	r.values["write_p50_ms"] = ms(quantile(lat["write"], 0.5))
	r.values["ops_per_s"] = float64(len(capacity.recs)) / capacity.d.Seconds()
}

// counters are the engine's and the runtime's cumulative readings,
// taken at the edges of the measured window.
type counters struct {
	mem        runtime.MemStats
	dir        sigtable.DirectoryStats
	version    uint64
	search     searchCounts
	store      pager.Stats
	poolHits   int64
	poolMisses int64
	prefetch   pager.PrefetchStats
	shardScans int64
}

func readCounters(eng sigtable.Engine, st *searchStats) *counters {
	c := &counters{dir: eng.DirectoryStats(), version: eng.SnapshotVersion()}
	runtime.ReadMemStats(&c.mem)
	if st != nil {
		c.search = st.snapshot()
	}
	switch e := eng.(type) {
	case *sigtable.Index:
		if s := e.Table().Store(); s != nil {
			c.store = s.Stats()
			if p := s.Pool(); p != nil {
				c.poolHits, c.poolMisses = p.Stats()
			}
			if pf := s.Prefetcher(); pf != nil {
				c.prefetch = pf.Stats()
			}
		}
	case *sigtable.ShardedIndex:
		for _, s := range e.ShardStats() {
			c.shardScans += s.Scans
		}
	}
	return c
}

type layerInputs struct {
	eng           sigtable.Engine
	before, after *counters
	ops           int      // ops in the measured window
	measured      []record // the ops latencies are taken from
	serve         bool
	self          selfTimes
	comp          comparison
}

func (r *report) perLayer(in layerInputs) {
	v := r.values
	b, a := in.before, in.after

	bs := in.eng.BuildStats()
	v["build.mining_s"] = bs.Mining.Seconds()
	v["build.partition_s"] = bs.Partition.Seconds()
	v["build.coords_s"] = bs.Coords.Seconds()
	v["build.group_s"] = bs.Group.Seconds()
	v["build.write_s"] = bs.Write.Seconds()

	s := a.search.minus(b.search)
	knn, searches, ops := float64(s.knn), float64(s.searches), float64(in.ops)
	v["core.scan_frac"] = ratio(float64(s.scanned), knn*float64(in.eng.Live()))
	v["core.entries_visited_per_knn"] = ratio(float64(s.visited), knn)
	v["core.entries_pruned_per_knn"] = ratio(float64(s.pruned), knn)
	v["core.early_certified_frac"] = ratio(float64(s.certified), float64(s.early))
	rankSecs := a.dir.RankSeconds - b.dir.RankSeconds
	v["core.rank_share"] = ratio(rankSecs, s.busy.Seconds())
	v["core.rank_us_per_search"] = ratio(rankSecs*1e6, float64(s.ranked))
	v["core.speculated_frac"] = ratio(float64(s.speculated), float64(s.visited+s.speculated))
	v["core.workers_per_knn"] = ratio(float64(s.workers), knn)
	v["core.allocs_per_op"] = ratio(float64(a.mem.Mallocs-b.mem.Mallocs), ops)
	v["core.bytes_per_op"] = ratio(float64(a.mem.TotalAlloc-b.mem.TotalAlloc), ops)
	v["core.snapshot_versions"] = float64(a.version - b.version)
	v["runtime.gc_cycles"] = float64(a.mem.NumGC - b.mem.NumGC)
	v["runtime.gc_pause_ms"] = float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs) / 1e6

	v["pager.reads_per_search"] = ratio(float64(a.store.Reads-b.store.Reads), searches)
	v["pager.misses_per_search"] = ratio(float64(a.store.Misses-b.store.Misses), searches)
	v["pager.backend_reads_per_search"] = ratio(float64(a.store.BackendReads-b.store.BackendReads), searches)
	v["pager.bytes_read_per_search"] = ratio(float64(a.store.BytesRead-b.store.BytesRead), searches)
	v["pager.run_pages_per_coalesced_read"] = ratio(float64(a.store.ReadRunPages-b.store.ReadRunPages), float64(a.store.CoalescedReads-b.store.CoalescedReads))
	hits := float64(a.poolHits - b.poolHits)
	v["pager.pool_hit_frac"] = ratio(hits, hits+float64(a.poolMisses-b.poolMisses))
	issued := float64(a.prefetch.Issued - b.prefetch.Issued)
	v["pager.prefetch_issued_per_search"] = ratio(issued, searches)
	v["pager.prefetch_useful_frac"] = ratio(float64(a.prefetch.Hits-b.prefetch.Hits), issued)
	v["pager.logical_per_stored_byte"] = ratio(float64(a.store.BytesLogical), float64(a.store.BytesWritten))
	if ix, ok := in.eng.(*sigtable.Index); ok && ix.Table().Store() != nil {
		v["pager.file_pages"] = float64(ix.Table().Store().NumPages())
	}

	v["shard.scans_per_search"] = ratio(float64(a.shardScans-b.shardScans), searches)
	if sx, ok := in.eng.(*sigtable.ShardedIndex); ok {
		most, total := 0, 0
		for _, st := range sx.ShardStats() {
			most, total = max(most, st.Live), total+st.Live
		}
		v["shard.live_imbalance"] = ratio(float64(most*sx.Shards()), float64(total))
	}

	httpSelf, httpTotal := in.self.self["http"], in.self.total["http"]
	v["server.self_ms_p50"] = ms(quantile(httpSelf, 0.5))
	v["server.self_share"] = ratio(float64(sum(httpSelf)), float64(sum(httpTotal)))
	if in.serve {
		var late []time.Duration
		missed := 0
		for _, rec := range in.measured {
			if rec.waited {
				late = append(late, rec.late)
			}
			if rec.err != nil || rec.latency() > sloLimit {
				missed++
			}
		}
		v["client.late_ms_p99"] = ms(quantile(late, 0.99))
		v["client.slo_miss_frac"] = ratio(float64(missed), float64(len(in.measured)))
	}

	v["invindex.knn_ms_p50"] = ms(quantile(in.comp.invindex, 0.5))
	v["invindex.candidates_per_knn"] = in.comp.candidates
	v["seqscan.knn_ms_p50"] = ms(quantile(in.comp.seqscan, 0.5))

	var traced, untraced []record
	for _, rec := range in.measured {
		if rec.kind == opKNN && rec.traced {
			traced = append(traced, rec)
		} else if rec.kind == opKNN {
			untraced = append(untraced, rec)
		}
	}
	v["trace.overhead_frac"] = ratio(ms(quantile(latencies(traced, opKNN), 0.5)), ms(quantile(latencies(untraced, opKNN), 0.5))) - 1
	v["trace.op_self_ms_p50"] = ms(quantile(in.self.self["op"], 0.5))
	v["trace.engine_ms_p50"] = ms(quantile(in.self.total["engine"], 0.5))
	v["trace.spans"] = float64(len(in.self.spans))
	for _, layer := range []string{"op", "http", "engine"} {
		r.extra = append(r.extra, reading{"trace.self_ms_total." + layer, ms(sum(in.self.self[layer])), "ms"})
	}
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// comparison is the traced run's timing of the paper's comparators.
type comparison struct {
	invindex, seqscan []time.Duration
	candidates        float64 // mean inverted-index candidates per query
}

// comparatorTargets is how many targets the comparators answer, under
// cosine and the match/hamming ratio only: the inverted index is not
// exact for pure distance functions such as hamming.
const comparatorTargets = 32

// compare times the inverted index and the sequential scan on the base
// data and checks their answers against the oracle.
func compare(data *sigtable.Dataset, o *oracle) (comparison, error) {
	var c comparison
	inv := sigtable.BuildInvertedIndex(data, sigtable.InvertedIndexOptions{})
	for i := 0; i < comparatorTargets; i++ {
		for _, fn := range []int{0, 2} {
			t, f, want := o.targets[i], funcs[fn].f, o.top[i][fn][0]
			start := time.Now()
			got, st := inv.KNearest(t, f, 1)
			c.invindex = append(c.invindex, time.Since(start))
			c.candidates += float64(st.Candidates)
			if len(got) != 1 || got[0].Value != want {
				return c, fmt.Errorf("invindex %s on target %d: got %v, want value %v", funcs[fn].name, i, got, want)
			}
			start = time.Now()
			got = sigtable.ScanKNearest(data, t, f, 1)
			c.seqscan = append(c.seqscan, time.Since(start))
			if len(got) != 1 || got[0].Value != want {
				return c, fmt.Errorf("seqscan %s on target %d: got %v, want value %v", funcs[fn].name, i, got, want)
			}
		}
	}
	c.candidates /= float64(len(c.invindex))
	return c, nil
}

// write prints a header, one "workload metric value unit" line per
// metric and sample count, and the result as the last line, in JSON.
func (r *report) write(w io.Writer) error {
	fmt.Fprintf(w, "# bench workload=%s seed=%d seconds=%g trace=%t nproc=%d GOMAXPROCS=%d %s %s/%s\n",
		r.workload, r.cfg.seed, r.cfg.seconds, r.cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), runtime.GOOS, runtime.GOARCH)
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]metric{}}
	lines := r.extra
	for _, d := range r.defs {
		v := r.values[d.name]
		out.Metrics[d.name] = metric{v, d.unit}
		lines = append(lines, reading{d.name, v, d.unit})
	}
	for _, l := range lines {
		fmt.Fprintf(w, "%s %s %s %s\n", r.workload, l.name, strconv.FormatFloat(l.value, 'g', -1, 64), l.unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
