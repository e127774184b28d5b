package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sigtable"
)

// workload is one input set the benchmark runs; README.md says why each
// exists and which layer metrics it should move.
type workload struct {
	name   string
	txns   int  // base dataset size
	disk   bool // file-backed v2 pages behind a buffer pool smaller than the file
	shards int  // > 1 selects the sharded engine
	serve  bool // drive the HTTP server over loopback instead of the engine
}

var workloads = []workload{
	{name: "nn-mem", txns: 50_000},
	{name: "nn-disk", txns: 200_000, disk: true},
	{name: "serve-mixed", txns: 50_000, serve: true},
	{name: "sharded-mem", txns: 50_000, shards: 2},
}

const (
	dataSeed    = 1999 // generator seed shared by every run (see run)
	targetPool  = 4096 // query targets drawn from the data distribution
	insertPool  = 7680 // transactions the inserts cycle through
	batchSize   = 16
	earlyFrac   = 0.02 // MaxScanFraction of the early-terminated k-NN
	setupBuilds = 16   // builds before the window, and again after it in an untraced run
	finalChecks = 64   // exact k-NN checks against the live set after the run
	pageSize    = 4096
	poolPages   = 192 // ~25% of nn-disk's page file
	// serveRate is serve-mixed's open-loop arrival rate, about half the
	// closed-loop capacity of servedMix on two connections at the seed
	// commit (~1,070 req/s).
	serveRate = 500.0
	// sloLimit is the latency limit client.slo_miss_frac counts against.
	sloLimit = 20 * time.Millisecond
	// openShare is the part of serve-mixed's window spent in the open
	// loop; the rest measures closed-loop capacity.
	openShare = 0.5
	// maxWarmUp caps the warm-up, which runs the same mix for a fifth of
	// the window before measuring.
	maxWarmUp = 2 * time.Second
)

type opKind int

const (
	opKNN opKind = iota
	opEarly
	opRange
	opBatch
	opInsert
	opDelete
	numKinds
)

var kindNames = [numKinds]string{"knn", "early", "range", "batch", "insert", "delete"}

// fullMix is the op mix of every closed loop, in percent of ops.
var fullMix = [numKinds]int{70, 10, 5, 5, 5, 5}

// servedMix is serve-mixed's open-loop traffic: fullMix without batches.
// A batch holds both CPUs for ~30 ms, so with batches in the open loop
// every tail measured how many of them a request had queued behind.
var servedMix = [numKinds]int{75, 10, 5, 0, 5, 5}

type op struct {
	kind   opKind
	target int // index into the target pool; a batch takes batchSize from here on
	fn     int // index into funcs
	k      int // neighbors asked for (per batch slot)
}

// batchTarget is the target pool index of slot i of a batch starting at
// first.
func batchTarget(first, i int) int { return (first + i) % targetPool }

// opGen draws ops from a mix; k-NN functions cycle.
type opGen struct {
	rng *rand.Rand
	mix *[numKinds]int
	n   int
}

func newOpGen(seed int64, mix *[numKinds]int) *opGen {
	return &opGen{rng: rand.New(rand.NewSource(seed)), mix: mix}
}

func (g *opGen) next() op {
	r, k := g.rng.Intn(100), opKind(0)
	for r >= g.mix[k] {
		r -= g.mix[k]
		k++
	}
	g.n++
	o := op{kind: k, target: g.rng.Intn(targetPool), fn: g.n % len(funcs), k: 1}
	if k == opBatch {
		o.k = topK
	}
	return o
}

// record is one executed op and its answer, checked after the run.
type record struct {
	op
	tid        sigtable.TID // insert: assigned TID; delete: the TID removed
	nbrs       [][]nbr      // knn/early: one list; batch: one per target
	tids       []sigtable.TID
	err        error
	start, end time.Time // in the open loop, start is when the op was due
	late       time.Duration
	waited     bool // open loop: the sender slept until the op was due
	traced     bool
}

func (r record) latency() time.Duration { return r.end.Sub(r.start) }

// session executes ops against one client and tracks the writes: every
// inserted transaction, and which inserts are still live. Deletes only
// remove the benchmark's own inserts, so the base data stays live and
// the oracle's answers over it stay valid lower bounds.
type session struct {
	cl      client
	targets []sigtable.Transaction
	inserts []sigtable.Transaction
	rec     *recorder // nil unless traced

	mu      sync.Mutex
	nextIns int
	known   map[sigtable.TID]sigtable.Transaction // every completed insert
	live    []sigtable.TID                        // completed inserts not yet chosen for deletion
}

func (s *session) batchTargets(first int) []sigtable.Transaction {
	ts := make([]sigtable.Transaction, batchSize)
	for i := range ts {
		ts[i] = s.targets[batchTarget(first, i)]
	}
	return ts
}

func (s *session) do(ctx context.Context, o op, traced bool) record {
	r := record{op: o, traced: traced}
	var ins sigtable.Transaction
	s.mu.Lock()
	if r.kind == opDelete {
		if len(s.live) == 0 {
			r.kind = opInsert
		} else {
			r.tid, s.live = s.live[0], s.live[1:]
		}
	}
	if r.kind == opInsert {
		ins = s.inserts[s.nextIns%len(s.inserts)]
		s.nextIns++
	}
	s.mu.Unlock()

	var ref spanRef
	var spanStart int64
	if traced {
		ref.id = s.rec.newID()
		ref.op = ref.id
		ctx = withSpan(ctx, ref)
		spanStart = s.rec.now()
	}
	r.start = time.Now()
	t := s.targets[r.target]
	switch r.kind {
	case opKNN, opEarly:
		frac := 0.0
		if r.kind == opEarly {
			frac = earlyFrac
		}
		var ns []nbr
		ns, r.err = s.cl.query(ctx, t, r.fn, r.k, frac)
		r.nbrs = [][]nbr{ns}
	case opRange:
		r.tids, r.err = s.cl.rangeQuery(ctx, t)
	case opBatch:
		r.nbrs, r.err = s.cl.batch(ctx, s.batchTargets(r.target), r.fn, r.k)
	case opInsert:
		r.tid, r.err = s.cl.insert(ctx, ins)
	case opDelete:
		r.err = s.cl.remove(ctx, r.tid)
	}
	r.end = time.Now()
	if traced {
		s.rec.add(span{Name: "op." + kindNames[r.kind], ID: ref.id, Op: ref.id, TID: r.tid, Start: spanStart, End: s.rec.now()})
	}
	if r.kind == opInsert && r.err == nil {
		s.mu.Lock()
		s.known[r.tid] = ins
		s.live = append(s.live, r.tid)
		s.mu.Unlock()
	}
	return r
}

// closedLoop runs clients that each send their next fullMix op as soon
// as the previous one returns, until d has passed. In a traced run every other
// op is traced.
func (s *session) closedLoop(ctx context.Context, clients int, d time.Duration, seed int64) []record {
	deadline := time.Now().Add(d)
	out := make([][]record, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g := newOpGen(seed+int64(c), &fullMix)
			for i := 0; time.Now().Before(deadline); i++ {
				out[c] = append(out[c], s.do(ctx, g.next(), s.rec != nil && i%2 == 0))
			}
		}(c)
	}
	wg.Wait()
	return slices.Concat(out...)
}

// openLoop sends servedMix ops on a seeded Poisson schedule at rate per
// second for d over at most senders connections, timing each op from when
// it was due, so a stall also counts against the ops queued behind it.
func (s *session) openLoop(ctx context.Context, senders int, d time.Duration, rate float64, seed int64) []record {
	rng, g := rand.New(rand.NewSource(seed)), newOpGen(seed+1, &servedMix)
	var due []time.Duration
	var ops []op
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= d {
			break
		}
		due, ops = append(due, at), append(ops, g.next())
	}
	start := time.Now()
	var next atomic.Int64
	out := make([][]record, senders)
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				at := start.Add(due[i])
				wait := time.Until(at)
				if wait > 0 {
					time.Sleep(wait)
				}
				r := s.do(ctx, ops[i], s.rec != nil && i%2 == 0)
				if wait > 0 {
					r.late, r.waited = r.start.Sub(at), true
				}
				r.start = at
				out[w] = append(out[w], r)
			}
		}(w)
	}
	wg.Wait()
	return slices.Concat(out...)
}

// finalCheck validates the engine and asks finalChecks exact k-NN
// queries once nothing else runs, when the live set is known exactly.
func (s *session) finalCheck(ctx context.Context, eng sigtable.Engine) ([]record, error) {
	if err := eng.Validate(); err != nil {
		return nil, fmt.Errorf("validate: %w", err)
	}
	var out []record
	for i := 0; i < finalChecks; i++ {
		out = append(out, s.do(ctx, op{kind: opKNN, target: i * (targetPool / finalChecks), fn: i % len(funcs), k: topK}, false))
	}
	return out, nil
}

// liveView is the exact live set after the run: the base data plus the
// inserts not deleted.
func (s *session) liveView() view {
	v := view{known: make(map[sigtable.TID]sigtable.Transaction, len(s.live)), exact: true}
	for _, id := range s.live {
		v.known[id] = s.known[id]
	}
	return v
}

// check verifies one record against the oracle; exact reports an
// early-terminated answer that reached the optimum.
func (o *oracle) check(r record, v view) (exact bool, err error) {
	if r.err != nil {
		return false, r.err
	}
	switch r.kind {
	case opKNN, opEarly:
		return o.checkNeighbors(r.target, r.fn, r.k, r.nbrs[0], v, r.kind == opEarly)
	case opRange:
		return false, o.checkRange(r.target, r.tids, v)
	case opBatch:
		if len(r.nbrs) != batchSize {
			return false, fmt.Errorf("batch: %d results for %d targets", len(r.nbrs), batchSize)
		}
		for i, ns := range r.nbrs {
			if _, err := o.checkNeighbors(batchTarget(r.target, i), r.fn, r.k, ns, v, false); err != nil {
				return false, fmt.Errorf("batch slot %d: %w", i, err)
			}
		}
	}
	return false, nil
}

// build constructs the workload's engine over d with library defaults
// apart from the storage settings the workload names.
func (w workload) build(d *sigtable.Dataset, dir string) (sigtable.Engine, error) {
	opt := sigtable.IndexOptions{}
	if w.disk {
		opt.PageSize = pageSize
		opt.PageFile = filepath.Join(dir, "pages.dat")
		opt.BufferPoolPages = poolPages
	}
	if w.shards > 1 {
		opt.Shards = w.shards
		return sigtable.NewSharded(d, opt)
	}
	return sigtable.BuildIndex(d, opt)
}

// gc collects twice: the first cycle moves sync.Pool contents to the
// victim cache, the second frees them.
func gc() {
	runtime.GC()
	runtime.GC()
}

// buildAll builds the engine n times, keeping the last, and returns
// each build's wall time and the heap it retained after GC.
func (w workload) buildAll(d *sigtable.Dataset, dir string, n int) (sigtable.Engine, []float64, []float64, error) {
	var eng sigtable.Engine
	var secs, mib []float64
	var ms runtime.MemStats
	for i := 0; i < n; i++ {
		if eng != nil {
			if err := eng.Close(); err != nil {
				return nil, nil, nil, err
			}
			eng = nil
		}
		gc()
		runtime.ReadMemStats(&ms)
		before := ms.HeapAlloc
		start := time.Now()
		e, err := w.build(d, dir)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("build: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
		eng = e
		gc()
		runtime.ReadMemStats(&ms)
		mib = append(mib, float64(int64(ms.HeapAlloc)-int64(before))/(1<<20))
	}
	return eng, secs, mib, nil
}
