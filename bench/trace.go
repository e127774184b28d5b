package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sigtable"
)

// span is one timed call at a layer boundary. Spans of one op share Op,
// the ID of the op's root span; Parent 0 marks a root (or, for engine
// calls that carry no context, a parent still to be resolved). Write op
// spans and write engine spans carry the TID inserted or deleted, which
// is how the two are matched.
type span struct {
	Name   string       `json:"name"`
	ID     int64        `json:"id"`
	Parent int64        `json:"parent"`
	Op     int64        `json:"op"`
	TID    sigtable.TID `json:"tid,omitempty"`
	Start  int64        `json:"start_ns"`
	End    int64        `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64   { return int64(time.Since(r.t0)) }
func (r *recorder) newID() int64 { return r.ids.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// spanRef names the span a call runs under; it rides in a context value
// in process and in the spanHeader header over HTTP.
type spanRef struct{ id, op int64 }

type spanKey struct{}

const spanHeader = "X-Bench-Span"

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, ref)
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	return ref, ok
}

func (r spanRef) String() string { return fmt.Sprintf("%d/%d", r.op, r.id) }

func parseSpanRef(s string) (spanRef, bool) {
	var ref spanRef
	_, err := fmt.Sscanf(s, "%d/%d", &ref.op, &ref.id)
	return ref, err == nil && ref.id > 0
}

// traceHTTP wraps the server's handler with an "http" span for every
// request that carries a span header, parented to the client's op span.
func traceHTTP(rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ref, ok := parseSpanRef(r.Header.Get(spanHeader))
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		id, start := rec.newID(), rec.now()
		next.ServeHTTP(w, r.WithContext(withSpan(r.Context(), spanRef{id: id, op: ref.op})))
		rec.add(span{Name: "http", ID: id, Parent: ref.id, Op: ref.op, Start: start, End: rec.now()})
	})
}

// searchCounts are cumulative per-search results as the traced engine
// saw them.
type searchCounts struct {
	knn        int64 // exact k-NN Query calls, which the next five sum over
	scanned    int64
	visited    int64
	pruned     int64
	speculated int64
	workers    int64
	early      int64 // early-terminated Query calls
	certified  int64 // ... whose result was certified exact
	searches   int64 // Query calls, range queries and batch slots
	ranked     int64 // searches that rank entries: all but range queries
	busy       time.Duration
}

func (c searchCounts) minus(o searchCounts) searchCounts {
	return searchCounts{
		c.knn - o.knn, c.scanned - o.scanned, c.visited - o.visited, c.pruned - o.pruned,
		c.speculated - o.speculated, c.workers - o.workers, c.early - o.early,
		c.certified - o.certified, c.searches - o.searches, c.ranked - o.ranked, c.busy - o.busy,
	}
}

type searchStats struct {
	mu sync.Mutex
	c  searchCounts
}

func (s *searchStats) snapshot() searchCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c
}

// add counts one engine search call of the given width (batch slots).
func (s *searchStats) add(busy time.Duration, width int, ranked bool, f func(c *searchCounts)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.c.busy += busy
	s.c.searches += int64(width)
	if ranked {
		s.c.ranked += int64(width)
	}
	if f != nil {
		f(&s.c)
	}
}

// tracedEngine is the engine decorator of the traced run: it records an
// engine.<Method> span for each call made under a traced op and counts
// what every search result reports. Insert and Delete take no context,
// so their spans carry the TID instead and are parented later, by
// matching it to a traced write op's.
type tracedEngine struct {
	sigtable.Engine
	rec *recorder
	st  *searchStats
}

// record adds the span of a call that started at start (recorder time),
// when it ran under a traced op or carried no context (ref is then
// zero), and returns the call's duration.
func (e *tracedEngine) record(name string, ref spanRef, traced bool, start int64) time.Duration {
	end := e.rec.now()
	if traced {
		e.rec.add(span{Name: name, ID: e.rec.newID(), Parent: ref.id, Op: ref.op, Start: start, End: end})
	}
	return time.Duration(end - start)
}

// recordWrite adds the span of a context-less write call on tid.
func (e *tracedEngine) recordWrite(name string, tid sigtable.TID, start int64) {
	e.rec.add(span{Name: name, ID: e.rec.newID(), TID: tid, Start: start, End: e.rec.now()})
}

func (e *tracedEngine) Query(ctx context.Context, t sigtable.Transaction, f sigtable.SimilarityFunc, opt sigtable.SearchOptions) (sigtable.Result, error) {
	ref, traced := spanFrom(ctx)
	start := e.rec.now()
	res, err := e.Engine.Query(ctx, t, f, opt)
	e.st.add(e.record("engine.Query", ref, traced, start), 1, true, func(c *searchCounts) {
		if opt.MaxScanFraction == 0 {
			c.knn++
			c.scanned += int64(res.Scanned)
			c.visited += int64(res.EntriesScanned)
			c.pruned += int64(res.EntriesPruned)
			c.speculated += int64(res.EntriesSpeculated)
			c.workers += int64(res.Workers)
		} else {
			c.early++
			if res.Certified {
				c.certified++
			}
		}
	})
	return res, err
}

func (e *tracedEngine) RangeQuery(ctx context.Context, t sigtable.Transaction, cs []sigtable.RangeConstraint, opt sigtable.SearchOptions) (sigtable.RangeResult, error) {
	ref, traced := spanFrom(ctx)
	start := e.rec.now()
	res, err := e.Engine.RangeQuery(ctx, t, cs, opt)
	e.st.add(e.record("engine.RangeQuery", ref, traced, start), 1, false, nil)
	return res, err
}

func (e *tracedEngine) BatchQuery(ctx context.Context, ts []sigtable.Transaction, f sigtable.SimilarityFunc, opt sigtable.SearchOptions, legacy ...sigtable.BatchOptions) ([]sigtable.Result, error) {
	ref, traced := spanFrom(ctx)
	start := e.rec.now()
	res, err := e.Engine.BatchQuery(ctx, ts, f, opt, legacy...)
	e.st.add(e.record("engine.BatchQuery", ref, traced, start), len(ts), true, nil)
	return res, err
}

func (e *tracedEngine) Insert(t sigtable.Transaction) sigtable.TID {
	start := e.rec.now()
	id := e.Engine.Insert(t)
	e.recordWrite("engine.Insert", id, start)
	return id
}

func (e *tracedEngine) Delete(id sigtable.TID) bool {
	start := e.rec.now()
	ok := e.Engine.Delete(id)
	e.recordWrite("engine.Delete", id, start)
	return ok
}

// selfTimes is the traced run's per-layer breakdown: for each layer,
// its spans' durations and the same minus the time their children
// cover.
type selfTimes struct {
	self  map[string][]time.Duration
	total map[string][]time.Duration
	spans []span // with every kept write span's parent resolved
}

// writeCalls names the engine call each write op makes.
var writeCalls = map[string]string{"op.insert": "engine.Insert", "op.delete": "engine.Delete"}

type writeKey struct {
	call string
	tid  sigtable.TID
}

// analyze parents each context-less engine span (a write) to the
// innermost span of the traced write op on the same TID, dropping those
// of untraced ops, then computes every span's self time.
func analyze(spans []span) selfTimes {
	ops := make(map[writeKey]int64) // write call → ID of its traced op
	for _, s := range spans {
		if call, ok := writeCalls[s.Name]; ok && s.TID != 0 {
			ops[writeKey{call, s.TID}] = s.ID
		}
	}
	inner := make(map[int64]span) // op ID → its innermost non-engine span
	for _, s := range spans {
		if isEngine(s) {
			continue
		}
		if p, ok := inner[s.Op]; !ok || s.Start > p.Start {
			inner[s.Op] = s
		}
	}
	var kept []span
	for _, s := range spans {
		if isEngine(s) && s.Parent == 0 {
			op, ok := ops[writeKey{s.Name, s.TID}]
			if !ok {
				continue
			}
			s.Parent, s.Op = inner[op].ID, op
		}
		kept = append(kept, s)
	}
	children := make(map[int64]time.Duration)
	for _, s := range kept {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	st := selfTimes{self: map[string][]time.Duration{}, total: map[string][]time.Duration{}, spans: kept}
	for _, s := range kept {
		name := layerOf(s)
		st.total[name] = append(st.total[name], s.dur())
		st.self[name] = append(st.self[name], s.dur()-children[s.ID])
	}
	return st
}

func isEngine(s span) bool { return strings.HasPrefix(s.Name, "engine.") }

// layerOf names a span's layer: "op" for the client's root spans,
// "http" for the server, "engine" for calls into the index.
func layerOf(s span) string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// writeSpans writes the spans as JSON lines, in start order.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
