// Command bench is the repository's benchmark. It builds a signature
// table over seeded synthetic market-basket data (the paper's T10.I6
// generator, N=1000 items), drives one workload through the public engine
// or the HTTP server for a fixed window, checks every answer against a
// brute-force oracle, and prints end-to-end metrics or, in a traced run,
// per-layer metrics. The last line of its output is one JSON object.
//
// From the repository root:
//
//	bash bench/run.sh --workload nn-mem --seed 1 --seconds 15 --trace 0
//
// See README.md for the workloads and what each metric should move.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"sigtable"
	"sigtable/internal/server"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	txns     int // base dataset size; 0 keeps the workload's own (the smoke test shrinks it)
	builds   int // builds on each side of the window; 0 means setupBuilds (the smoke test shrinks it)
	workdir  string
}

func main() {
	var cfg config
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the data, the targets and the op sequence")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs traced and prints per-layer metrics, 0 prints end-to-end metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for page files and span logs")
	flag.Parse()
	if (*trace != 0 && *trace != 1) || cfg.seconds <= 0 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = *trace == 1

	rep, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if rep.failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d of %d ops failed; first: %v\n", rep.failed, rep.attempted, rep.firstErr)
		os.Exit(1)
	}
}

// run executes one workload: set-up, warm-up, the measured window, the
// checks and the metrics.
func run(ctx context.Context, cfg config) (*report, error) {
	var w workload
	for _, c := range workloads {
		if c.name == cfg.workload {
			w = c
		}
	}
	if w.name == "" {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.txns > 0 {
		w.txns = cfg.txns
	}
	builds := setupBuilds
	if cfg.builds > 0 {
		builds = cfg.builds
	}
	rep := newReport(w.name, cfg)

	// The base data is the same in every run: the signature partition is
	// mined from it, and changing even 1% of the transactions changes the
	// partition and with it the entry count and the k-NN cost by up to a
	// third. The seed draws the targets and the inserted transactions
	// from a reservoir of further transactions of the same generator, and
	// drives the op sequence.
	g, err := sigtable.NewGenerator(sigtable.GeneratorConfig{Seed: dataSeed})
	if err != nil {
		return nil, err
	}
	data := g.Dataset(w.txns)
	reservoir := g.Queries(targetPool + insertPool)
	rand.New(rand.NewSource(cfg.seed)).Shuffle(len(reservoir), func(i, j int) {
		reservoir[i], reservoir[j] = reservoir[j], reservoir[i]
	})
	sess := &session{
		targets: reservoir[:targetPool],
		inserts: reservoir[targetPool:],
		known:   make(map[sigtable.TID]sigtable.Transaction),
	}

	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	eng, setupSecs, heapMiB, err := w.buildAll(data, dir, builds)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	ora := newOracle(data, sess.targets)

	var st *searchStats
	front := eng
	if cfg.trace {
		sess.rec, st = newRecorder(), &searchStats{}
		front = &tracedEngine{Engine: eng, rec: sess.rec, st: st}
	}
	clients := 1
	if w.serve {
		clients = runtime.GOMAXPROCS(0)
		cl, stop, err := serve(front, data, sess.rec, clients)
		if err != nil {
			return nil, err
		}
		defer stop()
		sess.cl = cl
	} else {
		sess.cl = engineClient{front}
	}

	window := time.Duration(cfg.seconds * float64(time.Second))
	runtime.GC()
	// Each loop draws its ops from its own streams of the run's seed.
	warm := sess.closedLoop(ctx, clients, min(window/5, maxWarmUp), cfg.seed*1000+100)
	before := readCounters(eng, st)
	var measured, capacity phase
	if w.serve {
		open := time.Duration(openShare * float64(window))
		measured = phase{sess.openLoop(ctx, clients, open, serveRate, cfg.seed*1000+200), open}
		capacity = phase{sess.closedLoop(ctx, clients, window-open, cfg.seed*1000+300), window - open}
	} else {
		measured = phase{sess.closedLoop(ctx, clients, window, cfg.seed*1000+200), window}
		capacity = measured
	}
	after := readCounters(eng, st)

	var comp comparison
	if cfg.trace {
		if comp, err = compare(data, ora); err != nil {
			rep.fail(err)
		}
	}
	final, err := sess.finalCheck(ctx, eng)
	if err != nil {
		rep.fail(err)
	}

	// Check every answer: against the band of what may have been live for
	// ops that ran alongside writes, exactly for the final queries.
	windowOps := measured.recs
	if w.serve {
		windowOps = slices.Concat(measured.recs, capacity.recs)
	}
	during := view{known: sess.known}
	for _, r := range warm {
		rep.check(ora, r, during)
	}
	var early, earlyExact float64
	for _, r := range windowOps {
		exact := rep.check(ora, r, during)
		if r.kind == opEarly {
			early++
			if exact {
				earlyExact++
			}
		}
	}
	live := sess.liveView()
	for _, r := range final {
		rep.check(ora, r, live)
	}

	if !cfg.trace {
		// Set up as many times again now, so that setup_s's median spans
		// the whole run rather than the few seconds before the window:
		// on a shared machine slow stretches last that long.
		again, err := os.MkdirTemp(dir, "again-")
		if err != nil {
			return nil, err
		}
		e, secs, mib, err := w.buildAll(data, again, builds)
		if err != nil {
			return nil, err
		}
		if err := e.Close(); err != nil {
			return nil, err
		}
		rep.endToEnd(slices.Concat(setupSecs, secs), slices.Concat(heapMiB, mib), measured, capacity, ratio(earlyExact, early))
		return rep, nil
	}
	self := analyze(sess.rec.spans)
	rep.perLayer(layerInputs{
		eng:      eng,
		before:   before,
		after:    after,
		ops:      len(windowOps),
		measured: measured.recs,
		serve:    w.serve,
		self:     self,
		comp:     comp,
	})
	if err := writeSpans(filepath.Join(cfg.workdir, "spans-"+w.name+".jsonl"), self.spans); err != nil {
		return nil, err
	}
	return rep, nil
}

// serve starts the HTTP server over the engine on a loopback port and
// returns a client limited to conns connections, plus the function that
// stops both and waits for the server to exit.
func serve(e sigtable.Engine, data *sigtable.Dataset, rec *recorder, conns int) (*httpClient, func() error, error) {
	h := server.New(e, data, server.Options{}).Handler()
	if rec != nil {
		h = traceHTTP(rec, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	cl := &httpClient{base: "http://" + ln.Addr().String(), hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
	stop := func() error {
		tr.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		if serr := <-done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		return err
	}
	return cl, stop, nil
}
