package sigtable

import (
	"context"
	"math/rand"
	"sync"
	"testing"
)

// TestDirectoryRaceHammer drives concurrent queries against concurrent
// Insert/InsertBatch/Delete/Compact through the public engines. The
// point is the entry directory's update path: every mutation touches
// the signature-major bitmaps that every query's ranking kernel reads,
// so under -race this flushes out any unlocked access the refactor
// might have introduced. Run via `make check` (go test -race -run
// Directory).
func TestDirectoryRaceHammer(t *testing.T) {
	g, err := NewGenerator(GeneratorConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	d := g.Dataset(2000)
	queries := g.Queries(32)

	engines := map[string]func() (Engine, error){
		"index": func() (Engine, error) {
			return BuildIndex(d, IndexOptions{SignatureCardinality: 8})
		},
		"sharded": func() (Engine, error) {
			return NewSharded(d, IndexOptions{SignatureCardinality: 8, Shards: 3})
		},
	}
	for name, build := range engines {
		t.Run(name, func(t *testing.T) {
			ix, err := build()
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()

			const (
				readers = 4
				writers = 2
				rounds  = 60
			)
			var readerWG, writerWG sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < readers; w++ {
				readerWG.Add(1)
				go func(w int) {
					defer readerWG.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						q := queries[(i*readers+w)%len(queries)]
						if _, err := ix.Query(context.Background(), q, Jaccard{}, SearchOptions{K: 3}); err != nil {
							t.Error(err)
							return
						}
						if _, err := ix.BatchQuery(context.Background(), queries[:4], Jaccard{}, SearchOptions{K: 2}); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			for w := 0; w < writers; w++ {
				writerWG.Add(1)
				go func(w int) {
					defer writerWG.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < rounds; i++ {
						switch i % 4 {
						case 0:
							ix.Insert(queries[rng.Intn(len(queries))])
						case 1:
							ix.InsertBatch(queries[:3])
						case 2:
							ix.Delete(TID(rng.Intn(ix.Len())))
						case 3:
							if err := ix.Compact(); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}(w)
			}
			writerWG.Wait()
			close(stop)
			readerWG.Wait()
			if err := ix.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
