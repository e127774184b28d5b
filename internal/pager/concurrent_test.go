package pager

import (
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentPoolHammer drives the sharded clock pool from many
// goroutines at once — mixed Gets, Puts and stat reads — and checks
// the counters stay coherent. Run under -race this is the proof the
// shard locking covers every access.
func TestConcurrentPoolHammer(t *testing.T) {
	p := NewBufferPoolShards(64, 8)
	const (
		workers = 8
		ops     = 1998 // divisible by 3: exactly ops/3 Gets per worker
		idSpace = 256
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				id := PageID(rng.Intn(idSpace))
				switch i % 3 {
				case 0:
					p.Put(id, []byte{byte(id)})
				case 1:
					if data, ok := p.Get(id); ok && data[0] != byte(id) {
						t.Errorf("page %d holds %v", id, data)
						return
					}
				case 2:
					_ = p.Len()
					_, _ = p.Stats()
					_ = p.ShardStats()
					_ = p.Contention()
				}
			}
		}(int64(w))
	}
	wg.Wait()

	if p.Len() > 64 {
		t.Fatalf("Len = %d exceeds capacity", p.Len())
	}
	hits, misses := p.Stats()
	gets := int64(workers) * ops / 3
	if hits+misses != gets {
		t.Fatalf("hits %d + misses %d != %d Gets", hits, misses, gets)
	}
}
