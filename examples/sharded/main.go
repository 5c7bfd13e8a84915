// Sharded: high-throughput concurrent ingest with union-backed reads
// (paper §8 applied to a serving system). A Sharded histogram stripes
// inserts across P shared-nothing shards — each a private histogram
// behind its own lock — and merges them losslessly on read, so many
// writer goroutines ingest in parallel where the single-mutex
// Concurrent wrapper would serialise them.
//
// The shards each get budget/P bytes: same total memory as one big
// histogram, 1/P the split-merge work per insert, and the merged view
// recovers the full resolution.
//
// Run with:
//
//	go run ./examples/sharded
package main

import (
	"fmt"
	"log"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"dynahist"
)

const (
	writers   = 8
	perWriter = 51_200 // a multiple of batchSize so counts come out exact
	domain    = 5000
	memTotal  = 8192 // bytes across all shards
	batchSize = 512
)

func ingest(label string, ins func(chunk []float64) error) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			chunk := make([]float64, batchSize)
			for sent := 0; sent < perWriter; sent += len(chunk) {
				for i := range chunk {
					// Two regimes per writer: a bulk uniform load plus a
					// hot band, so the histogram has structure to capture.
					if rng.Intn(4) == 0 {
						chunk[i] = float64(2000 + rng.Intn(200))
					} else {
						chunk[i] = float64(rng.Intn(domain + 1))
					}
				}
				if err := ins(chunk); err != nil {
					log.Fatalf("%s: %v", label, err)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	rate := float64(writers*perWriter) / elapsed.Seconds() / 1e6
	fmt.Printf("%-22s %8.2f M inserts/sec  (%v for %d rows, %d writers)\n",
		label, rate, elapsed.Round(time.Millisecond), writers*perWriter, writers)
	return elapsed
}

func main() {
	fmt.Printf("GOMAXPROCS = %d\n\n", runtime.GOMAXPROCS(0))

	// Baseline: one DADO behind one mutex.
	single, err := dynahist.New(dynahist.KindDADO, dynahist.WithMemory(memTotal))
	if err != nil {
		log.Fatal(err)
	}
	conc := dynahist.NewConcurrent(single)
	tMutex := ingest("Concurrent (mutex)", func(chunk []float64) error {
		for _, v := range chunk {
			if err := conc.Insert(v); err != nil {
				return err
			}
		}
		return nil
	})

	// Sharded: same total budget split across GOMAXPROCS-defaulted
	// shards, fed through the batched hot path.
	sharded, err := dynahist.NewSharded(func() (dynahist.Histogram, error) {
		return dynahist.New(dynahist.KindDADO, dynahist.WithMemory(memTotal/writers))
	}, dynahist.WithShards(writers))
	if err != nil {
		log.Fatal(err)
	}
	tSharded := ingest("Sharded (batched)", sharded.InsertBatch)

	fmt.Printf("\nspeedup: %.1fx\n", tMutex.Seconds()/tSharded.Seconds())

	// Reads pin the union-superposed merged view once (View also
	// surfaces any merge error directly) and answer every statistic
	// lock-free off the pinned snapshot.
	view, err := sharded.View()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmerged view: %d buckets over %d shards, %.0f points\n",
		view.NumBuckets(), sharded.NumShards(), view.Total())
	fmt.Printf("shard balance: ")
	for _, tot := range sharded.ShardTotals() {
		fmt.Printf("%.0f ", tot)
	}
	fmt.Println()

	for _, q := range [][2]float64{{0, 999}, {2000, 2199}, {4000, 5000}} {
		fmt.Printf("rows in [%4.0f, %4.0f]: sharded %8.0f, mutex-wrapped %8.0f\n",
			q[0], q[1], view.EstimateRange(q[0], q[1]), conc.EstimateRange(q[0], q[1]))
	}
	ps := []float64{0.25, 0.5, 0.9, 0.99}
	qs, err := view.QuantileAll(ps)
	if err != nil {
		log.Fatal(err)
	}
	for i, p := range ps {
		fmt.Printf("p%-4.0f ≈ %6.0f\n", p*100, qs[i])
	}
}
