// Concurrent serving: the goroutine-concurrent plane and its tick oracle.
//
// The serving plane runs reader goroutines that answer lookups lock-free,
// each from the immutable snapshot it was queued with, while a single
// writer ingests the operation stream and drives retrains in a true
// background goroutine. Its defining property is scheduler
// equivalence: every per-epoch metric — tail-latency percentiles in
// probes, stale-read fractions, content loss, churn counters — is
// byte-identical to the single-threaded tick scheduler, for any reader
// count. Concurrency buys wall-clock throughput and nothing else, so a
// poisoned tail (p99/p999 inflation) is attacker-caused by construction,
// never a scheduling artifact.
//
//	go run ./examples/concurrent_serving
package main

import (
	"context"
	"fmt"
	"log"
	"reflect"

	"cdfpoison"
)

func main() {
	rng := cdfpoison.NewRNG(7)
	const n = 1_500
	ks, err := cdfpoison.UniformKeys(rng, n, n*40)
	if err != nil {
		log.Fatal(err)
	}

	scenario := cdfpoison.ServingScenarioOptions{
		Epochs:      4,
		OpsPerEpoch: 300,
		EpochBudget: 30, // poison keys per epoch; 0 below runs the clean baseline
		Workload:    cdfpoison.ZipfWorkload(1.1, 90),
		Domain:      n * 40,
		Seed:        11,
		Cost:        cdfpoison.RebuildCostModel{Fixed: 30},
		Oracle:      cdfpoison.GreedyPoisonOracle(),
	}
	backend := func() cdfpoison.IndexBackend {
		b, err := cdfpoison.NewShardedIndex(ks, 4, cdfpoison.RetrainAtBufferSize(24))
		if err != nil {
			log.Fatal(err)
		}
		return b
	}

	// --- Scheduler equivalence: tick oracle vs concurrent plane ----------
	tick, err := cdfpoison.ServeScenarioTick(backend(), scenario)
	if err != nil {
		log.Fatal(err)
	}
	conc, err := cdfpoison.ServeScenarioConcurrent(context.Background(), backend(), scenario,
		cdfpoison.ServingPlaneOptions{Readers: 4, BatchSize: 16})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tick oracle == 4-reader concurrent plane: %v\n\n", reflect.DeepEqual(tick, conc))

	// --- The attack, read off the poisoned run's tail --------------------
	clean := scenario
	clean.EpochBudget = 0
	base, err := cdfpoison.ServeScenarioConcurrent(context.Background(), backend(), clean,
		cdfpoison.ServingPlaneOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("epoch  clean_p99  clean_p999  poison_p99  poison_p999  stale_frac  injected")
	for i, p := range conc {
		c := base[i]
		fmt.Printf("%5d %10d %11d %11d %12d %11.3f %9d\n",
			p.Epoch, c.P99, c.P999, p.P99, p.P999, p.StaleFrac, p.Injected)
	}
	last, cleanLast := conc[len(conc)-1], base[len(base)-1]
	fmt.Printf("\nfinal content-loss ratio %.2f×, histogram checksums %016x (clean) vs %016x (poisoned)\n",
		last.ContentLoss/cleanLast.ContentLoss, cleanLast.HistChecksum, last.HistChecksum)
}
