// Package cdfpoison is a complete Go implementation of the poisoning
// attacks on learned index structures introduced by Kornaropoulos, Ren, and
// Tamassia, "The Price of Tailoring the Index to Your Data: Poisoning
// Attacks on Learned Index Structures" (SIGMOD 2022, arXiv:2008.00297),
// together with every substrate the paper's evaluation needs: linear
// regression on CDFs, a two-stage recursive model index (RMI) with probe
// accounting, a B-Tree baseline, dataset generators for the paper's
// synthetic and real-world workloads, and a TRIM-style defense adapted to
// CDF training data.
//
// # Background
//
// A learned index models the lookup "key → position in the sorted key
// array" as a regression on the key set's cumulative distribution function
// (CDF). Because the model is tailored to the data, an adversary who can
// contribute data before the index is (re)built can craft keys whose
// insertion degrades the model for everyone: inserting a single key shifts
// the rank of every larger key, so a poisoning key has a global, compound
// effect on the training set — a structurally different setting from
// classic regression poisoning.
//
// # Quick start
//
//	ks, _ := cdfpoison.NewKeySet(myKeys)
//	model, _ := cdfpoison.FitCDF(ks)              // the index's regression
//	atk, _ := cdfpoison.GreedyMultiPoint(ks, 50)  // 50 optimal poison keys
//	fmt.Println(atk.RatioLoss())                  // error amplification
//
// Attacking a full two-stage RMI:
//
//	res, _ := cdfpoison.RMIAttack(ks, cdfpoison.RMIAttackOptions{
//	    NumModels: 100, Percent: 10, Alpha: 3,
//	})
//	fmt.Println(res.RMIRatio())
//
// Building and querying the index substrate:
//
//	idx, _ := cdfpoison.BuildRMI(ks, cdfpoison.RMIConfig{Fanout: 100})
//	r := idx.Lookup(key)    // r.Found, r.Pos, r.Probes
//
// Attacking an UPDATABLE index online — drip-feeding poison between retrain
// cycles of a delta-buffer index (the dynamic-adversary setting the paper's
// successors study):
//
//	res, _ := cdfpoison.OnlinePoisonAttack(ks, cdfpoison.OnlineOptions{
//	    Epochs: 8, EpochBudget: 50, Policy: cdfpoison.RetrainAtBufferSize(256),
//	})
//	for _, e := range res.Epochs {
//	    fmt.Println(e.Epoch, e.RatioLoss, e.PoisonedProbes)
//	}
//
// Attacking a SHARDED serving index under honest load — the serving-layer
// scenario (DESIGN.md §6): every substrate serves through the IndexBackend
// contract, and ServeAttack drives poison into a range-partitioned index
// (NewShardedIndex) while a deterministic workload mix reads and writes it:
//
//	res, _ := cdfpoison.ServeAttack(ks, cdfpoison.ServeOptions{
//	    Epochs: 6, OpsPerEpoch: 500, EpochBudget: 50, Shards: 4,
//	    Policy:   cdfpoison.RetrainManually(),
//	    Workload: cdfpoison.ZipfWorkload(1.1, 90),
//	})
//	fmt.Println(res.MaxRatio(), res.MaxShardRatio()) // aggregate vs worst shard
//
// Attacking the REBUILD PIPELINE itself — the retrain-churn scenario
// (DESIGN.md §7): reads are served through snapshot isolation, each
// rebuild costs logical ticks before it publishes, and ChurnAttack aims
// its budget at the shard where each key buys the most rebuild work:
//
//	res, _ := cdfpoison.ChurnAttack(ks, cdfpoison.ChurnOptions{
//	    Epochs: 6, OpsPerEpoch: 500, EpochBudget: 50, Shards: 4,
//	    Policy:   cdfpoison.RetrainAtBufferSize(64),
//	    Workload: cdfpoison.ZipfWorkload(1.1, 90),
//	    Cost:     cdfpoison.RebuildCostModel{Fixed: 40},
//	})
//	fmt.Println(res.MaxStaleFrac(), res.VictimChurn.MaxLatencyTicks)
//
// These snippets are compiled and output-checked as Example functions in
// api_example_test.go.
//
// # Parallel execution
//
// Attack entry points accept execution options. WithParallelism(n) runs the
// paper's two costs — per-gap candidate evaluation in Algorithm 1 (its
// endpoint and pruned scans), per-segment second-stage attacks in
// Algorithm 2 — on a bounded worker pool (n == 1 sequential, n > 1 exactly
// n workers, n <= 0 one worker per core), and WithCancellation(ctx) aborts
// mid-attack when ctx is cancelled:
//
//	atk, _ := cdfpoison.GreedyMultiPoint(ks, 50, cdfpoison.WithParallelism(0))
//	res, _ := cdfpoison.RMIAttack(ks, opts, cdfpoison.WithParallelism(8))
//
// Nothing else takes the pool: the scenarios parallelise only the
// Algorithm 1 or 2 oracle they run each epoch, and the Figure 3 loss
// sequence, the cascade scenario's insert-cost oracle, probe evaluation
// and retrains all run sequentially.
//
// The determinism contract: parallelism never changes results. Worker pools
// distribute tasks dynamically but reduce results in task-index order
// (internal/engine), so any worker count produces output byte-identical to
// the sequential run — equivalence tests enforce this for every
// parallelized path. The cmd/lisbench and cmd/lispoison tools expose the
// same knob as -workers (lispoison cascade has none, since nothing in it
// runs in parallel); the figure sweeps additionally fan out whole
// experiment cells via internal/bench's Options.Workers.
//
// See README.md for the attack catalog and how to run the figure sweeps,
// the examples directory for complete programs, DESIGN.md for the system
// inventory, and EXPERIMENTS.md for the paper-vs-measured record of every
// reproduced figure.
package cdfpoison
