// Model building: the synapse-placement use case of the paper (§3.1). A
// neuroscientist follows a neuron branch with small range queries and, at
// every step, computes exact distances between the branch's cylinders and
// all other cylinders in the region, recording the locations where the
// proximity falls below a threshold (candidate synapses). Distance
// computation is expensive, so the prefetch window is long (r = 2) and
// SCOUT can hide almost all of the I/O.
//
//	go run ./examples/modelbuilding
package main

import (
	"fmt"
	"log"

	"scout/internal/core"
	"scout/internal/dataset"
	"scout/internal/engine"
	"scout/internal/geom"
	"scout/internal/pagestore"
	"scout/internal/rtree"
	"scout/internal/workload"
)

// synapseThreshold is the proximity below which two branches can form a
// synapse, in µm.
const synapseThreshold = 0.5

func main() {
	ds := dataset.GenerateNeuro(dataset.SmallNeuroConfig())
	store := pagestore.NewStore(ds.Objects)
	tree, err := rtree.BulkLoad(store, rtree.Config{})
	if err != nil {
		log.Fatal(err)
	}

	// The paper's model-building microbenchmark: 35 queries of 20,000 µm³
	// with a window ratio of 2 (Figure 10).
	params := workload.Params{Queries: 35, Volume: 20_000, WindowRatio: 2}
	seqs, err := workload.GenerateMany(ds, params, 1, 11)
	if err != nil {
		log.Fatal(err)
	}
	seq := seqs[0]

	eng := engine.New(store, tree, engine.DefaultConfig())
	scout := core.New(store, ds.Adjacency, core.DefaultConfig())

	// Run the sequence through the engine for the I/O accounting, then redo
	// the analysis pass (the u part of r = u/d) for the domain result:
	// synapse candidates along the followed branch.
	res := eng.RunSequence(seq, scout)

	totalCandidates := 0
	for _, q := range seq.Queries {
		ids := tree.QueryObjects(q.Region, nil)

		// Split the result into the followed branch (objects nearest the
		// walk line) and everything else, then count close approaches.
		var branch, others []pagestore.Object
		for _, id := range ids {
			o := store.Object(id)
			if o.Seg.DistToPoint(q.Center) < 4 {
				branch = append(branch, o)
			} else {
				others = append(others, o)
			}
		}
		for _, b := range branch {
			bc := geom.Cyl(b.Seg.A, b.Seg.B, b.Radius, b.Radius)
			for _, o := range others {
				oc := geom.Cyl(o.Seg.A, o.Seg.B, o.Radius, o.Radius)
				if bc.DistToCylinder(oc) < synapseThreshold {
					totalCandidates++
				}
			}
		}
	}

	fmt.Println(ds.Stats())
	fmt.Printf("\nfollowed structure %d for %d queries\n", seq.StructID, len(seq.Queries))
	fmt.Printf("synapse candidates (proximity < %.1f µm): %d\n\n", synapseThreshold, totalCandidates)
	fmt.Printf("SCOUT cache hit rate: %.1f%%   speedup vs no prefetching: %.2fx\n",
		100*res.HitRate(), res.Speedup())
	fmt.Println("(the r=2 window lets SCOUT hide nearly all I/O behind the distance computations)")
}
