package liveness_test

import (
	"fmt"
	"runtime"

	"tmcheck/internal/explore"
	"tmcheck/internal/liveness"
	"tmcheck/internal/tm"
)

func ExampleCheckObstructionFreedom() {
	// DSTM with the aggressive contention manager never aborts a
	// transaction running alone, so it is obstruction free; with the
	// polite manager it is not.
	aggr := explore.BuildWorkers(tm.NewDSTM(2, 1), tm.Aggressive{}, runtime.GOMAXPROCS(0))
	fmt.Println("dstm+aggressive:", liveness.CheckObstructionFreedom(aggr).Holds)

	pol := explore.BuildWorkers(tm.NewDSTM(2, 1), tm.Polite{}, runtime.GOMAXPROCS(0))
	res := liveness.CheckObstructionFreedom(pol)
	fmt.Println("dstm+polite:", res.Holds, "loop:", res.LoopWord())
	// Output:
	// dstm+aggressive: true
	// dstm+polite: false loop: a1
}

func ExampleCheckLivelockFreedom() {
	// Two writers stealing ownership from each other forever: no TM in the
	// paper is livelock free.
	ts := explore.BuildWorkers(tm.NewDSTM(2, 1), tm.Aggressive{}, runtime.GOMAXPROCS(0))
	res := liveness.CheckLivelockFreedom(ts)
	fmt.Println("livelock free:", res.Holds)
	fmt.Println("loop:", res.LoopWord())
	// Output:
	// livelock free: false
	// loop: a2, (o,1)2, a1, (o,1)1
}

func ExampleCheckOnTheFlyOpts() {
	// The on-the-fly engine explores the managed TM lazily and stops at
	// the first violating lasso; verdicts and loop words are identical
	// to the materialized checks above for every -workers count.
	res, err := liveness.CheckOnTheFlyOpts(tm.NewDSTM(2, 1), tm.Polite{}, liveness.ObstructionFreedom, liveness.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println("dstm+polite:", res.Holds, "loop:", res.LoopWord())
	fmt.Printf("expanded %d of %d constructed states\n", res.Expanded, res.TMStates)
	// Output:
	// dstm+polite: false loop: a1
	// expanded 7 of 21 constructed states
}
