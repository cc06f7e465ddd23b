// Liveness survey: which TM / contention-manager combinations guarantee
// which liveness properties (§6 of the paper)?
//
// Liveness, unlike safety, depends on the contention manager: the same
// DSTM is obstruction free with the aggressive manager (a transaction
// running alone is never forced to abort itself) but not with the polite
// one (it politely aborts whenever a stale lock is in the way). This
// example checks every registered TM × manager combination on the most
// general program with 2 threads and 1 variable — sufficient by the
// liveness reduction theorem — and prints the verdict matrix with
// counterexample loops.
//
// It runs on the on-the-fly engine: liveness.CheckAllOnTheFlyOpts resolves
// all three properties over one lazy exploration, stopping each failing
// property at its first violating lasso instead of materializing the
// full transition system (the same verdicts and loops as the
// materialized liveness.Check* functions, at any worker count).
//
// Run with:
//
//	go run ./examples/liveness
package main

import (
	"fmt"

	"tmcheck/internal/liveness"
	"tmcheck/internal/tm"
)

func main() {
	algs := []string{"seq", "2pl", "dstm", "tl2"}
	cms := []string{"none", "aggressive", "polite", "karma", "timid"}

	fmt.Printf("%-18s %-24s %-40s %s\n", "system", "obstruction freedom", "livelock freedom", "wait freedom")
	for _, a := range algs {
		for _, c := range cms {
			alg, err := tm.NewAlgorithm(a, 2, 1)
			if err != nil {
				panic(err)
			}
			cm, err := tm.NewContentionManager(c)
			if err != nil {
				panic(err)
			}
			row, err := liveness.CheckAllOnTheFlyOpts(alg, cm, liveness.Options{})
			if err != nil {
				panic(err)
			}
			fmt.Printf("%-18s %-24s %-40s %s\n", row.Obstruction.System,
				verdict(row.Obstruction), verdict(row.Livelock), verdict(row.Wait))
		}
	}
	fmt.Println("\nReading the table:")
	fmt.Println(" - seq and 2pl burn a waiting thread's schedule slots as aborts: not obstruction free.")
	fmt.Println(" - dstm+aggressive never aborts itself, so a lone transaction always commits;")
	fmt.Println("   but two writers can steal ownership back and forth forever: no livelock freedom.")
	fmt.Println(" - a polite manager turns every conflict into a self-abort: a lone thread still")
	fmt.Println("   aborts against stale state left by a preempted rival.")
}

func verdict(r liveness.Result) string {
	if r.Holds {
		return "Y"
	}
	return "N [" + r.LoopWord() + "]"
}
