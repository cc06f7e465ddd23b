// Quickstart: verify a transactional memory in a few lines.
//
// The pipeline is the paper's: express the TM as a transition system,
// unfold it against the most general program with 2 threads and 2
// variables, and check language inclusion in the deterministic opacity
// specification. By the reduction theorem, the (2,2) verdict extends to
// programs of every size for TMs with the structural properties P1–P4.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"tmcheck/internal/safety"
	"tmcheck/internal/spec"
	"tmcheck/internal/tm"
)

func main() {
	// Verify DSTM — ownership stealing, commit-time validation — against
	// opacity.
	res, err := safety.VerifyOpts(tm.NewDSTM(2, 2), nil, spec.Opacity, safety.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s: %d TM states checked against %d specification states\n",
		res.System, res.TMStates, res.SpecStates)
	if res.Holds {
		fmt.Printf("%s ensures opacity (checked in %v)\n", res.System, res.Elapsed)
	} else {
		fmt.Printf("%s violates opacity: %s\n", res.System, res.Counterexample)
	}

	// Safety without a contention manager implies safety with every
	// manager, but managers can be checked directly too.
	for _, cm := range []tm.ContentionManager{tm.Aggressive{}, tm.Polite{}} {
		res, err := safety.VerifyOpts(tm.NewDSTM(2, 2), cm, spec.Opacity, safety.Options{})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: opacity holds = %v\n", res.System, res.Holds)
	}

	// A broken TM produces a counterexample trace instead.
	bad, err := safety.VerifyOpts(tm.NewTwoPLNoReadLock(2, 2), nil, spec.StrictSerializability, safety.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("\n%s: strict serializability holds = %v\n", bad.System, bad.Holds)
	if !bad.Holds {
		fmt.Printf("counterexample: %s\n", bad.Counterexample)
		fmt.Println("(a reader observes a value, the writer commits behind it, both commit)")
	}
}
