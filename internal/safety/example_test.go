package safety_test

import (
	"fmt"

	"tmcheck/internal/safety"
	"tmcheck/internal/spec"
	"tmcheck/internal/tm"
)

func ExampleVerifyOpts() {
	// Verify DSTM against opacity on the most general program with two
	// threads and two variables; the reduction theorem extends the verdict
	// to all programs.
	res, err := safety.VerifyOpts(tm.NewDSTM(2, 2), nil, spec.Opacity, safety.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.System, "ensures opacity:", res.Holds)
	// Output: dstm ensures opacity: true
}

func ExampleVerifyOpts_counterexample() {
	// The modified TL2 of the paper's §5.4 — validate split into rvalidate
	// before chklock — is unsafe; the checker produces a witness.
	res, err := safety.VerifyOpts(tm.NewTL2Mod(2, 2), tm.Polite{}, spec.StrictSerializability, safety.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println("safe:", res.Holds)
	fmt.Println("counterexample:", res.Counterexample)
	// Output:
	// safe: false
	// counterexample: (r,1)1, (w,2)1, (r,2)2, (w,1)2, c1, c2
}
