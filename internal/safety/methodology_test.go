package safety

import (
	"strings"
	"testing"

	"tmcheck/internal/tm"
)

func TestMethodologyVerifiedTMs(t *testing.T) {
	if testing.Short() {
		t.Skip("samples larger instances")
	}
	for _, tc := range []struct {
		name    string
		factory Factory
	}{
		{"2pl", func(n, k int) tm.Algorithm { return tm.NewTwoPL(n, k) }},
		{"dstm", func(n, k int) tm.Algorithm { return tm.NewDSTM(n, k) }},
		{"norec", func(n, k int) tm.Algorithm { return tm.NewNOrec(n, k) }},
	} {
		rep := VerifyViaReduction(tc.name, tc.factory, 11)
		if !rep.Generalizes() {
			t.Errorf("%s should generalize:\n%s", tc.name, rep)
		}
		out := rep.String()
		if !strings.Contains(out, "ALL programs") {
			t.Errorf("%s report missing conclusion:\n%s", tc.name, out)
		}
	}
}

func TestMethodologyBrokenTM(t *testing.T) {
	rep := VerifyViaReduction("2pl-noreadlock",
		func(n, k int) tm.Algorithm { return tm.NewTwoPLNoReadLock(n, k) }, 12)
	if rep.Generalizes() {
		t.Error("broken TM should not generalize")
	}
	if !strings.Contains(rep.String(), "FAILS") {
		t.Errorf("report should show the failure:\n%s", rep)
	}
}
