package safety

import (
	"fmt"
	"strings"

	"tmcheck/internal/explore"
	"tmcheck/internal/reduction"
	"tmcheck/internal/spec"
	"tmcheck/internal/tm"
)

// Factory builds a TM algorithm for given instance bounds — the shape the
// reduction methodology needs, since it instantiates the TM at several
// sizes.
type Factory func(n, k int) tm.Algorithm

// MethodologyReport is the outcome of VerifyViaReduction: the paper's full
// recipe applied to one TM.
type MethodologyReport struct {
	// Name is the TM's name.
	Name string
	// Safety holds the (2,2) inclusion results for both properties.
	Safety []Result
	// StructuralViolations lists sampled failures of the structural
	// properties P1–P3 (plus the P4 commutativity conditions) at the
	// instances probed. A non-empty list means the reduction theorem's
	// premises are in doubt and the (2,2) verdict does NOT generalize.
	StructuralViolations []*reduction.Violation
	// Probes records the (n, k) instances sampled.
	Probes [][2]int
}

// Generalizes reports whether the verdicts extend to all programs: the
// (2,2) checks passed and no structural violation was sampled.
func (r *MethodologyReport) Generalizes() bool {
	if len(r.StructuralViolations) > 0 {
		return false
	}
	for _, res := range r.Safety {
		if !res.Holds {
			return false
		}
	}
	return true
}

// String renders the report.
func (r *MethodologyReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s (reduction methodology) ===\n", r.Name)
	for _, res := range r.Safety {
		verdict := "HOLDS"
		if !res.Holds {
			verdict = fmt.Sprintf("FAILS: %s", res.Counterexample)
		}
		fmt.Fprintf(&b, "(2,2) %-24s %s\n", res.Prop.String()+":", verdict)
	}
	if len(r.StructuralViolations) == 0 {
		fmt.Fprintf(&b, "structural properties:        no violation sampled at %v\n", r.Probes)
		if r.Generalizes() {
			fmt.Fprintf(&b, "conclusion:                   safe for ALL programs (Theorem 1)\n")
		}
	} else {
		for _, v := range r.StructuralViolations {
			fmt.Fprintf(&b, "structural property violated: %v\n", v)
		}
		fmt.Fprintf(&b, "conclusion:                   the (2,2) verdict does not generalize\n")
	}
	return b.String()
}

// VerifyViaReduction runs the paper's end-to-end methodology on a TM:
//
//  1. model check (2,2) strict serializability and opacity by language
//     inclusion in the deterministic specifications;
//  2. sample the structural properties P1–P3 and the P4 commutativity
//     conditions at (2,2), (3,2) and (2,3), which the reduction theorem
//     needs to lift the verdict to every program.
//
// Structural sampling is evidence, not proof — exactly as in the paper,
// where the properties are established by manual inspection; the sampler
// automates the refutation direction.
func VerifyViaReduction(name string, factory Factory, seed int64) *MethodologyReport {
	rep := &MethodologyReport{Name: name}
	alg22 := factory(2, 2)
	ts22 := explore.BuildWorkers(alg22, nil, 1)
	rep.Safety = append(rep.Safety,
		Check(ts22, spec.StrictSerializability),
		Check(ts22, spec.Opacity),
	)
	rep.Probes = [][2]int{{2, 2}, {3, 2}, {2, 3}}
	for _, dims := range rep.Probes {
		ts := ts22
		if dims != [2]int{2, 2} {
			ts = explore.BuildWorkers(factory(dims[0], dims[1]), nil, 1)
		}
		s := reduction.NewSampler(ts, seed)
		// Fewer samples at the larger instances: membership checks there
		// run on much bigger automata.
		if dims != [2]int{2, 2} {
			s.Samples = 60
		}
		for _, check := range []func() *reduction.Violation{
			s.CheckP1, s.CheckP2, s.CheckP3,
			s.CheckUnfinishedCommutative, s.CheckCommitCommutative,
		} {
			if v := check(); v != nil {
				rep.StructuralViolations = append(rep.StructuralViolations, v)
			}
		}
	}
	return rep
}
