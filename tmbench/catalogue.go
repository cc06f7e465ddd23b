package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"

	"tmcheck/internal/job"
)

// Entry is one job shape of the service catalogue.
type Entry struct {
	Name string
	Spec job.Spec
	// Verdicts is the number of verdicts the job must report.
	Verdicts int
}

// fixtureSnap is the snapshot the service set-up writes and the
// catalogue's resume job reads.
const fixtureSnap = "fixture.snap"

// catalogue is the fixed job mix of the service-mix workload: the
// paper's (2,2) safety and (2,1) liveness checks, both tables, and the
// snapshot write and read paths.
func catalogue() []Entry {
	safety := func(alg, cm, prop string) Entry {
		sys := alg
		if cm != "" {
			sys += "+" + cm
		}
		return Entry{Name: "safety " + sys + " " + prop, Verdicts: 1,
			Spec: job.Spec{Kind: job.KindSafety, TM: alg, CM: cm, Prop: prop}}
	}
	live := func(alg, cm string) Entry {
		return Entry{Name: "liveness " + alg + "+" + cm, Verdicts: 3,
			Spec: job.Spec{Kind: job.KindLiveness, TM: alg, CM: cm}}
	}
	return []Entry{
		safety("dstm", "", "op"),
		safety("tl2", "", "ss"),
		safety("2pl", "", "op"),
		safety("norec", "", "op"),
		safety("etl", "", "op"),
		safety("modtl2", "polite", "ss"),
		safety("dstm-novalidate", "", "op"),
		live("dstm", "aggressive"),
		live("tl2", "polite"),
		live("2pl", "polite"),
		{Name: "table2", Verdicts: 10, Spec: job.Spec{Kind: job.KindTable2}},
		{Name: "table3", Verdicts: 12, Spec: job.Spec{Kind: job.KindTable3}},
		{Name: "checkpoint tl2 ss", Verdicts: 1,
			Spec: job.Spec{Kind: job.KindSafety, TM: "tl2", Prop: "ss", Engine: "materialized", Checkpoint: "ckpt.snap"}},
		{Name: "resume tl2 ss", Verdicts: 1,
			Spec: job.Spec{Kind: job.KindSafety, TM: "tl2", Prop: "ss", Engine: "materialized", Resume: fixtureSnap}},
	}
}

// fixtureEntry is the set-up job that writes the resume fixture.
func fixtureEntry() Entry {
	return Entry{Name: "fixture tl2 ss", Verdicts: 1,
		Spec: job.Spec{Kind: job.KindSafety, TM: "tl2", Prop: "ss", Engine: "materialized", Checkpoint: fixtureSnap}}
}

// jobSeq is the seeded job sequence of service-mix. The sequence is
// drawn in rounds: each round is a seeded random permutation of the
// catalogue, so every position is a uniform draw while every entry
// occurs equally often, which keeps the mix — and with it the
// latency distribution — the same across seeds. Checkpoint jobs write
// a snapshot name of their own.
type jobSeq struct {
	cat  []Entry
	rng  *rand.Rand
	draw []int
}

func newJobSeq(seed int64) *jobSeq {
	return &jobSeq{cat: catalogue(), rng: rand.New(rand.NewSource(seed))}
}

// at returns job i of the sequence. Not safe for concurrent use.
func (s *jobSeq) at(i int) Entry {
	for len(s.draw) <= i {
		s.draw = append(s.draw, s.rng.Perm(len(s.cat))...)
	}
	e := s.cat[s.draw[i]]
	if e.Spec.Checkpoint != "" {
		e.Spec.Checkpoint = fmt.Sprintf("ckpt-%06d.snap", i)
	}
	return e
}

// Parsers of the CLI's stdout for the local workloads.

var instanceRE = regexp.MustCompile(`\((\d+) threads, (\d+) variables\)`)

func parseInstance(line string) (n, k int, err error) {
	m := instanceRE.FindStringSubmatch(line)
	if m == nil {
		return 0, 0, fmt.Errorf("no instance bounds in %q", line)
	}
	n, _ = strconv.Atoi(m[1])
	k, _ = strconv.Atoi(m[2])
	return n, k, nil
}

// parseSafety reads the verdict of `tmcheck safety`.
func parseSafety(out string) ([]Verdict, error) {
	var v Verdict
	var seen int
	for _, line := range strings.Split(out, "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		val = strings.TrimSpace(val)
		switch key {
		case "system":
			v.System = val
			seen |= 1
		case "property":
			switch {
			case strings.HasPrefix(val, "strict serializability"):
				v.Prop = "ss"
			case strings.HasPrefix(val, "opacity"):
				v.Prop = "op"
			default:
				return nil, fmt.Errorf("unknown property %q", val)
			}
			var err error
			if v.N, v.K, err = parseInstance(val); err != nil {
				return nil, err
			}
			seen |= 2
		case "verdict":
			switch {
			case strings.HasPrefix(val, "SAFE"):
				v.Holds = true
			case strings.HasPrefix(val, "UNSAFE"):
			default:
				return nil, fmt.Errorf("unknown verdict %q", val)
			}
			seen |= 4
		case "counterexample":
			v.Cex = val
		}
	}
	if seen != 7 {
		return nil, fmt.Errorf("incomplete safety report:\n%s", out)
	}
	return []Verdict{v}, nil
}
