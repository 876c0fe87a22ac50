package main

import (
	"fmt"
	"math"
	"math/rand"
)

// clip is one mask-optimization input: a synthetic target plus the scale
// and recipe it is optimized at. The seed picks clips; the program under
// test receives only the fields below.
type clip struct {
	Via     bool // via-layer case (bench.ViaCase) instead of an M1 case
	Case    int  // 1-based case index
	Recipe  string
	Region  bool // optimize inside the Fig. 7 option-1 region (iltopt -region 1), not unconstrained
	N       int
	FieldNM float64
	Kernels int
	IterDiv int
}

// key names the clip's full spec; equal keys must give equal masks.
func (c clip) key() string {
	kind := "m1"
	if c.Via {
		kind = "via"
	}
	return fmt.Sprintf("%s-%d/%s/r%d/n%d/f%g/k%d/d%d", kind, c.Case, c.Recipe, c.regionOpt(), c.N, c.FieldNM, c.Kernels, c.IterDiv)
}

// regionOpt is the clip's iltopt -region value.
func (c clip) regionOpt() int {
	if c.Region {
		return 1
	}
	return 0
}

// Scales of the workloads: the EXPERIMENTS harness scale (P = 35, the
// paper's 24 kernels) for the CLI, and experiments.BenchScale for the
// in-process workloads.
var (
	harness = clip{N: 512, FieldNM: 2048, Kernels: 24, IterDiv: 4, Recipe: "fast", Region: true}
	small   = clip{N: 256, FieldNM: 1024, Kernels: 12, IterDiv: 4, Recipe: "fast"}
)

// Case indices the workloads draw from: the ten M1 cases of Table II, and
// five via cases, one per via count bench.ViaCase places (6 to 18).
const (
	m1Cases  = 10
	viaCases = 5
)

// numCases is the number of distinct cases a workload draws from.
func numCases(workload string) int {
	if workload == "via-warm" {
		return viaCases
	}
	return m1Cases
}

// blockSize is the length of one balanced block of the workload's clips.
func blockSize(workload string) int {
	if workload == "serve-m1-warm" {
		return 4 * m1Cases
	}
	return numCases(workload)
}

// nominalClipSec is one clip's share of a run's wall time on the host the
// benchmark was recorded on (2-CPU Xeon): the serve loop completes about
// 4.4 jobs/s, a via clip takes about 3.2 s and an iltopt process 13 s.
var nominalClipSec = map[string]float64{"cli-m1-cold": 13, "serve-m1-warm": 0.225, "via-warm": 3.2}

// minCLIClips keeps the cli median meaningful when one invocation takes a
// large share of the run.
const minCLIClips = 4

// clipCount converts a run's --seconds into its number of clips: the clips
// that fit at the nominal rate, rounded to whole balanced blocks (at least
// one) for the in-process workloads. A run's work is thus fixed by its
// arguments; a slow host takes longer instead of measuring less.
func clipCount(workload string, seconds float64) int {
	n := int(math.Round(seconds / nominalClipSec[workload]))
	if workload == "cli-m1-cold" {
		return max(n, minCLIClips)
	}
	b := blockSize(workload)
	return max(1, (n+b/2)/b) * b
}

// genClips returns the first count clips of a workload for a seed. Clips
// come in balanced blocks — every case once per block for cli and via,
// and every case three times with the fast recipe and once with exact for
// serve — shuffled by the seed, so any prefix of the sequence carries the
// same mix of work whatever the seed.
func genClips(workload string, seed int64, count int) ([]clip, error) {
	r := rand.New(rand.NewSource(seed))
	var block func() []clip
	switch workload {
	case "cli-m1-cold":
		block = func() []clip {
			out := make([]clip, m1Cases)
			for i := range out {
				out[i] = harness
				out[i].Case = i + 1
			}
			return out
		}
	case "serve-m1-warm":
		block = func() []clip {
			var out []clip
			for i := 1; i <= m1Cases; i++ {
				for _, recipe := range []string{"fast", "fast", "fast", "exact"} {
					c := small
					c.Case, c.Recipe = i, recipe
					out = append(out, c)
				}
			}
			return out
		}
	case "via-warm":
		block = func() []clip {
			out := make([]clip, viaCases)
			for i := range out {
				out[i] = small
				out[i].Via, out[i].Case, out[i].Recipe, out[i].IterDiv = true, i+1, "via", 1
			}
			return out
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want cli-m1-cold, serve-m1-warm or via-warm)", workload)
	}
	var out []clip
	for len(out) < count {
		b := block()
		r.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		out = append(out, b...)
	}
	return out[:count], nil
}
