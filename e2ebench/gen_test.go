package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

var workloads = []string{"cli-m1-cold", "serve-m1-warm", "via-warm"}

func TestGenClipsSeedDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, err := genClips(w, 7, 100)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := genClips(w, 7, 100)
		c, _ := genClips(w, 8, 100)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different clips", w)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same clips", w)
		}
		if p, _ := genClips(w, 7, 30); !reflect.DeepEqual(p, a[:30]) {
			t.Errorf("%s: a shorter run is not a prefix of a longer one", w)
		}
	}
	if _, err := genClips("nope", 1, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

// Every block carries the same work whatever the seed: each case once
// (cli, via), or three fast and one exact clip per case (serve).
func TestGenClipsBalancedBlocks(t *testing.T) {
	for _, w := range workloads {
		perBlock := blockSize(w)
		for seed := int64(1); seed <= 5; seed++ {
			clips, _ := genClips(w, seed, 2*perBlock)
			for start := 0; start < len(clips); start += perBlock {
				count := map[string]int{}
				for _, c := range clips[start : start+perBlock] {
					count[c.key()]++
				}
				for i := 1; i <= numCases(w); i++ {
					c := clips[0]
					c.Case = i
					if w != "serve-m1-warm" {
						if count[c.key()] != 1 {
							t.Errorf("%s seed %d: case %d appears %d times in a block", w, seed, i, count[c.key()])
						}
						continue
					}
					c.Recipe = "fast"
					fast := count[c.key()]
					c.Recipe = "exact"
					if exact := count[c.key()]; fast != 3 || exact != 1 {
						t.Errorf("%s seed %d: case %d has %d fast and %d exact clips in a block", w, seed, i, fast, exact)
					}
				}
			}
		}
	}
}

// Every clip a workload can draw has a committed reference quality, under
// the key the run will look it up by.
func TestRefsCoverEveryClip(t *testing.T) {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		clips, _ := genClips(w, 1, blockSize(w))
		for _, c := range clips {
			if _, ok := refs[c.key()]; !ok {
				t.Errorf("%s: no reference for %s", w, c.key())
			}
		}
	}
}

// The metric lists the program prints are the ones BENCHMARK.json
// declares, with the same units.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %s/%s, BENCHMARK.json %s/%s",
					kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
}

func TestClipCountWholeBlocks(t *testing.T) {
	for _, tc := range []struct {
		workload string
		seconds  float64
		want     int
	}{
		{"serve-m1-warm", 45, 200}, // 200 jobs = 5 blocks
		{"serve-m1-warm", 1, 40},   // at least one block
		{"via-warm", 45, 15},       // 14 clips round to 3 blocks
		{"via-warm", 40, 15},
		{"via-warm", 20, 5},
		{"cli-m1-cold", 45, 4}, // at least minCLIClips
		{"cli-m1-cold", 130, 10},
	} {
		if got := clipCount(tc.workload, tc.seconds); got != tc.want {
			t.Errorf("clipCount(%s, %g) = %d, want %d", tc.workload, tc.seconds, got, tc.want)
		}
	}
}
