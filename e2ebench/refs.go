package main

import (
	_ "embed"
	"encoding/json"
)

// quality is one clip's contest metrics.
type quality struct {
	L2    float64 `json:"l2_nm2"`
	PVB   float64 `json:"pvb_nm2"`
	EPE   int     `json:"epe"`
	Shots int     `json:"shots"`
}

// refsJSON is the quality of every clip the workloads can draw, keyed by
// clip spec, as `e2ebench -refs` printed it on the tree that introduced
// the benchmark. Masks are bit-reproducible, so unchanged optimization
// code reproduces these numbers exactly.
//
//go:embed refs.json
var refsJSON []byte

func loadRefs() (map[string]quality, error) {
	var m map[string]quality
	return m, json.Unmarshal(refsJSON, &m)
}
