package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"

	"repro/internal/grid"
)

// outcome is what one attempted clip produced.
type outcome struct {
	Clip  clip
	Wall  float64 // seconds from hand-off to result: the clip's TAT
	Err   string  // non-empty when the clip failed or was refused
	Mask  string  // fingerprint of the final mask
	L2    float64 // nm²
	PVB   float64 // nm²
	EPE   int
	Shots int
}

// ledger counts attempted and failed clips and applies the output checks:
// a clip fails when the program reports an error or refuses it, when its
// mask is missing, when a quality metric is non-finite, or when its mask
// differs from an earlier clip with the same spec. Safe for concurrent use.
type ledger struct {
	mu        sync.Mutex
	attempted int
	failed    int
	incorrect int
	reasons   map[string]int
	masks     map[string]string // clip key → first mask fingerprint
	done      []outcome         // clips that passed every check
	walls     []float64         // every attempted clip; +Inf when it failed
}

func newLedger() *ledger {
	return &ledger{reasons: map[string]int{}, masks: map[string]string{}}
}

// add records one attempted clip and reports whether it passed.
func (l *ledger) add(o outcome) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	reason := o.Err
	if reason == "" {
		reason = l.check(o)
		if reason != "" {
			l.incorrect++
		}
	}
	if reason != "" {
		l.failed++
		l.reasons[reason]++
		l.walls = append(l.walls, math.Inf(1))
		return false
	}
	l.walls = append(l.walls, o.Wall)
	l.done = append(l.done, o)
	return true
}

func (l *ledger) check(o outcome) string {
	if o.Mask == "" {
		return "mask missing"
	}
	for _, v := range []float64{o.L2, o.PVB} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "non-finite quality metric"
		}
	}
	k := o.Clip.key()
	if first, ok := l.masks[k]; ok && first != o.Mask {
		return "mask differs from an earlier clip with the same spec"
	}
	l.masks[k] = o.Mask
	return ""
}

// maskFingerprint hashes a mask's dimensions and the IEEE-754 bits of
// every pixel, the same digest the server reports as mask_sha256.
func maskFingerprint(m *grid.Mat) string {
	buf := make([]byte, 16+8*len(m.Data))
	binary.LittleEndian.PutUint64(buf[0:8], uint64(m.W))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(m.H))
	for i, v := range m.Data {
		binary.LittleEndian.PutUint64(buf[16+8*i:], math.Float64bits(v))
	}
	return fileFingerprint(buf)
}

func fileFingerprint(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
