package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// cliRun is what one iltopt process reported besides its outcome.
type cliRun struct {
	SetupSec  float64 // the manifest's setup.optics phase: the cold kernel build
	PeakRSSMB float64
	Coverage  float64 // phase seconds ÷ wall from the trace; traced runs only
}

// runCLI executes one fresh iltopt process for the clip, from flag parsing
// to the written -out mask, and reads its manifest. Its outcome's wall
// time runs from exec to exit; its mask fingerprint is the written PNG.
func runCLI(ctx context.Context, iltopt, dir string, c clip, tag string, trace bool) (outcome, cliRun, error) {
	o := outcome{Clip: c}
	var info cliRun
	prefix := filepath.Join(dir, tag)
	args := []string{
		"-case", strconv.Itoa(c.Case), "-recipe", c.Recipe, "-region", strconv.Itoa(c.regionOpt()),
		"-n", strconv.Itoa(c.N), "-field", strconv.FormatFloat(c.FieldNM, 'g', -1, 64),
		"-kernels", strconv.Itoa(c.Kernels), "-iterdiv", strconv.Itoa(c.IterDiv),
		"-out", prefix,
	}
	if trace {
		args = append(args, "-trace", prefix+".jsonl")
	}
	cmd := exec.CommandContext(ctx, iltopt, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	o.Wall = time.Since(start).Seconds()
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			info.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		o.Err = fmt.Sprintf("iltopt: %v: %s", err, strings.TrimSpace(stderr.String()))
		return o, info, nil
	}

	man, err := telemetry.ReadManifest(prefix + "_manifest.json")
	if err != nil {
		o.Err = err.Error()
		return o, info, nil
	}
	o.L2, o.PVB = man.Metrics["l2_nm2"], man.Metrics["pvb_nm2"]
	o.EPE, o.Shots = int(man.Metrics["epe"]), int(man.Metrics["shots"])
	for _, ph := range man.Phases {
		if ph.Name == "setup.optics" {
			info.SetupSec = ph.Seconds
		}
	}
	if png, err := os.ReadFile(prefix + "_mask.png"); err == nil {
		o.Mask = fileFingerprint(png)
	}
	if trace {
		f, err := os.Open(prefix + ".jsonl")
		if err != nil {
			return o, info, err
		}
		defer f.Close()
		st, err := telemetry.ValidateTrace(f)
		if err != nil {
			o.Err = fmt.Sprintf("iltopt trace: %v", err)
			return o, info, nil
		}
		info.Coverage = st.Coverage()
	}
	return o, info, nil
}
