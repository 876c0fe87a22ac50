package server_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/server"
)

// TestJobRequestEngineField pins the submit-time validation of the
// "engine" field: every litho.ParseEngine spelling is accepted verbatim
// (including the empty default), everything else — the removed per-kernel
// band engines, wrong case, stray whitespace, aliases — is rejected at
// ParseJobRequest with an error that names the two valid engines, so a bad
// job never reaches the queue.
func TestJobRequestEngineField(t *testing.T) {
	parse := func(engineJSON string) (*server.JobSpec, error) {
		t.Helper()
		body := fmt.Sprintf(`{"case":1,"engine":%q}`, engineJSON)
		return server.ParseJobRequest([]byte(body), server.Limits{})
	}

	for _, eng := range []string{"", "batch", "reference"} {
		spec, err := parse(eng)
		if err != nil {
			t.Errorf("engine %q rejected: %v", eng, err)
			continue
		}
		if spec.Req.Engine != eng {
			t.Errorf("engine %q resolved to spec engine %q; the spec must keep the submitted spelling", eng, spec.Req.Engine)
		}
	}

	for _, eng := range []string{
		"band", "band-inverse",
		"warp", "dense", "ref",
		"Batch", "BAND", "Band-Inverse", "REFERENCE",
		" batch", "batch ", "band_inverse", "bandinverse", "batch,band",
	} {
		spec, err := parse(eng)
		if err == nil {
			t.Errorf("engine %q accepted (spec %+v); want submit-time rejection", eng, spec.Req)
			continue
		}
		msg := err.Error()
		for _, want := range []string{"batch", "reference"} {
			if !strings.Contains(msg, want) {
				t.Errorf("engine %q: error %q does not name valid engine %q", eng, msg, want)
			}
		}
	}
}
