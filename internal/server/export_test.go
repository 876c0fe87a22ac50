package server

import "repro/internal/core"

// SetFaultHook installs a hook that edits every job's optimizer options
// before its run — the fault-injection seam of the panic-isolation tests.
// Call it before the first submission.
func SetFaultHook(s *Server, hook func(*core.Options)) { s.faultHook = hook }
