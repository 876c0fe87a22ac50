package server

import (
	"sync"

	"repro/internal/optics"
)

// modelCache is a singleflight cache of SOCS kernel models keyed by the
// (comparable) optics configuration. Building a model — source
// discretisation, factored-TCC eigendecomposition — takes tens of
// milliseconds at paper scale; jobs sharing process parameters still share
// one build, and concurrent first requests block on a single construction
// instead of racing duplicate ones. Models are immutable after
// construction, so handing one *optics.Model to many concurrent jobs is
// safe (the fullchip tile pool has relied on this since PR 1).
type modelCache struct {
	slots sync.Map // optics.Config → *modelSlot
}

type modelSlot struct {
	once  sync.Once
	model *optics.Model
	err   error
}

// get returns the cached model for cfg, building it exactly once. The
// second result reports whether this call performed the build (for the
// server's cache-hit accounting).
func (c *modelCache) get(cfg optics.Config) (*optics.Model, bool, error) {
	v, ok := c.slots.Load(cfg)
	if !ok {
		v, _ = c.slots.LoadOrStore(cfg, &modelSlot{})
	}
	s := v.(*modelSlot)
	built := false
	s.once.Do(func() {
		built = true
		s.model, s.err = optics.BuildModel(cfg)
	})
	return s.model, built, s.err
}

// size reports the number of distinct configurations cached (including
// failed builds, which are negative-cached deliberately: a config that
// cannot build will never build).
func (c *modelCache) size() int {
	n := 0
	c.slots.Range(func(_, _ any) bool { n++; return true })
	return n
}
