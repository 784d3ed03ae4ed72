package server

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrBreakerOpen rejects submissions for a registry entry whose recent
// jobs kept failing; mapped to HTTP 503 so clients back off.
var ErrBreakerOpen = errors.New("server: circuit breaker open")

// BreakerConfig tunes the per-registry-entry circuit breakers.
type BreakerConfig struct {
	// Threshold is how many consecutive failures open a breaker
	// (default 5; negative disables breakers entirely).
	Threshold int
	// Cooldown is how long an open breaker sheds load before letting one
	// probe job through (default 30s).
	Cooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold == 0 {
		c.Threshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	return c
}

// breakerState is the classic three-state lifecycle.
type breakerState int

const (
	breakerClosed   breakerState = iota // healthy, everything admitted
	breakerOpen                         // shedding load until cooldown passes
	breakerHalfOpen                     // one probe in flight decides
)

// String renders the state for metrics labels.
func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker guards one registry entry (a workload/policy pair).
type breaker struct {
	state    breakerState
	failures int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // a half-open probe is in flight
}

// breakerSet owns every per-entry breaker. Its lock is a leaf: the
// executor calls in with its job lock held and nothing here calls out.
type breakerSet struct {
	cfg BreakerConfig

	mu       sync.Mutex
	breakers map[string]*breaker
	now      func() time.Time // test seam
}

func newBreakerSet(cfg BreakerConfig) *breakerSet {
	return &breakerSet{
		cfg:      cfg.withDefaults(),
		breakers: make(map[string]*breaker),
		now:      time.Now,
	}
}

// breakerKey names the registry entry a job resolves through. TTE jobs
// have no policy, so they share breakers per workload under a kind prefix.
func breakerKey(spec JobSpec) string {
	if spec.Kind == "tte" {
		return "tte/" + spec.Workload
	}
	return spec.Workload + "/" + spec.Policy
}

// Admit decides whether a submission for the entry may proceed. An open
// breaker whose cooldown has elapsed admits exactly one probe (half-open);
// everything else waits for that probe's verdict.
func (s *breakerSet) Admit(key string) error {
	if s.cfg.Threshold < 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.breakers[key]
	if !ok {
		return nil
	}
	switch b.state {
	case breakerClosed:
		return nil
	case breakerOpen:
		if s.now().Sub(b.openedAt) < s.cfg.Cooldown {
			return fmt.Errorf("%w for %q (retry after %s)", ErrBreakerOpen, key, s.cfg.Cooldown)
		}
		b.state = breakerHalfOpen
		b.probing = true
		return nil
	default: // half-open
		if b.probing {
			return fmt.Errorf("%w for %q (probe in flight)", ErrBreakerOpen, key)
		}
		b.probing = true
		return nil
	}
}

// Record feeds one terminal job outcome back into the entry's breaker and
// reports whether the breaker just tripped open.
func (s *breakerSet) Record(key string, failed bool) (tripped bool) {
	if s.cfg.Threshold < 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.breakers[key]
	if b == nil {
		b = &breaker{}
		s.breakers[key] = b
	}
	switch {
	case b.state == breakerHalfOpen:
		b.probing = false
		if failed {
			b.state = breakerOpen
			b.openedAt = s.now()
			return true
		}
		b.state = breakerClosed
		b.failures = 0
	case failed:
		b.failures++
		if b.state == breakerClosed && b.failures >= s.cfg.Threshold {
			b.state = breakerOpen
			b.openedAt = s.now()
			return true
		}
	default:
		b.failures = 0
	}
	return false
}

// Release frees a half-open breaker's probe slot without a verdict: a
// cancelled job says nothing about the entry's health, so the breaker
// stays half-open and the next submission becomes the probe.
func (s *breakerSet) Release(key string) {
	if s.cfg.Threshold < 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if b := s.breakers[key]; b != nil && b.state == breakerHalfOpen {
		b.probing = false
	}
}

// States snapshots every known breaker's state for metrics.
func (s *breakerSet) States() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.breakers))
	for key, b := range s.breakers {
		out[key] = b.state.String()
	}
	return out
}

// OpenCount returns how many breakers are currently shedding load.
func (s *breakerSet) OpenCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, b := range s.breakers {
		if b.state == breakerOpen {
			n++
		}
	}
	return n
}
