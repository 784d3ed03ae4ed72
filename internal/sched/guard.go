package sched

import "fmt"

// Health is the scheduler's view of how trustworthy its inputs are. The
// simulation fills it from the fault layer each step; on a healthy testbed
// it is all zeros/acks and the guard never intervenes.
type Health struct {
	// TempStaleS is the age of the temperature reading in seconds
	// (0 = fresh).
	TempStaleS float64
	// SoCStaleS is the age of the fuel-gauge reading in seconds.
	SoCStaleS float64
	// SwitchUnacked counts consecutive battery-flip requests the switch
	// facility did not acknowledge; it resets to zero on every ack.
	SwitchUnacked int
	// LastSwitchAckAgeS is the time since the last acknowledged flip, or
	// since the run began if none happened yet.
	LastSwitchAckAgeS float64
}

// Degradation modes the guard can enter.
const (
	DegradeStaleSensors = "stale-sensors"
	DegradeStuckSwitch  = "stuck-switch"
	// DegradeInvariant is the latched mode entered via Trip when a fatal
	// safety-invariant violation shows the physics or scheduler state can
	// no longer be trusted. Unlike the sensor/switch modes it never
	// recovers: a broken contract does not heal when the inputs look fresh
	// again.
	DegradeInvariant = "invariant"
)

// DegradeEvent records one graceful-degradation transition: the guard
// entering a conservative mode, or recovering from it.
type DegradeEvent struct {
	// At is the simulated time of the transition.
	At float64 `json:"at"`
	// Mode is DegradeStaleSensors, DegradeStuckSwitch, or DegradeInvariant.
	Mode string `json:"mode"`
	// Recovered is false on entry and true when the guard leaves the mode.
	Recovered bool `json:"recovered,omitempty"`
	// Detail explains the trigger for humans.
	Detail string `json:"detail,omitempty"`
}

// GuardConfig tunes when the guard declares an input untrustworthy.
type GuardConfig struct {
	// MaxSensorStaleS is the reading age beyond which the guard degrades
	// (default 20 s).
	MaxSensorStaleS float64
	// MaxSwitchUnacked is how many consecutive unacknowledged flip
	// requests declare the switch stuck (default 8).
	MaxSwitchUnacked int
}

// DefaultGuardConfig returns the calibrated defaults.
func DefaultGuardConfig() GuardConfig {
	return GuardConfig{MaxSensorStaleS: 20, MaxSwitchUnacked: 8}
}

func (c GuardConfig) withDefaults() GuardConfig {
	if c.MaxSensorStaleS <= 0 {
		c.MaxSensorStaleS = 20
	}
	if c.MaxSwitchUnacked <= 0 {
		c.MaxSwitchUnacked = 8
	}
	return c
}

// Guard wraps any Policy's decisions with graceful degradation. When the
// Health view shows stale sensors or an unresponsive switch, the guard
// overrides the policy with the conservative fallback the prototype's
// firmware would use — hold the currently active battery (single-battery
// mode) and keep the TEC off (its 45 degC gate cannot be trusted on stale
// readings) — and records the transition so the run's Result can quantify
// the cost. It recovers as soon as the inputs look healthy again.
//
// The guard is deliberately not a Policy: the wrapped policy still sees
// every context and observation, so a learning policy keeps learning while
// the guard vetoes its actuation.
type Guard struct {
	cfg GuardConfig

	mode          string // "" = healthy
	degradedSince float64
	degradedS     float64
	lastReviewAt  float64
	events        []DegradeEvent
	onEvent       func(DegradeEvent)

	// tripped latches the invariant mode; once set, diagnose never reports
	// healthy again.
	tripped    bool
	tripDetail string
}

// NewGuard builds a guard; zero-value config fields take defaults.
func NewGuard(cfg GuardConfig) *Guard {
	return &Guard{cfg: cfg.withDefaults()}
}

// Degraded reports whether the guard is currently overriding the policy,
// and in which mode.
func (g *Guard) Degraded() (bool, string) { return g.mode != "", g.mode }

// TECAllowed reports whether the guard permits active cooling; false while
// degraded.
func (g *Guard) TECAllowed() bool { return g.mode == "" }

// DegradedTimeS returns the cumulative simulated seconds spent degraded.
func (g *Guard) DegradedTimeS() float64 { return g.degradedS }

// SetOnEvent registers a hook invoked synchronously for every degradation
// transition (entries and recoveries), in addition to the Events record.
// The simulation uses it to stream transitions into the metrics registry
// and onto the run's span while the run is still in progress. A nil fn
// clears the hook.
func (g *Guard) SetOnEvent(fn func(DegradeEvent)) { g.onEvent = fn }

// record appends a transition and fires the hook.
func (g *Guard) record(ev DegradeEvent) {
	g.events = append(g.events, ev)
	if g.onEvent != nil {
		g.onEvent(ev)
	}
}

// Events returns a copy of the recorded degradation transitions.
func (g *Guard) Events() []DegradeEvent {
	out := make([]DegradeEvent, len(g.events))
	copy(out, g.events)
	return out
}

// Trip latches the guard into the invariant degradation mode: a fatal
// safety-contract violation means the simulated state itself is suspect, so
// the guard holds the current battery and keeps the TEC off for the rest of
// the run. The transition is recorded immediately (superseding any active
// mode) and is permanent — diagnose reports it ahead of every health-driven
// mode and never clears it. Tripping twice is a no-op.
func (g *Guard) Trip(at float64, detail string) {
	if g.tripped {
		return
	}
	g.tripped = true
	g.tripDetail = detail
	if g.mode == DegradeInvariant {
		return
	}
	if g.mode != "" {
		g.record(DegradeEvent{
			At: at, Mode: g.mode, Recovered: true,
			Detail: "superseded by invariant trip",
		})
	} else {
		g.degradedSince = at
	}
	g.mode = DegradeInvariant
	g.record(DegradeEvent{At: at, Mode: DegradeInvariant, Detail: detail})
}

// Review vets one decision against the health view. It returns the
// decision to actually apply: the policy's own when healthy, or the
// conservative hold-current-battery fallback while degraded.
func (g *Guard) Review(ctx Context, dec Decision) Decision {
	if g.mode != "" {
		g.degradedS += ctx.Now - g.lastReviewAt
	}
	g.lastReviewAt = ctx.Now

	mode, detail := g.diagnose(ctx.Health)
	if mode != g.mode {
		if g.mode != "" {
			g.record(DegradeEvent{
				At: ctx.Now, Mode: g.mode, Recovered: true,
				Detail: fmt.Sprintf("inputs healthy after %.0fs", ctx.Now-g.degradedSince),
			})
		}
		if mode != "" {
			g.degradedSince = ctx.Now
			g.record(DegradeEvent{At: ctx.Now, Mode: mode, Detail: detail})
		}
		g.mode = mode
	}
	if g.mode == "" {
		return dec
	}
	// Conservative single-battery mode: stay on whatever cell served the
	// previous step instead of trusting stale readings or a dead switch.
	return Decision{Battery: ctx.State.Battery}
}

// diagnose maps a health view onto a degradation mode ("" = healthy).
// Switch trouble wins over sensor trouble: a stuck actuator invalidates
// any decision, fresh readings or not.
func (g *Guard) diagnose(h Health) (mode, detail string) {
	if g.tripped {
		return DegradeInvariant, g.tripDetail
	}
	if h.SwitchUnacked >= g.cfg.MaxSwitchUnacked {
		return DegradeStuckSwitch,
			fmt.Sprintf("%d consecutive flips unacknowledged (last ack %.0fs ago)",
				h.SwitchUnacked, h.LastSwitchAckAgeS)
	}
	if h.TempStaleS > g.cfg.MaxSensorStaleS || h.SoCStaleS > g.cfg.MaxSensorStaleS {
		return DegradeStaleSensors,
			fmt.Sprintf("temp reading %.0fs old, SoC reading %.0fs old (limit %.0fs)",
				h.TempStaleS, h.SoCStaleS, g.cfg.MaxSensorStaleS)
	}
	return "", ""
}
