// Package sim is the discrete-time simulation engine that stands in for
// the paper's physical testbed: it wires a workload generator to the phone
// power models, drains a battery source under a scheduling policy, and
// integrates the thermal network with optional TEC active cooling. One Run
// is one discharge cycle; its Result carries everything the evaluation
// section plots.
package sim

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/battery"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/invariant"
	"repro/internal/mdp"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/tec"
	"repro/internal/thermal"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config describes one simulated discharge cycle.
type Config struct {
	// Profile is the phone under test.
	Profile device.Profile
	// Workload builds a fresh demand generator; Run calls it once so
	// repeated runs (e.g. Oracle tuning) see identical streams.
	Workload func() workload.Generator
	// Policy schedules the battery.
	Policy sched.Policy

	// Pack configures the big.LITTLE pack. Ignored when Single or Source
	// is set.
	Pack battery.PackConfig
	// Single, when non-nil, runs the Practice baseline's single cell.
	Single *battery.Params
	// Source, when non-nil, supplies a pre-built power source; the run
	// continues from its current state (used by multi-cycle runs that
	// recharge a pack in place).
	Source battery.Source

	// Thermal configures the phone's RC network.
	Thermal thermal.PhoneConfig
	// TEC, when non-nil, mounts active cooling on the CPU node.
	TEC            *tec.Device
	TECThresholdC  float64
	TECHysteresisC float64

	// Faults, when non-nil, injects the plan's failure modes into the run:
	// battery-switch stuck-at/latency faults, TEC dropout and derating,
	// sensor noise/staleness/dropout, and transient power spikes. A nil or
	// empty plan reproduces a fault-free run bit-for-bit. Setting Faults
	// also mounts the graceful-degradation guard (see Guard).
	Faults *fault.Plan
	// Guard overrides the degradation guard's thresholds. The guard is
	// mounted whenever Faults or Guard is non-nil; it falls back to a
	// conservative hold-current-battery / no-TEC mode when readings go
	// stale or the switch stops acknowledging, and records every
	// transition in Result.Degradations.
	Guard *sched.GuardConfig

	// Recorder, when non-nil, turns tracing on: the run opens a
	// "sim.run" span, estimates per-phase step cost from a sample of
	// steps, and populates Result.Timing with the phase breakdown and the
	// per-step policy decision-latency histogram. The span also carries
	// the run's breadcrumbs as events: start and end notes, guard
	// degradations, and the first violation of each invariant. When nil,
	// RunContext also looks for a recorder on the context
	// (obs.WithRecorder). Tracing never feeds back into the physics: a
	// traced run's Result is bit-identical to an untraced one apart from
	// the Timing field.
	Recorder *obs.Recorder

	// Metrics, when non-nil, streams instrumentation into external
	// metrics (decision latencies and per-phase wall seconds at run end,
	// guard degradation transitions as they happen) without
	// turning tracing on: Result.Timing stays nil and the Result is
	// bit-identical to an unobserved run. capmand attaches one per job to
	// feed its unified registry.
	Metrics *MetricsSink

	// Invariants, when non-nil, mounts the runtime safety-invariant
	// checker: every step is vetted against the thermal/battery/TEC/switch
	// contracts in internal/invariant, violations stream through
	// Metrics.OnViolation and onto the sim.run span, and the run's summary
	// lands in Result.Invariants. A fatal violation trips the degradation
	// guard (mounted automatically, as with Faults) so the run degrades
	// instead of integrating garbage. The checker observes true physics
	// state only — never fault-corrupted sensor views — and a nil config
	// is bit-identical to an unchecked run at one nil check per step.
	Invariants *invariant.Config

	// DT is the simulation step in seconds (default 0.25).
	DT float64
	// MaxTimeS caps the simulated span (default 1e6 s).
	MaxTimeS float64
	// SampleEveryS records a trace sample at this period; zero disables
	// sampling.
	SampleEveryS float64
	// RecordDemands captures the demand stream for replay.
	RecordDemands bool
}

// withDefaults fills unset knobs.
func (c Config) withDefaults() Config {
	if c.DT == 0 {
		c.DT = 0.25
	}
	if c.MaxTimeS == 0 {
		c.MaxTimeS = 1e6
	}
	if c.TECThresholdC == 0 {
		c.TECThresholdC = thermal.HotSpotThresholdC
	}
	if c.TECHysteresisC == 0 {
		c.TECHysteresisC = 3
	}
	return c
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.Workload == nil:
		return errors.New("sim: nil workload factory")
	case c.Policy == nil:
		return errors.New("sim: nil policy")
	case c.DT < 0 || c.MaxTimeS < 0 || c.SampleEveryS < 0:
		return errors.New("sim: negative time knob")
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return c.Profile.Validate()
}

// EndReason explains why a run stopped.
type EndReason string

// Run outcomes.
const (
	EndExhausted EndReason = "battery exhausted"
	EndCannot    EndReason = "demand unservable"
	EndMaxTime   EndReason = "time limit"
)

// Result is one discharge cycle's outcome.
type Result struct {
	Policy   string
	Workload string
	Phone    string

	ServiceTimeS float64
	EndReason    EndReason
	Steps        int

	EnergyDeliveredJ float64
	EnergyWastedJ    float64
	AvgPowerW        float64
	AvgActivePowerW  float64 // mean power while the device is awake

	MaxCPUTempC   float64
	MaxBodyTempC  float64
	TimeAbove45S  float64
	MeanCPUTempC  float64
	TECEnergyJ    float64
	TECOnTimeS    float64
	TECFlips      int
	Switches      int
	BigActiveS    float64
	LittleActiveS float64

	FinalSoCBig    float64
	FinalSoCLittle float64

	Samples []trace.Sample
	Demands []trace.DemandRecord
	// Signal is the battery-switch control trace (Figure 9); empty for
	// single-cell sources.
	Signal []battery.SignalEdge

	// FaultPlan names the injected fault plan; empty for clean runs.
	FaultPlan string
	// FaultCounts tallies the fault events actually injected.
	FaultCounts fault.Counts
	// Degradations records every guard transition into and out of the
	// conservative fallback mode.
	Degradations []sched.DegradeEvent
	// DegradedTimeS is the simulated time spent in the fallback mode.
	DegradedTimeS float64

	// Timing carries the run's host-side cost breakdown and the policy
	// decision-latency histogram; nil unless tracing was on (see
	// Config.Recorder).
	Timing *Timing `json:",omitempty"`

	// Invariants summarizes safety-contract violations; nil for a clean
	// run or when the checker was off (see Config.Invariants).
	Invariants *invariant.Report `json:",omitempty"`
}

// LittleRatio returns the fraction of active time spent on the LITTLE
// battery (Figure 14's x-axis).
func (r *Result) LittleRatio() float64 {
	tot := r.BigActiveS + r.LittleActiveS
	if tot <= 0 {
		return 0
	}
	return r.LittleActiveS / tot
}

// Run simulates one discharge cycle. It is RunContext with a background
// context — it can never be cancelled mid-run.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext simulates one discharge cycle under a context. Cancellation is
// cooperative at step granularity: the loop checks ctx.Err() once per
// simulated step, so a cancel or deadline aborts within one dt of simulated
// time and the error wraps context.Canceled / context.DeadlineExceeded.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	phone, err := device.NewPhone(cfg.Profile)
	if err != nil {
		return nil, fmt.Errorf("phone: %w", err)
	}
	source := cfg.Source
	if source == nil {
		if cfg.Single != nil {
			source, err = battery.NewSingleSource(*cfg.Single)
		} else {
			source, err = battery.NewPack(cfg.Pack)
		}
		if err != nil {
			return nil, fmt.Errorf("source: %w", err)
		}
	}
	if cfg.Thermal == (thermal.PhoneConfig{}) {
		cfg.Thermal = thermal.DefaultPhoneConfig()
	}
	net, err := thermal.PhoneNetwork(cfg.Thermal)
	if err != nil {
		return nil, fmt.Errorf("thermal: %w", err)
	}
	var cooler *tec.Controller
	if cfg.TEC != nil {
		cooler, err = tec.NewController(*cfg.TEC, cfg.TECThresholdC, cfg.TECHysteresisC)
		if err != nil {
			return nil, fmt.Errorf("tec: %w", err)
		}
	}
	inj, err := fault.NewInjector(cfg.Faults)
	if err != nil {
		return nil, err
	}
	var guard *sched.Guard
	if cfg.Faults != nil || cfg.Guard != nil || cfg.Invariants != nil {
		gc := sched.DefaultGuardConfig()
		if cfg.Guard != nil {
			gc = *cfg.Guard
		}
		guard = sched.NewGuard(gc)
	}
	// The invariant checker needs the chemistry cutoffs and TEC rating to
	// evaluate the electrical contracts; a custom Source hides its cutoff,
	// which simply disables that one contract.
	var checker *invariant.Checker
	var invBigCutoffV, invLittleCutoffV, invTECMaxA float64
	if cfg.Invariants != nil {
		checker = invariant.NewChecker(*cfg.Invariants)
		if cfg.Source == nil {
			if cfg.Single != nil {
				invBigCutoffV = cfg.Single.CutoffV
				invLittleCutoffV = cfg.Single.CutoffV
			} else {
				invBigCutoffV = cfg.Pack.Big.CutoffV
				invLittleCutoffV = cfg.Pack.Little.CutoffV
			}
		}
		if cfg.TEC != nil {
			invTECMaxA = cfg.TEC.MaxCurrentA
		}
	}
	if p, ok := source.(*battery.Pack); ok && inj != nil {
		p.SetSwitchGate(func(now float64, to battery.Selection, forced bool) bool {
			return inj.AllowFlip(now)
		})
		// Multi-cycle runs reuse the pack; don't leak this run's gate.
		defer p.SetSwitchGate(nil)
	}
	gen := cfg.Workload()

	res := &Result{
		Policy:   cfg.Policy.Name(),
		Workload: gen.Name(),
		Phone:    cfg.Profile.Name,
	}

	// Tracing is on when a recorder is reachable — explicitly via the
	// config or ambiently via the context. Off (the default) costs one
	// nil check per instrumentation point and changes nothing else.
	rec := cfg.Recorder
	if rec == nil {
		rec = obs.RecorderFrom(ctx)
	}
	sink := cfg.Metrics
	var timer *stepTimer
	var runSpan *obs.Span
	if rec != nil || sink != nil {
		var ext *obs.Histogram
		if sink != nil {
			ext = sink.DecisionLatency
		}
		timer = newStepTimer(ext)
		defer timer.flush()
	}
	if rec != nil {
		_, runSpan = rec.StartSpan(ctx, "sim.run")
		runSpan.SetAttr("policy", res.Policy)
		runSpan.SetAttr("workload", res.Workload)
		runSpan.SetAttr("phone", res.Phone)
		defer runSpan.End()
	}
	// Degradation transitions stream out as they happen: into the metrics
	// sink and as events on the run span. The Result still gets the full
	// list at run end either way.
	if guard != nil && (runSpan != nil || (sink != nil && sink.OnDegrade != nil)) {
		guard.SetOnEvent(func(ev sched.DegradeEvent) {
			if sink != nil && sink.OnDegrade != nil {
				sink.OnDegrade(ev)
			}
			if runSpan != nil {
				runSpan.Event(obs.EventDegrade, ev.Mode, ev.Detail, map[string]string{
					"at":        fmt.Sprintf("%.1fs", ev.At),
					"recovered": fmt.Sprintf("%t", ev.Recovered),
				})
			}
		})
	}
	// Invariant violations stream the same way: into the metrics sink on
	// every breach, and onto the run span on the first breach per contract
	// so a long-running ceiling excursion cannot flood the bounded ring.
	if checker != nil && (runSpan != nil || (sink != nil && sink.OnViolation != nil)) {
		checker.SetOnViolation(func(v invariant.Violation) {
			if sink != nil && sink.OnViolation != nil {
				sink.OnViolation(v)
			}
			if v.First && runSpan != nil {
				runSpan.Event(obs.EventInvariant, v.Invariant, v.Detail, map[string]string{
					"severity": string(v.Severity),
					"at":       fmt.Sprintf("%.1fs", v.At),
				})
			}
		})
	}
	if runSpan != nil {
		runSpan.Event(obs.EventNote, "sim.run", fmt.Sprintf("start policy=%s workload=%s phone=%s",
			res.Policy, res.Workload, res.Phone), nil)
	}
	// Context-aware policies (CAPMAN's background similarity refresh) get
	// the run context bound for the duration of the run, so cancelling the
	// simulation also aborts a policy-internal precompute.
	if binder, ok := cfg.Policy.(interface{ BindContext(context.Context) }); ok {
		binder.BindContext(ctx)
		defer binder.BindContext(nil)
	}

	logger := obs.Logger(ctx)
	logger.Debug("sim: run start",
		"policy", res.Policy, "workload", res.Workload, "phone", res.Phone,
		"dt", cfg.DT, "maxTimeS", cfg.MaxTimeS)

	dt := cfg.DT
	now := 0.0
	nextSample := 0.0
	var tempAccum, awakeEnergyJ, awakeS float64
	// Switch-acknowledgement tracking for the Health view: how many
	// consecutive flip requests went unacknowledged, and when the switch
	// last acked one.
	switchUnacked := 0
	lastAckAt := 0.0
	// pending carries the previous step's transition until its successor
	// state is known at the next tick.
	var pending struct {
		ctx     sched.Context
		applied battery.Selection
		reward  float64
		valid   bool
	}
	// Heat-input vector for the thermal step, hoisted out of the loop so the
	// hot path stays allocation-free. Indexed by thermal node; the ambient
	// node (beyond NodeSpreader) takes no input.
	inputs := make([]float64, thermal.NodeSpreader+1)

	for now < cfg.MaxTimeS {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sim: aborted at t=%.1fs: %w", now, err)
		}
		timer.step()
		t0 := timer.begin()
		step := gen.Next(now, dt)
		if cfg.RecordDemands {
			res.Demands = append(res.Demands, trace.DemandRecord{
				At: now, Demand: step.Demand, Action: int(step.Action),
			})
		}
		if err := phone.Apply(step.Demand); err != nil {
			return nil, fmt.Errorf("t=%.1f apply demand: %w", now, err)
		}
		timer.lap(phaseWorkload, t0)

		t0 = timer.begin()
		cpuTemp := net.Temperature(thermal.NodeCPU)
		bodyTemp := net.Temperature(thermal.NodeBody)
		battTemp := net.Temperature(thermal.NodeBattery)
		spreaderTemp := net.Temperature(thermal.NodeSpreader)
		timer.lap(phaseThermal, t0)
		if sink != nil && sink.ZoneTemps != nil {
			sink.ZoneTemps(cpuTemp, bodyTemp, battTemp, spreaderTemp)
		}

		// Sensing faults corrupt what the controller and policy observe;
		// the physics below keeps integrating the true temperatures.
		obsCPUTemp, tempStaleS := cpuTemp, 0.0
		if inj != nil {
			obsCPUTemp, tempStaleS = inj.Temperature(now, cpuTemp)
		}

		var tecOut tec.Output
		var cond tec.Condition
		if cooler != nil {
			t0 = timer.begin()
			if inj != nil {
				cond.ForcedOff, cond.Derate = inj.TECCondition(now)
			}
			if guard != nil && !guard.TECAllowed() {
				cond.ForcedOff = true
			}
			tecOut = cooler.StepUnder(obsCPUTemp, spreaderTemp, dt, cond)
			timer.lap(phaseTEC, t0)
		}
		t0 = timer.begin()
		breakdown := phone.Power()
		demandW := breakdown.Total() + tecOut.PowerW
		if inj != nil {
			if spike := inj.SpikeW(now); spike > 0 {
				demandW += spike
			}
		}
		timer.lap(phaseWorkload, t0)

		t0 = timer.begin()
		bigState := source.CellState(battery.SelectBig)
		littleState := source.CellState(battery.SelectLittle)
		// The checker vets the true cell states; sensor faults below only
		// corrupt the copies the policy observes.
		trueBig, trueLittle := bigState, littleState
		socStaleS := 0.0
		if inj != nil {
			var sb, sl float64
			bigState.SoC, sb = inj.SoCBig(now, bigState.SoC)
			littleState.SoC, sl = inj.SoCLittle(now, littleState.SoC)
			socStaleS = sb
			if sl > socStaleS {
				socStaleS = sl
			}
		}
		timer.lap(phaseBattery, t0)

		ctx := sched.Context{
			Now: now,
			DT:  dt,
			State: mdp.StateVec{
				CPU:     phone.CPU(),
				Freq:    phone.FreqIndex(),
				Screen:  phone.Screen(),
				WiFi:    phone.WiFi(),
				TECOn:   tecOut.On,
				Battery: source.Active(),
			},
			Event:       step.Action,
			DemandW:     demandW,
			Utilization: phone.Utilization(),
			CPUTempC:    obsCPUTemp,
			BodyTempC:   bodyTemp,
			Big:         bigState,
			Little:      littleState,
			CanBig:      source.CanSupplyCell(battery.SelectBig, demandW, battTemp),
			CanLittle:   source.CanSupplyCell(battery.SelectLittle, demandW, battTemp),
			Health: sched.Health{
				TempStaleS:        tempStaleS,
				SoCStaleS:         socStaleS,
				SwitchUnacked:     switchUnacked,
				LastSwitchAckAgeS: now - lastAckAt,
			},
		}
		// Close the previous transition now that its successor state is
		// known.
		t0 = timer.begin()
		if pending.valid {
			cfg.Policy.Observe(pending.ctx, pending.applied, ctx.State, pending.reward)
		}

		tDec := timer.beginDecision()
		dec := cfg.Policy.Decide(ctx)
		timer.lapDecision(tDec)
		if guard != nil {
			dec = guard.Review(ctx, dec)
		}
		timer.lap(phasePolicy, t0)
		t0 = timer.begin()
		wantFlip := dec.Battery != ctx.State.Battery &&
			(dec.Battery == battery.SelectBig || dec.Battery == battery.SelectLittle)
		if source.Select(dec.Battery) {
			switchUnacked = 0
			lastAckAt = now
		} else if wantFlip {
			switchUnacked++
		}

		stepRes, err := source.Step(demandW, battTemp, dt)
		timer.lap(phaseBattery, t0)
		if err != nil {
			if errors.Is(err, battery.ErrExhausted) || errors.Is(err, battery.ErrDepleted) {
				res.EndReason = EndExhausted
			} else if errors.Is(err, battery.ErrCannotSupply) {
				res.EndReason = EndCannot
			} else {
				return nil, fmt.Errorf("t=%.1f source: %w", now, err)
			}
			break
		}

		// Thermal integration: CPU heat minus TEC pumping on the hot
		// spot, screen/WiFi into the body, battery losses at the
		// battery node, TEC rejection at the spreader.
		t0 = timer.begin()
		cpuHeat, bodyHeat := phone.HeatSplit()
		inputs[thermal.NodeCPU] = cpuHeat - tecOut.CPUCoolingW
		inputs[thermal.NodeBattery] = stepRes.HeatW
		inputs[thermal.NodeBody] = bodyHeat
		inputs[thermal.NodeSpreader] = tecOut.RejectedHeatW
		if err := net.Step(inputs, dt); err != nil {
			return nil, fmt.Errorf("t=%.1f thermal: %w", now, err)
		}
		timer.lap(phaseThermal, t0)

		// Safety contracts, evaluated on true physics state only. A fatal
		// violation latches the guard into its invariant mode, so from the
		// next review on the run holds the current battery with the TEC
		// off instead of integrating a state the contracts disown.
		if checker != nil {
			degraded := false
			if guard != nil {
				degraded, _ = guard.Degraded()
			}
			activeCutoffV := invBigCutoffV
			if stepRes.Active == battery.SelectLittle {
				activeCutoffV = invLittleCutoffV
			}
			checker.CheckSim(invariant.SimStep{
				Now:  now,
				DT:   dt,
				Step: res.Steps,

				CPUTempC:     cpuTemp,
				BatteryTempC: battTemp,
				BodyTempC:    bodyTemp,

				BigSoC:         trueBig.SoC,
				BigAvailSoC:    trueBig.AvailSoC,
				LittleSoC:      trueLittle.SoC,
				LittleAvailSoC: trueLittle.AvailSoC,

				StepOK:         true,
				ActivePowerW:   demandW,
				ActiveVoltageV: stepRes.Cell.Voltage,
				ActiveCutoffV:  activeCutoffV,

				TECPowerW:      tecOut.PowerW,
				TECCoolingW:    tecOut.CPUCoolingW,
				TECCurrentA:    tecOut.CurrentA,
				TECMaxCurrentA: invTECMaxA,
				TECForcedOff:   cond.ForcedOff,

				Degraded:        degraded,
				DecisionBattery: dec.Battery,
				ActiveBattery:   ctx.State.Battery,
			})
			if v, fatal := checker.FatalViolation(); fatal && guard != nil {
				guard.Trip(now, v.Detail)
			}
		}

		// Reward: step energy efficiency in [0, 1].
		useful := demandW * dt
		waste := stepRes.HeatW * dt
		reward := 1.0
		if useful+waste > 0 {
			reward = useful / (useful + waste)
		}
		pending.ctx = ctx
		pending.applied = stepRes.Active
		pending.reward = reward
		pending.valid = true

		// Accounting.
		res.Steps++
		res.EnergyDeliveredJ += useful
		res.EnergyWastedJ += waste
		tempAccum += cpuTemp * dt
		if cpuTemp >= thermal.HotSpotThresholdC {
			res.TimeAbove45S += dt
		}
		if demandW > 0.3 { // awake threshold: above deep-idle floor
			awakeEnergyJ += demandW * dt
			awakeS += dt
		}

		now += dt
		if cfg.SampleEveryS > 0 && now >= nextSample {
			nextSample = now + cfg.SampleEveryS
			res.Samples = append(res.Samples, trace.Sample{
				At:        now,
				PowerW:    demandW,
				TECW:      tecOut.PowerW,
				VoltageV:  stepRes.Cell.Voltage,
				CurrentA:  stepRes.Cell.Current,
				CPUTempC:  net.Temperature(thermal.NodeCPU),
				BodyTempC: net.Temperature(thermal.NodeBody),
				Battery:   stepRes.Active.String(),
				SoCBig:    source.CellState(battery.SelectBig).SoC,
				SoCLittle: source.CellState(battery.SelectLittle).SoC,
			})
		}
	}

	if res.EndReason == "" {
		res.EndReason = EndMaxTime
	}
	res.ServiceTimeS = now
	if now > 0 {
		res.AvgPowerW = res.EnergyDeliveredJ / now
		res.MeanCPUTempC = tempAccum / now
	}
	if awakeS > 0 {
		res.AvgActivePowerW = awakeEnergyJ / awakeS
	}
	res.MaxCPUTempC = net.MaxTemperature(thermal.NodeCPU)
	res.MaxBodyTempC = net.MaxTemperature(thermal.NodeBody)
	if cooler != nil {
		res.TECEnergyJ = cooler.EnergyJ()
		res.TECOnTimeS = cooler.OnTimeS()
		res.TECFlips = cooler.Flips()
	}
	res.Switches = source.Switches()
	res.BigActiveS, res.LittleActiveS = source.ActiveTime()
	if p, ok := source.(*battery.Pack); ok {
		res.Signal = p.Signal()
	}
	res.FinalSoCBig = source.CellState(battery.SelectBig).SoC
	res.FinalSoCLittle = source.CellState(battery.SelectLittle).SoC
	if inj != nil {
		res.FaultPlan = inj.Plan().Name
		res.FaultCounts = inj.Counts()
	}
	if guard != nil {
		if evs := guard.Events(); len(evs) > 0 {
			res.Degradations = evs
		}
		res.DegradedTimeS = guard.DegradedTimeS()
	}
	if checker != nil {
		res.Invariants = checker.Report()
	}
	if timer != nil && rec != nil {
		res.Timing = timer.timing()
		timer.annotate(runSpan, res.Steps)
		runSpan.SetAttr("steps", res.Steps)
		runSpan.SetAttr("endReason", string(res.EndReason))
		runSpan.SetAttr("serviceTimeS", res.ServiceTimeS)
		runSpan.Event(obs.EventNote, "sim.run", fmt.Sprintf("end reason=%q steps=%d serviceTimeS=%.0f degradations=%d",
			string(res.EndReason), res.Steps, res.ServiceTimeS, len(res.Degradations)), nil)
	}
	if timer != nil && sink != nil && sink.PhaseSeconds != nil {
		timer.reportPhases(sink.PhaseSeconds)
	}
	logger.Debug("sim: run end",
		"policy", res.Policy, "end", string(res.EndReason),
		"steps", res.Steps, "serviceTimeS", res.ServiceTimeS)
	return res, nil
}
