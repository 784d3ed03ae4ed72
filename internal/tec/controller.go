package tec

import "fmt"

// Controller implements the prototype's on/off policy: the TEC powers on at
// rated current when the monitored temperature exceeds the threshold and
// powers off once it falls below threshold minus hysteresis. Profiling the
// module offline and always running it at maximum cooling efficiency is
// exactly what the paper's implementation section describes.
type Controller struct {
	device     Device
	thresholdC float64
	hysteresis float64

	on       bool
	onTimeS  float64
	flips    int
	energyJ  float64
	pumpedJ  float64
	lastHeat float64
}

// NewController builds a controller around the device. Threshold is the
// hot-spot trigger (the paper uses 45 degC) and hysteresis the cool-down
// band before switching off.
func NewController(d Device, thresholdC, hysteresisC float64) (*Controller, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if hysteresisC < 0 {
		return nil, fmt.Errorf("tec: negative hysteresis %v", hysteresisC)
	}
	return &Controller{device: d, thresholdC: thresholdC, hysteresis: hysteresisC}, nil
}

// Device returns the controlled module.
func (c *Controller) Device() Device { return c.device }

// On reports whether the TEC is currently powered.
func (c *Controller) On() bool { return c.on }

// Flips returns how many times the TEC changed on/off state.
func (c *Controller) Flips() int { return c.flips }

// OnTimeS returns the cumulative powered time.
func (c *Controller) OnTimeS() float64 { return c.onTimeS }

// EnergyJ returns the cumulative electrical energy consumed.
func (c *Controller) EnergyJ() float64 { return c.energyJ }

// PumpedJ returns the cumulative heat moved off the cold face.
func (c *Controller) PumpedJ() float64 { return c.pumpedJ }

// Output is the thermal/electrical effect of one controller step.
type Output struct {
	On       bool
	CurrentA float64
	// PowerW is the electrical draw the battery must serve.
	PowerW float64
	// CPUCoolingW is the heat removed from the cold-face node.
	CPUCoolingW float64
	// RejectedHeatW is the heat released at the hot face; the simulation
	// injects it into the heat-spreader node.
	RejectedHeatW float64
}

// Condition describes how healthy the module is for one step. The zero
// value (with Derate 0 or 1) is nominal; the fault layer produces degraded
// conditions.
type Condition struct {
	// ForcedOff keeps the TEC unpowered regardless of the threshold
	// decision (supply dropout). The controller's hysteresis state still
	// tracks the temperature, so the module resumes cleanly when power
	// returns.
	ForcedOff bool
	// Derate in (0, 1) scales the heat actually pumped off the cold face
	// (an ageing module); the electrical draw stays at the rated point, so
	// a derated TEC wastes energy — exactly the regime a policy should
	// notice. 0 and 1 both mean nominal.
	Derate float64
}

// Step updates the on/off state from the monitored cold-face temperature
// and returns the TEC's effect over the next dt seconds. hotC is the
// hot-face (body) temperature. It is StepUnder with a nominal condition.
func (c *Controller) Step(coldC, hotC, dt float64) Output {
	return c.StepUnder(coldC, hotC, dt, Condition{})
}

// StepUnder is Step under an explicit health condition.
func (c *Controller) StepUnder(coldC, hotC, dt float64, cond Condition) Output {
	on, out := Advance(&c.device, c.on, c.thresholdC, c.hysteresis, coldC, hotC, cond)
	if on != c.on {
		c.flips++
	}
	c.on = on
	if out.On {
		c.onTimeS += dt
		c.energyJ += out.PowerW * dt
		c.pumpedJ += out.CPUCoolingW * dt
		c.lastHeat = out.CPUCoolingW
	}
	return out
}

// Advance is the pure value form of StepUnder: one hysteresis decision plus
// the device's electro-thermal output, with no accumulators. Batch steppers
// (internal/twin) carry the on flag per twin and call this directly; the
// Controller delegates here, so both paths compute identical outputs. d is
// only read; a pointer keeps the per-step call from copying the device.
func Advance(d *Device, on bool, thresholdC, hysteresisC, coldC, hotC float64, cond Condition) (bool, Output) {
	switch {
	case coldC >= thresholdC:
		on = true
	case coldC < thresholdC-hysteresisC:
		on = false
	}
	if !on || cond.ForcedOff {
		return on, Output{}
	}
	i := d.RatedCurrentA(coldC)
	pumped := d.HeatPumpedW(i, coldC, hotC)
	if pumped < 0 {
		pumped = 0
	}
	if cond.Derate > 0 && cond.Derate < 1 {
		pumped *= cond.Derate
	}
	power := d.PowerW(i, coldC, hotC)
	return on, Output{
		On:            true,
		CurrentA:      i,
		PowerW:        power,
		CPUCoolingW:   pumped,
		RejectedHeatW: pumped + power,
	}
}
