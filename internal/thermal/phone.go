package thermal

import (
	"errors"
	"fmt"
)

// Phone node indices for networks built by PhoneNetwork.
const (
	NodeCPU = iota
	NodeBattery
	NodeBody
	NodeSpreader
	NodeAmbient
	// PhoneNodes is the node count of the phone network.
	PhoneNodes
)

// phoneLinks is the phone network's link list in integration order; the
// link order fixes the flux summation order, so PhoneNetwork and
// PhoneKernel both follow this one table.
var phoneLinks = [...][2]int{
	{NodeCPU, NodeBody},
	{NodeBattery, NodeBody},
	{NodeBody, NodeAmbient},
	{NodeCPU, NodeBattery},
	{NodeSpreader, NodeAmbient},
	{NodeSpreader, NodeBody},
}

// PhoneConfig sizes the standard five-node phone network of Figure 6 (top):
// the CPU hot spot, the battery, the body/back-cover (which includes the
// passive cooling plate), the TEC hot-face heat spreader, and the ambient
// boundary.
type PhoneConfig struct {
	AmbientC float64

	CPUCapacityJK      float64
	BatteryCapacityJK  float64
	BodyCapacityJK     float64
	SpreaderCapacityJK float64

	RCPUBody         float64 // CPU -> body spreading resistance
	RBatteryBody     float64
	RBodyAmbient     float64 // body -> air, includes the passive cooling plate
	RCPUBattery      float64 // direct coupling: the battery sits near the SoC
	RSpreaderAmbient float64 // TEC hot-face exhaust path
	RSpreaderBody    float64 // weak parasitic coupling back into the body
}

// DefaultPhoneConfig returns constants calibrated so that a sustained
// ~2.3 W system load (the paper's peak active power) drives the CPU node
// past the 45 degC hot-spot threshold at a 25 degC ambient, while light
// loads (~0.5 W) stay well below it.
func DefaultPhoneConfig() PhoneConfig {
	return PhoneConfig{
		AmbientC:           25,
		CPUCapacityJK:      2.5,
		BatteryCapacityJK:  45,
		BodyCapacityJK:     110,
		SpreaderCapacityJK: 8,
		RCPUBody:           13.0,
		RBatteryBody:       4.0,
		RBodyAmbient:       11.0,
		RCPUBattery:        14.0,
		RSpreaderAmbient:   3.0,
		RSpreaderBody:      20.0,
	}
}

// PhoneNetwork builds the standard phone network.
func PhoneNetwork(cfg PhoneConfig) (*Network, error) {
	nodes := make([]Node, PhoneNodes)
	nodes[NodeCPU] = Node{Name: "cpu", CapacityJK: cfg.CPUCapacityJK, InitialC: cfg.AmbientC}
	nodes[NodeBattery] = Node{Name: "battery", CapacityJK: cfg.BatteryCapacityJK, InitialC: cfg.AmbientC}
	nodes[NodeBody] = Node{Name: "body", CapacityJK: cfg.BodyCapacityJK, InitialC: cfg.AmbientC}
	nodes[NodeSpreader] = Node{Name: "spreader", CapacityJK: cfg.SpreaderCapacityJK, InitialC: cfg.AmbientC}
	nodes[NodeAmbient] = Node{Name: "ambient", CapacityJK: 0, InitialC: cfg.AmbientC}
	r := [len(phoneLinks)]float64{
		cfg.RCPUBody, cfg.RBatteryBody, cfg.RBodyAmbient,
		cfg.RCPUBattery, cfg.RSpreaderAmbient, cfg.RSpreaderBody,
	}
	links := make([]Link, len(phoneLinks))
	for i, ab := range phoneLinks {
		links[i] = Link{A: ab[0], B: ab[1], RKW: r[i]}
	}
	return NewNetwork(nodes, links)
}

// PhoneKernel is Network.Step specialised to the phone topology at one
// fixed dt, for batch steppers (internal/twin) that integrate thousands of
// phones: the node temperatures and fluxes live in locals for the whole
// step instead of in slices. It computes exactly what Network.Step does —
// the same substep split, the same link order (so the same flux summation
// order) and the same flux*h/C rounding — so a phone stepped by either is
// bit-identical (TestPhoneKernelMatchesNetwork).
type PhoneKernel struct {
	steps int
	h     float64
	r     [len(phoneLinks)]float64 // link resistances, phoneLinks order
	c     [NodeAmbient]float64     // heat capacities of the integrated nodes
}

// PhoneInputs is one step's heat input per integrated node, in watts
// (positive heats the node; a TEC-cooled CPU may be negative).
type PhoneInputs struct {
	CPU, Battery, Body, Spreader float64
}

// errNotPhone reports a network PhoneKernel cannot integrate.
var errNotPhone = errors.New("thermal: network does not have the phone topology")

// PhoneKernel compiles n for steps of dt seconds. It fails unless n has
// exactly PhoneNetwork's topology: its five nodes in order, CPU, battery,
// body and spreader with positive heat capacity and ambient as the only
// boundary node, and its six links in order. The kernel copies what it
// needs; later changes to n do not reach it.
func (n *Network) PhoneKernel(dt float64) (PhoneKernel, error) {
	if dt <= 0 {
		return PhoneKernel{}, fmt.Errorf("thermal: non-positive dt %v", dt)
	}
	if len(n.nodes) != PhoneNodes || len(n.links) != len(phoneLinks) {
		return PhoneKernel{}, fmt.Errorf("%w: %d nodes, %d links", errNotPhone, len(n.nodes), len(n.links))
	}
	var k PhoneKernel
	for i, node := range n.nodes {
		if boundary := node.CapacityJK <= 0; boundary != (i == NodeAmbient) {
			return PhoneKernel{}, fmt.Errorf("%w: node %d (%s) capacity %v", errNotPhone, i, node.Name, node.CapacityJK)
		}
		if i != NodeAmbient {
			k.c[i] = node.CapacityJK
		}
	}
	for i, l := range n.links {
		if l.A != phoneLinks[i][0] || l.B != phoneLinks[i][1] {
			return PhoneKernel{}, fmt.Errorf("%w: link %d connects %d-%d", errNotPhone, i, l.A, l.B)
		}
		k.r[i] = l.RKW
	}
	k.steps, k.h = substeps(dt)
	return k, nil
}

// Step advances one phone's node temperatures t (indexed by the Node*
// constants; t[NodeAmbient] is the boundary and only read) by the kernel's
// dt under the heat inputs in. maxCPU and maxBody are the running maxima of
// the CPU and body nodes; Step returns them raised by every substep, as
// Network.MaxTemperature tracks them.
func (k *PhoneKernel) Step(t *[PhoneNodes]float64, in PhoneInputs, maxCPU, maxBody float64) (float64, float64) {
	cpu, batt, body, spr, amb := t[NodeCPU], t[NodeBattery], t[NodeBody], t[NodeSpreader], t[NodeAmbient]
	for s := 0; s < k.steps; s++ {
		// One flux per link, phoneLinks order; each node's flux sums its
		// input and link terms in the order Network.Step visits them.
		q0 := (cpu - body) / k.r[0]
		q1 := (batt - body) / k.r[1]
		q2 := (body - amb) / k.r[2]
		q3 := (cpu - batt) / k.r[3]
		q4 := (spr - amb) / k.r[4]
		q5 := (spr - body) / k.r[5]
		fCPU := in.CPU - q0 - q3
		fBatt := in.Battery - q1 + q3
		fBody := in.Body + q0 + q1 - q2 + q5
		fSpr := in.Spreader - q4 - q5
		cpu += fCPU * k.h / k.c[NodeCPU]
		batt += fBatt * k.h / k.c[NodeBattery]
		body += fBody * k.h / k.c[NodeBody]
		spr += fSpr * k.h / k.c[NodeSpreader]
		if cpu > maxCPU {
			maxCPU = cpu
		}
		if body > maxBody {
			maxBody = body
		}
	}
	t[NodeCPU], t[NodeBattery], t[NodeBody], t[NodeSpreader] = cpu, batt, body, spr
	return maxCPU, maxBody
}

// HotSpotThresholdC is the surface temperature the paper treats as a hot
// spot requiring active cooling (Wienert et al.'s 45 degC skin limit).
const HotSpotThresholdC = 45.0

// IsHotSpot reports whether the temperature crosses the hot-spot threshold.
func IsHotSpot(tempC float64) bool { return tempC >= HotSpotThresholdC }
