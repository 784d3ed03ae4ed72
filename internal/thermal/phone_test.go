package thermal

import (
	"math"
	"math/rand"
	"testing"
)

// TestPhoneKernelMatchesNetwork is the kernel's differential test: a phone
// stepped by PhoneKernel and by Network.Step from the same randomised
// temperatures under the same randomised heat inputs must agree to the
// last bit on every node temperature and on the CPU and body maxima, step
// after step. The inputs include TEC-cooled (negative) CPU heat and a
// spreader hotter than everything around it, and the ambient boundary
// wanders the way the twin's ambient noise moves it.
func TestPhoneKernelMatchesNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dt := range []float64{0.25, 0.1, 0.07, 1} {
		for trial := 0; trial < 20; trial++ {
			net, err := PhoneNetwork(DefaultPhoneConfig())
			if err != nil {
				t.Fatal(err)
			}
			k, err := net.PhoneKernel(dt)
			if err != nil {
				t.Fatal(err)
			}
			var temps [PhoneNodes]float64
			for nd := range temps {
				temps[nd] = 15 + 40*rng.Float64()
				if err := net.SetTemperature(nd, temps[nd]); err != nil {
					t.Fatal(err)
				}
			}
			if trial%2 == 0 {
				temps[NodeSpreader] = 70 + 10*rng.Float64() // hot TEC exhaust
				net.SetTemperature(NodeSpreader, temps[NodeSpreader])
			}
			maxCPU, maxBody := net.MaxTemperature(NodeCPU), net.MaxTemperature(NodeBody)
			for step := 0; step < 500; step++ {
				in := PhoneInputs{
					CPU:      4*rng.Float64() - 1.5, // negative: TEC pumping
					Battery:  rng.Float64(),
					Body:     2 * rng.Float64(),
					Spreader: 3 * rng.Float64(),
				}
				temps[NodeAmbient] = 25 + 3*rng.NormFloat64()
				net.SetTemperature(NodeAmbient, temps[NodeAmbient])

				maxCPU, maxBody = k.Step(&temps, in, maxCPU, maxBody)
				if err := net.Step([]float64{in.CPU, in.Battery, in.Body, in.Spreader}, dt); err != nil {
					t.Fatal(err)
				}
				for nd := range temps {
					if got, want := temps[nd], net.Temperature(nd); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("dt %v trial %d step %d node %s: kernel %v, network %v",
							dt, trial, step, net.NodeName(nd), got, want)
					}
				}
				if maxCPU != net.MaxTemperature(NodeCPU) || maxBody != net.MaxTemperature(NodeBody) {
					t.Fatalf("dt %v trial %d step %d: kernel maxima cpu %v body %v, network %v %v",
						dt, trial, step, maxCPU, maxBody, net.MaxTemperature(NodeCPU), net.MaxTemperature(NodeBody))
				}
			}
		}
	}
}

// TestPhoneKernelRefusesOtherTopologies: the kernel hard-codes the phone
// network's nodes and link order, so anything else must be refused rather
// than integrated wrongly.
func TestPhoneKernelRefusesOtherTopologies(t *testing.T) {
	if _, err := twoNode(t).PhoneKernel(0.25); err == nil {
		t.Error("two-node network accepted")
	}

	boundaryCPU := DefaultPhoneConfig()
	boundaryCPU.CPUCapacityJK = 0 // CPU becomes a fixed-temperature node
	net, err := PhoneNetwork(boundaryCPU)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.PhoneKernel(0.25); err == nil {
		t.Error("phone network with a boundary CPU node accepted")
	}

	phone, err := PhoneNetwork(DefaultPhoneConfig())
	if err != nil {
		t.Fatal(err)
	}
	nodes := append([]Node(nil), phone.nodes...)
	links := append([]Link(nil), phone.links...)
	links[0], links[1] = links[1], links[0] // same links, other flux order
	swapped, err := NewNetwork(nodes, links)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := swapped.PhoneKernel(0.25); err == nil {
		t.Error("reordered links accepted")
	}
	if _, err := phone.PhoneKernel(0); err == nil {
		t.Error("zero dt accepted")
	}
}
