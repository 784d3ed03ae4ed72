package battery

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func newTestCell(t *testing.T, chem Chemistry) *Cell {
	t.Helper()
	c, err := NewCell(MustParams(chem, 2500))
	if err != nil {
		t.Fatalf("NewCell(%v): %v", chem, err)
	}
	return c
}

func TestNewCellInvalid(t *testing.T) {
	if _, err := NewCell(Params{}); err == nil {
		t.Fatal("expected error for zero params")
	}
}

func TestNewCellFull(t *testing.T) {
	c := newTestCell(t, NCA)
	if got := c.SoC(); math.Abs(got-1) > 1e-9 {
		t.Errorf("fresh cell SoC = %v, want 1", got)
	}
	if c.Depleted() {
		t.Error("fresh cell reports depleted")
	}
	if v := c.Voltage(); math.Abs(v-4.20) > 1e-9 {
		t.Errorf("fresh open-circuit voltage = %v", v)
	}
}

func TestStepArgumentValidation(t *testing.T) {
	c := newTestCell(t, NCA)
	if _, err := c.Step(1, 25, 0); err == nil {
		t.Error("zero dt accepted")
	}
	if _, err := c.Step(-1, 25, 1); err == nil {
		t.Error("negative power accepted")
	}
}

// TestDischargeMonotone: under load, SoC decreases and terminal voltage
// stays between cutoff and open-circuit.
func TestDischargeMonotone(t *testing.T) {
	c := newTestCell(t, NCA)
	prev := c.SoC()
	for i := 0; i < 1000; i++ {
		res, err := c.Step(1.5, 25, 1)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		soc := c.SoC()
		if soc > prev+1e-12 {
			t.Fatalf("SoC increased under load: %v -> %v", prev, soc)
		}
		if res.Voltage < c.params.CutoffV-1e-9 {
			t.Fatalf("voltage %v below cutoff", res.Voltage)
		}
		if res.Voltage > 4.2+1e-9 {
			t.Fatalf("voltage %v above full OCV", res.Voltage)
		}
		if res.Current <= 0 {
			t.Fatalf("no current under load")
		}
		prev = soc
	}
}

// TestEnergyConservation: drawn energy plus internal losses cannot exceed
// rated energy; delivered energy is positive and bounded.
func TestEnergyConservation(t *testing.T) {
	c := newTestCell(t, LMO)
	for {
		if _, err := c.Step(2.0, 25, 1); err != nil {
			break
		}
	}
	rated := c.params.RatedEnergyJ()
	if c.DrawnJ() <= 0 {
		t.Fatal("no energy delivered")
	}
	if c.DrawnJ() > rated {
		t.Errorf("delivered %vJ exceeds rated %vJ", c.DrawnJ(), rated)
	}
	if c.WastedJ() < 0 {
		t.Errorf("negative waste %v", c.WastedJ())
	}
}

// TestRecoveryEffect: after a heavy burst empties the available well,
// resting recovers deliverable charge (KiBaM).
func TestRecoveryEffect(t *testing.T) {
	c := newTestCell(t, NCA) // low KRate: strands charge under bursts
	// Drain hard until the available well runs low.
	for i := 0; i < 100000; i++ {
		if _, err := c.Step(8, 25, 1); err != nil {
			break
		}
	}
	if c.Depleted() {
		t.Fatal("cell fully depleted; burst should strand charge instead")
	}
	availBefore := c.AvailableSoC()
	// Rest an hour.
	for i := 0; i < 3600; i++ {
		if err := c.Rest(25, 1); err != nil {
			t.Fatalf("rest: %v", err)
		}
	}
	availAfter := c.AvailableSoC()
	if availAfter <= availBefore {
		t.Errorf("no recovery: available %v -> %v", availBefore, availAfter)
	}
}

// TestRateCapacityEffect: the same cell delivers less total energy at a
// surge rate than at a gentle rate (for a big chemistry).
func TestRateCapacityEffect(t *testing.T) {
	drain := func(powerW float64) float64 {
		c := newTestCell(t, NCA)
		for {
			if _, err := c.Step(powerW, 25, 1); err != nil {
				break
			}
		}
		return c.DrawnJ()
	}
	gentle := drain(1.0) // ~0.27A, below the knee
	surge := drain(4.5)  // ~1.25A, well above the knee
	if surge >= gentle*0.85 {
		t.Errorf("rate-capacity effect missing: gentle %vJ, surge %vJ", gentle, surge)
	}
}

// TestLittleRateInsensitive: the LITTLE chemistry delivers nearly the same
// energy across rates.
func TestLittleRateInsensitive(t *testing.T) {
	drain := func(powerW float64) float64 {
		c := newTestCell(t, LMO)
		for {
			if _, err := c.Step(powerW, 25, 1); err != nil {
				break
			}
		}
		return c.DrawnJ()
	}
	gentle := drain(1.0)
	surge := drain(4.5)
	if surge < gentle*0.9 {
		t.Errorf("LITTLE cell too rate-sensitive: gentle %vJ, surge %vJ", gentle, surge)
	}
}

func TestDepletedCellRefusesLoad(t *testing.T) {
	p := MustParams(LMO, 10) // tiny cell dies fast
	c, err := NewCell(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if _, err := c.Step(2, 25, 1); err != nil {
			break
		}
	}
	// Drain to true depletion (rest steps drain parasitics but the well
	// may retain a little; force the flag by stepping at tiny power).
	for i := 0; i < 100000 && !c.Depleted(); i++ {
		if _, err := c.Step(0.05, 25, 10); err != nil {
			break
		}
	}
	if !c.Depleted() {
		t.Skip("cell did not fully deplete; depletion flag path covered elsewhere")
	}
	if _, err := c.Step(1, 25, 1); !errors.Is(err, ErrDepleted) {
		t.Errorf("depleted cell error = %v, want ErrDepleted", err)
	}
	if err := c.Rest(25, 1); err != nil {
		t.Errorf("depleted cell should rest without error: %v", err)
	}
}

func TestCannotSupplyExcessPower(t *testing.T) {
	c := newTestCell(t, NCA)
	// Peak power is bounded by OCV^2/(4 R0) ~ 36W.
	if _, err := c.Step(500, 25, 1); !errors.Is(err, ErrCannotSupply) {
		t.Errorf("error = %v, want ErrCannotSupply", err)
	}
	if c.CanSupply(500, 25) {
		t.Error("CanSupply(500W) = true")
	}
	if !c.CanSupply(2, 25) {
		t.Error("CanSupply(2W) = false on a full cell")
	}
	if !c.CanSupply(0, 25) {
		t.Error("CanSupply(0) must always hold")
	}
}

// TestCanSupplyAllocFree: CanSupply is a feasibility predicate the
// schedulers probe every step, so neither a feasible nor an infeasible
// answer may allocate — an infeasible one maps the step outcome straight to
// false instead of formatting the error Step would report.
func TestCanSupplyAllocFree(t *testing.T) {
	c := newTestCell(t, NCA)
	for _, tc := range []struct {
		name   string
		powerW float64
		want   bool
	}{
		{"feasible", 2, true},
		{"over peak power", 500, false}, // StepOverPeak
		{"below cutoff", 35, false},     // StepBelowCutoff
	} {
		if got := c.CanSupply(tc.powerW, 25); got != tc.want {
			t.Fatalf("%s: CanSupply(%vW) = %t, want %t", tc.name, tc.powerW, got, tc.want)
		}
		if allocs := testing.AllocsPerRun(100, func() { c.CanSupply(tc.powerW, 25) }); allocs != 0 {
			t.Errorf("%s: CanSupply allocates %v/op, want 0", tc.name, allocs)
		}
	}
}

// TestVEdgeShape: a load step produces the V-edge of Figure 3 — an
// immediate drop, a transient minimum at/after the step, and partial
// settling above the minimum.
func TestVEdgeShape(t *testing.T) {
	for _, chem := range []Chemistry{NCA, LMO} {
		p := MustParams(chem, 2500)
		traceV, idx, err := StepResponse(p, 0.1, 2.5, 10, 120, 0.1)
		if err != nil {
			t.Fatalf("%v: %v", chem, err)
		}
		edge, err := AnalyzeVEdge(traceV, idx, 0.1)
		if err != nil {
			t.Fatalf("%v analyse: %v", chem, err)
		}
		if edge.MinV >= edge.InitialV {
			t.Errorf("%v: no voltage drop (min %v, initial %v)", chem, edge.MinV, edge.InitialV)
		}
		if edge.SettledV > edge.InitialV {
			t.Errorf("%v: settled level above initial", chem)
		}
		if edge.SettledV < edge.MinV-1e-9 {
			t.Errorf("%v: settled %v below minimum %v", chem, edge.SettledV, edge.MinV)
		}
		if edge.D1 < 0 || edge.D2 < 0 || edge.D3 < 0 {
			t.Errorf("%v: negative area D1=%v D2=%v D3=%v", chem, edge.D1, edge.D2, edge.D3)
		}
	}
}

// TestVEdgeLittleSmallerTransient: the LITTLE chemistry minimises D1
// (transient loss), the paper's criterion for routing surges.
func TestVEdgeLittleSmallerTransient(t *testing.T) {
	edges := map[Chemistry]VEdge{}
	for _, chem := range []Chemistry{NCA, LMO} {
		p := MustParams(chem, 2500)
		traceV, idx, err := StepResponse(p, 0.1, 2.5, 10, 120, 0.1)
		if err != nil {
			t.Fatalf("%v: %v", chem, err)
		}
		edge, err := AnalyzeVEdge(traceV, idx, 0.1)
		if err != nil {
			t.Fatalf("%v: %v", chem, err)
		}
		edges[chem] = edge
	}
	if edges[LMO].D1 >= edges[NCA].D1 {
		t.Errorf("LMO transient D1 %v should undercut NCA %v", edges[LMO].D1, edges[NCA].D1)
	}
}

func TestAnalyzeVEdgeErrors(t *testing.T) {
	if _, err := AnalyzeVEdge([]float64{1, 2}, 1, 0.1); !errors.Is(err, ErrShortTrace) {
		t.Errorf("short trace error = %v", err)
	}
	if _, err := AnalyzeVEdge(make([]float64, 10), 4, 0); err == nil {
		t.Error("zero dt accepted")
	}
	if _, err := AnalyzeVEdge(make([]float64, 10), 0, 0.1); !errors.Is(err, ErrShortTrace) {
		t.Error("step at 0 accepted")
	}
}

func TestStepResponseErrors(t *testing.T) {
	p := MustParams(NCA, 2500)
	if _, _, err := StepResponse(p, 0.1, 2.5, 0, 10, 0.1); err == nil {
		t.Error("zero pre window accepted")
	}
	if _, _, err := StepResponse(Params{}, 0.1, 2.5, 1, 1, 0.1); err == nil {
		t.Error("invalid params accepted")
	}
}

// Property: stepping never produces NaN state or negative SoC.
func TestCellStepProperties(t *testing.T) {
	f := func(rawPower, rawTemp uint16, rawDT uint8) bool {
		c, err := NewCell(MustParams(NMC, 2500))
		if err != nil {
			return false
		}
		power := float64(rawPower%600) / 100 // 0..6 W
		temp := 10 + float64(rawTemp%50)     // 10..60 C
		dt := 0.05 + float64(rawDT%40)/10    // 0.05..4 s
		for i := 0; i < 50; i++ {
			if _, err := c.Step(power, temp, dt); err != nil {
				return errors.Is(err, ErrCannotSupply) || errors.Is(err, ErrDepleted)
			}
			soc := c.SoC()
			if math.IsNaN(soc) || soc < 0 || soc > 1 {
				return false
			}
			if math.IsNaN(c.Voltage()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: two cells stepped identically remain identical (determinism).
func TestCellDeterminism(t *testing.T) {
	a := newTestCell(t, NCA)
	b := newTestCell(t, NCA)
	loads := []float64{0.5, 2.0, 0, 3.5, 1.0}
	for i := 0; i < 500; i++ {
		p := loads[i%len(loads)]
		ra, ea := a.Step(p, 30, 0.5)
		rb, eb := b.Step(p, 30, 0.5)
		if (ea == nil) != (eb == nil) {
			t.Fatalf("step %d diverged in error", i)
		}
		if ra != rb {
			t.Fatalf("step %d diverged: %+v vs %+v", i, ra, rb)
		}
	}
	if a.SoC() != b.SoC() || a.DrawnJ() != b.DrawnJ() {
		t.Error("final state diverged")
	}
}
