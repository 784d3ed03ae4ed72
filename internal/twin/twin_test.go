package twin

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/battery"
	"repro/internal/device"
	"repro/internal/invariant"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tec"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// testConfig is a small cohort that drains quickly: a deliberately tiny
// cell under the video workload.
func testConfig(twins int, mah float64) Config {
	dev := tec.ATE31()
	return Config{
		Profile:  device.Nexus(),
		Workload: func() workload.Generator { return workload.NewVideo(42) },
		Cell:     battery.MustParams(battery.NCA, mah),
		TEC:      &dev,
		Twins:    twins,
		Seed:     7,
		HorizonS: 7200,
	}
}

// TestOracleMatchesSim is the batched-vs-scalar oracle: one twin with noise
// disabled must match sim.Run bit-for-bit on every comparable output —
// both paths run the same step kernels, so not even the last ulp may
// differ.
func TestOracleMatchesSim(t *testing.T) {
	cfg := testConfig(3, 320)
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}

	params := battery.MustParams(battery.NCA, 320)
	dev := tec.ATE31()
	res, err := sim.Run(sim.Config{
		Profile:  device.Nexus(),
		Workload: func() workload.Generator { return workload.NewVideo(42) },
		Policy:   sched.NewSingle(),
		Single:   &params,
		TEC:      &dev,
		MaxTimeS: cfg.HorizonS,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.EndReason == sim.EndMaxTime {
		t.Fatalf("oracle run hit the time limit; shrink the cell (service %.0fs)", res.ServiceTimeS)
	}

	// Every twin is noise-free, so all must agree with the scalar run.
	for i := 0; i < cfg.Twins; i++ {
		bitEq := func(name string, got, want float64) {
			t.Helper()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("twin %d %s = %v, scalar %v (diff %g)", i, name, got, want, got-want)
			}
		}
		if got, want := b.EndReason(i), string(res.EndReason); got != want {
			t.Errorf("twin %d end reason %q, scalar %q", i, got, want)
		}
		bitEq("TTE", b.TTE(i), res.ServiceTimeS)
		bitEq("SoC", b.SoC(i), res.FinalSoCBig)
		bitEq("MaxCPUTempC", b.MaxCPUTempC(i), res.MaxCPUTempC)
		bitEq("MaxBodyTempC", b.MaxBodyTempC(i), res.MaxBodyTempC)
		bitEq("DeliveredJ", b.DeliveredJ(i), res.EnergyDeliveredJ)
		bitEq("WastedJ", b.WastedJ(i), res.EnergyWastedJ)
		bitEq("TECEnergyJ", b.TECEnergyJ(i), res.TECEnergyJ)
	}
}

// TestDeterministicAcrossWorkers asserts the satellite contract: identical
// seeds give identical percentiles (in fact identical per-twin results) at
// any worker count, noise enabled.
func TestDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) (*Summary, []float64) {
		cfg := testConfig(520, 160)
		cfg.LoadNoise = NoiseConfig{Sigma: 0.15, TauS: 60}
		cfg.AmbientNoise = NoiseConfig{Sigma: 2, TauS: 300}
		b, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Run(context.Background(), workers); err != nil {
			t.Fatal(err)
		}
		ttes := make([]float64, cfg.Twins)
		for i := range ttes {
			ttes[i] = b.TTE(i)
		}
		return b.Summarize(), ttes
	}

	base, baseTTEs := run(1)
	if base.Emptied == 0 {
		t.Fatal("no twin emptied; test workload too light")
	}
	for _, workers := range []int{2, 3, 8} {
		sum, ttes := run(workers)
		if !reflect.DeepEqual(sum, base) {
			t.Errorf("workers=%d summary differs:\n got %+v\nwant %+v", workers, sum, base)
		}
		for i := range ttes {
			if math.Float64bits(ttes[i]) != math.Float64bits(baseTTEs[i]) {
				t.Fatalf("workers=%d twin %d TTE %v != serial %v", workers, i, ttes[i], baseTTEs[i])
			}
		}
	}
}

// TestSerialStepMatchesRun: the Step() lockstep path and the chunked Run
// path must land on the same state.
func TestSerialStepMatchesRun(t *testing.T) {
	cfg := testConfig(40, 320)
	cfg.LoadNoise = NoiseConfig{Sigma: 0.2}
	serial, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < serial.Steps(); k++ {
		serial.Step()
	}
	chunked, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := chunked.Run(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	if got, want := serial.Summarize(), chunked.Summarize(); !reflect.DeepEqual(got, want) {
		t.Errorf("serial summary %+v\nchunked %+v", got, want)
	}
}

// TestSeedsChangeResults: different seeds must give different noisy
// cohorts, and re-running a seed must reproduce it exactly.
func TestSeedsChangeResults(t *testing.T) {
	run := func(seed uint64) *Summary {
		cfg := testConfig(160, 160)
		cfg.Seed = seed
		cfg.LoadNoise = NoiseConfig{Sigma: 0.2, TauS: 30}
		b, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Run(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		return b.Summarize()
	}
	a1, a2, b1 := run(1), run(1), run(2)
	if !reflect.DeepEqual(a1, a2) {
		t.Errorf("seed 1 not reproducible: %+v vs %+v", a1, a2)
	}
	if a1.TTEP50S == b1.TTEP50S && a1.TTEMinS == b1.TTEMinS && a1.TTEMaxS == b1.TTEMaxS {
		t.Errorf("seeds 1 and 2 produced identical distributions: %+v", a1)
	}
}

// TestNoiseSpread: noise must widen the first-passage distribution; no
// noise must collapse it to a point.
func TestNoiseSpread(t *testing.T) {
	cfg := testConfig(200, 320)
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Run(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	s := b.Summarize()
	if s.TTEMinS != s.TTEMaxS {
		t.Errorf("noise-free cohort has spread: min %v max %v", s.TTEMinS, s.TTEMaxS)
	}

	cfg.LoadNoise = NoiseConfig{Sigma: 0.25, TauS: 60}
	bn, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := bn.Run(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	sn := bn.Summarize()
	if !(sn.TTEP5S < sn.TTEP50S && sn.TTEP50S < sn.TTEP95S) {
		t.Errorf("noisy percentiles not spread: p5 %v p50 %v p95 %v", sn.TTEP5S, sn.TTEP50S, sn.TTEP95S)
	}
	if sn.TTEP5S <= 0 {
		t.Errorf("p5 %v not positive", sn.TTEP5S)
	}
}

// TestCensoring: a horizon shorter than the battery life censors every
// twin at exactly the horizon boundary.
func TestCensoring(t *testing.T) {
	cfg := testConfig(8, 3000)
	cfg.HorizonS = 60
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	s := b.Summarize()
	if s.Censored != cfg.Twins || s.Emptied != 0 {
		t.Fatalf("censored %d emptied %d, want %d/0", s.Censored, s.Emptied, cfg.Twins)
	}
	if s.EndReasons[reasonCensored] != cfg.Twins {
		t.Errorf("end reasons %v", s.EndReasons)
	}
	if s.TTEP50S < cfg.HorizonS {
		t.Errorf("censored p50 %v below horizon %v", s.TTEP50S, cfg.HorizonS)
	}
}

// TestRunCancellation: a cancelled context aborts the sweep with the
// context error.
func TestRunCancellation(t *testing.T) {
	cfg := testConfig(300, 3000)
	cfg.HorizonS = 86400
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := b.Run(ctx, 2); err == nil {
		t.Fatal("cancelled Run returned nil error")
	}
}

func TestConfigValidation(t *testing.T) {
	base := testConfig(4, 320)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero twins", func(c *Config) { c.Twins = 0 }},
		{"negative horizon", func(c *Config) { c.HorizonS = -1 }},
		{"nil workload", func(c *Config) { c.Workload = nil }},
		{"negative sigma", func(c *Config) { c.LoadNoise.Sigma = -0.1 }},
		{"negative tau", func(c *Config) { c.AmbientNoise.TauS = -5 }},
		{"bad cell", func(c *Config) { c.Cell = battery.Params{} }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted invalid config", tc.name)
		}
	}
}

// TestBatchedStepAllocFree pins the hot loop at zero allocations per
// lockstep tick, noise channels on — with and without the invariant
// checker, whose no-violation path must be equally free.
func TestBatchedStepAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name    string
		checked bool
	}{{"bare", false}, {"checked", true}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(256, 320)
			cfg.LoadNoise = NoiseConfig{Sigma: 0.1, TauS: 60}
			cfg.AmbientNoise = NoiseConfig{Sigma: 1, TauS: 300}
			if tc.checked {
				inv := invariant.DefaultConfig()
				cfg.Invariants = &inv
			}
			b, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b.Step() // warm up
			if allocs := testing.AllocsPerRun(100, func() { b.Step() }); allocs != 0 {
				t.Errorf("Step allocates %v/op, want 0", allocs)
			}
		})
	}
}

// TestBatchInvariantsBitIdentical: a clean cohort summarizes identically
// with and without the checker — the monitor observes, never perturbs.
func TestBatchInvariantsBitIdentical(t *testing.T) {
	run := func(checked bool) *Summary {
		cfg := testConfig(32, 160)
		cfg.LoadNoise = NoiseConfig{Sigma: 0.15, TauS: 60}
		if checked {
			inv := invariant.DefaultConfig()
			cfg.Invariants = &inv
		}
		b, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Run(context.Background(), 4); err != nil {
			t.Fatal(err)
		}
		if checked && b.Invariants() != nil {
			t.Fatalf("clean cohort reported violations: %+v", b.Invariants())
		}
		return b.Summarize()
	}
	plain, checked := run(false), run(true)
	if !reflect.DeepEqual(plain, checked) {
		t.Errorf("checked summary diverged:\nplain:   %+v\nchecked: %+v", plain, checked)
	}
}

// TestBatchInvariantViolationsDeterministic seeds an envelope breach (a CPU
// ceiling below what the workload reaches) and asserts the violation totals
// land in the Summary identically at any worker count.
func TestBatchInvariantViolationsDeterministic(t *testing.T) {
	run := func(workers int) *Summary {
		cfg := testConfig(64, 160)
		cfg.LoadNoise = NoiseConfig{Sigma: 0.15, TauS: 60}
		// The noisy cohort peaks around 38C; a 36C ceiling guarantees some
		// twins breach it and some do not.
		cfg.Invariants = &invariant.Config{MaxCPUTempC: 36}
		b, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Run(context.Background(), workers); err != nil {
			t.Fatal(err)
		}
		return b.Summarize()
	}
	base := run(1)
	if base.InvariantViolations["thermal-ceiling-cpu"] == 0 {
		t.Fatalf("seeded ceiling breach not detected: %v", base.InvariantViolations)
	}
	if base.InvariantFatal {
		t.Errorf("ceiling warnings latched fatal: %v", base.InvariantViolations)
	}
	for _, workers := range []int{2, 8} {
		if sum := run(workers); !reflect.DeepEqual(sum, base) {
			t.Errorf("workers=%d summary differs:\n got %+v\nwant %+v", workers, sum, base)
		}
	}
}

// TestSincosMatchesSinCos: gauss draws its Box–Muller pair with one
// math.Sincos call; that is only a valid fast path because Sincos returns
// the very bits separate Sin and Cos calls would, which this checks on a
// few million angles drawn exactly as gauss draws them.
func TestSincosMatchesSinCos(t *testing.T) {
	n := 4_000_000
	if testing.Short() {
		n = 200_000
	}
	s := twinSeed(99, 0)
	for k := 0; k < n; k++ {
		theta := 2 * math.Pi * u01(splitmix64(&s))
		sin, cos := math.Sincos(theta)
		if math.Float64bits(sin) != math.Float64bits(math.Sin(theta)) ||
			math.Float64bits(cos) != math.Float64bits(math.Cos(theta)) {
			t.Fatalf("angle %v: Sincos (%v, %v), Sin/Cos (%v, %v)",
				theta, sin, cos, math.Sin(theta), math.Cos(theta))
		}
	}
}

// TestNewRefusesNonPhoneThermal: the twin integrates heat with the phone
// kernel, so a thermal config that changes the network's topology (here a
// zero-capacity CPU node, which Network.Step would treat as a boundary)
// must be refused at construction rather than integrated differently from
// sim.Run.
func TestNewRefusesNonPhoneThermal(t *testing.T) {
	cfg := testConfig(4, 320)
	cfg.Thermal = thermal.DefaultPhoneConfig()
	cfg.Thermal.CPUCapacityJK = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted a thermal network the phone kernel does not match")
	}
	cfg.Thermal = thermal.DefaultPhoneConfig()
	if _, err := New(cfg); err != nil {
		t.Fatalf("default phone network refused: %v", err)
	}
}
