package twin

import (
	"context"
	"testing"

	"repro/internal/battery"
	"repro/internal/device"
	"repro/internal/invariant"
	"repro/internal/tec"
	"repro/internal/workload"
)

// BenchmarkBatchedStep measures the serial lockstep kernel: one op steps a
// 4096-twin cohort by one tick with both noise channels live. The
// "twins/op" metric feeds BENCH_twin.json, where twins/sec/core is derived
// as twins/op divided by ns/op; allocs/op is contractually zero (also
// pinned by TestBatchedStepAllocFree, and benchjson hard-fails on a
// regression).
func BenchmarkBatchedStep(b *testing.B) {
	dev := tec.ATE31()
	cfg := Config{
		Profile:      device.Nexus(),
		Workload:     func() workload.Generator { return workload.NewVideo(42) },
		Cell:         battery.MustParams(battery.NCA, 2500),
		TEC:          &dev,
		Twins:        4096,
		Seed:         7,
		HorizonS:     86400,
		LoadNoise:    NoiseConfig{Sigma: 0.1, TauS: 60},
		AmbientNoise: NoiseConfig{Sigma: 1, TauS: 300},
	}
	batch, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if alive := batch.Step(); alive == 0 || batch.cursor >= batch.Steps() {
			b.StopTimer()
			batch.Reset()
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(cfg.Twins), "twins/op")
}

// BenchmarkTTECohort measures one whole served tte cohort the way capmand
// runs it: 512 twins over 900 s of video on a 150 mAh NCA cell, both noise
// channels live, TEC and invariants on, swept by Run at GOMAXPROCS
// workers. Batch construction (trace recording, lane allocation) is outside
// the timer; "twin-steps/s" is twins × trace steps per second of wall time
// (nominal: a twin that empties early stops stepping).
func BenchmarkTTECohort(b *testing.B) {
	dev := tec.ATE31()
	inv := invariant.DefaultConfig()
	batch, err := New(Config{
		Profile:      device.Nexus(),
		Workload:     func() workload.Generator { return workload.NewVideo(42) },
		Cell:         battery.MustParams(battery.NCA, 150),
		TEC:          &dev,
		Twins:        512,
		Seed:         7,
		HorizonS:     900,
		LoadNoise:    NoiseConfig{Sigma: 0.1, TauS: 60},
		AmbientNoise: NoiseConfig{Sigma: 1, TauS: 60},
		Invariants:   &inv,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := batch.Run(ctx, 0); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		batch.Reset()
		b.StartTimer()
	}
	steps := float64(batch.Twins()) * float64(batch.Steps())
	b.ReportMetric(steps*float64(b.N)/b.Elapsed().Seconds(), "twin-steps/s")
}
