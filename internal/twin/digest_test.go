package twin

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash"
	"math"
	"testing"

	"repro/internal/battery"
	"repro/internal/device"
	"repro/internal/invariant"
	"repro/internal/tec"
	"repro/internal/workload"
)

// noisyCohortDigest pins every noisy cohort output bit for bit. It was
// recorded before the kernel fast paths (hoisted dt-only coefficients, the
// register-held phone thermal kernel, one-call Box–Muller) went in; any
// change to the twin's arithmetic, however small, moves it.
const noisyCohortDigest = "7f017faa8a1624bc744bdab4b8b2a5096c7e09bb26c1a9cf2dccba702b44fda7"

// digestCohort runs one noisy cohort shaped like a served tte job (150 mAh
// NCA over 900 s, TEC and invariants on) and folds every per-twin output
// and the Summary JSON into h. The TEC threshold sits at 33 °C so the
// cooler cycles under every workload: the pinned trajectories then cover
// TEC-cooled (negative) CPU heat and a hot spreader, and the horizon
// leaves a mix of emptied and censored twins.
func digestCohort(t *testing.T, h hash.Hash, gen func() workload.Generator, tauS float64) {
	t.Helper()
	dev := tec.ATE31()
	inv := invariant.DefaultConfig()
	b, err := New(Config{
		Profile:       device.Nexus(),
		Workload:      gen,
		Cell:          battery.MustParams(battery.NCA, 150),
		TEC:           &dev,
		TECThresholdC: 33,
		Twins:         64,
		Seed:          11,
		HorizonS:      900,
		LoadNoise:     NoiseConfig{Sigma: 0.1, TauS: tauS},
		AmbientNoise:  NoiseConfig{Sigma: 1, TauS: tauS},
		Invariants:    &inv,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	var buf [8]byte
	put := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	for i := 0; i < b.Twins(); i++ {
		put(b.TTE(i))
		put(b.SoC(i))
		put(b.MaxCPUTempC(i))
		put(b.MaxBodyTempC(i))
		put(b.DeliveredJ(i))
		put(b.WastedJ(i))
		put(b.TECEnergyJ(i))
		h.Write([]byte(b.EndReason(i)))
	}
	js, err := json.Marshal(b.Summarize())
	if err != nil {
		t.Fatal(err)
	}
	h.Write(js)
}

// TestNoisyCohortDigest is the noisy counterpart of TestOracleMatchesSim:
// with both noise channels live there is no scalar oracle, so the whole
// output of six cohorts (three workloads × white and correlated noise) is
// pinned by a SHA-256 digest instead.
func TestNoisyCohortDigest(t *testing.T) {
	gens := []func() workload.Generator{
		func() workload.Generator { return workload.NewVideo(42) },
		func() workload.Generator { return workload.NewGeekbench(42) },
		func() workload.Generator { return workload.NewPCMark(42) },
	}
	h := sha256.New()
	for _, gen := range gens {
		for _, tauS := range []float64{0, 60} {
			digestCohort(t, h, gen, tauS)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != noisyCohortDigest {
		t.Errorf("noisy cohort digest %s, want %s", got, noisyCohortDigest)
	}
}
