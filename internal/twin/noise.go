package twin

import "math"

// Deterministic per-twin randomness. One root seed fans out to an
// independent SplitMix64 stream per twin, so results are a pure function of
// (seed, twin index) — independent of worker count, chunking, or the order
// twins happen to be stepped in.

// splitmix64 advances *s and returns the next output of the SplitMix64
// generator (Steele, Lea & Flood 2014). It passes BigCrush and, crucially
// here, distinct seeds give statistically independent streams.
func splitmix64(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// twinSeed derives twin i's private stream state from the root seed by
// jumping the golden-gamma increment i+1 times and mixing once, so adjacent
// twins start far apart in the sequence.
func twinSeed(root uint64, i int) uint64 {
	s := root + (uint64(i)+1)*0x9E3779B97F4A7C15
	return splitmix64(&s)
}

// u01 maps a uint64 to the open interval (0, 1); the +0.5 offset keeps the
// result away from 0 so log(u) below is always finite.
func u01(x uint64) float64 {
	return (float64(x>>11) + 0.5) * (1.0 / (1 << 53))
}

// gauss draws the next standard normal from twin i's stream via Box-Muller,
// caching the second variate of each pair.
func (b *Batch) gauss(i int) float64 {
	if b.gHas[i] {
		b.gHas[i] = false
		return b.gSpare[i]
	}
	u1 := u01(splitmix64(&b.rng[i]))
	u2 := u01(splitmix64(&b.rng[i]))
	r := math.Sqrt(-2 * math.Log(u1))
	// Sincos shares one argument reduction between the pair and returns
	// the same bits as separate Sin and Cos (TestSincosMatchesSinCos).
	sin, cos := math.Sincos(2 * math.Pi * u2)
	b.gSpare[i] = r * sin
	b.gHas[i] = true
	return r * cos
}

// ouCoeffs returns the exact discrete-time update coefficients for an
// Ornstein-Uhlenbeck process sampled every dt: x' = a*x + bCoef*g with g
// standard normal, chosen so the stationary standard deviation is sigma and
// the correlation time tauS. tauS <= 0 degenerates to per-step white noise.
func ouCoeffs(sigma, tauS, dt float64) (a, bCoef float64) {
	if sigma <= 0 {
		return 0, 0
	}
	if tauS <= 0 {
		return 0, sigma
	}
	a = math.Exp(-dt / tauS)
	return a, sigma * math.Sqrt(1-a*a)
}
