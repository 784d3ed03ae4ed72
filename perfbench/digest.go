package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/server"
)

// canonicalOutcome encodes an outcome for comparison. It clears
// Run.Timing first: the executor attaches a span recorder to every traced
// job, so served runs carry host timings that a direct replay does not.
// Everything else must match byte for byte. The outcome is copied, never
// modified in place.
func canonicalOutcome(o *server.Outcome) ([]byte, error) {
	if o == nil {
		return nil, fmt.Errorf("nil outcome")
	}
	plain := server.Outcome{Run: o.Run, Cycles: o.Cycles, TTE: o.TTE}
	if plain.Run != nil && plain.Run.Timing != nil {
		r := *plain.Run
		r.Timing = nil
		plain.Run = &r
	}
	return json.Marshal(&plain)
}

// outcomeHash is the hex SHA-256 of canonicalOutcome.
func outcomeHash(o *server.Outcome) (string, error) {
	b, err := canonicalOutcome(o)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// digest folds (spec hash, outcome hash) pairs into one order-independent
// value: the pairs are sorted before hashing, so two runs that produced
// the same outcomes for the same specs agree however jobs interleaved.
type digest struct{ pairs []string }

func (d *digest) add(specHash, outHash string) {
	d.pairs = append(d.pairs, specHash+":"+outHash)
}

func (d *digest) sum() string {
	p := append([]string(nil), d.pairs...)
	sort.Strings(p)
	s := sha256.Sum256([]byte(strings.Join(p, "\n")))
	return hex.EncodeToString(s[:])
}
