package main

import (
	"reflect"
	"testing"
)

func TestSameSeedSamePlan(t *testing.T) {
	for _, def := range workloadDefs {
		a := makePlan(def, 42, 30)
		b := makePlan(def, 42, 30)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 42 gave two different plans", def.name)
		}
		c := makePlan(def, 43, 30)
		if reflect.DeepEqual(a.specs, c.specs) {
			t.Errorf("%s: seeds 42 and 43 gave the same specs", def.name)
		}
		if def.name == "sim-miss" && reflect.DeepEqual(a.dueS, c.dueS) {
			t.Errorf("%s: seeds 42 and 43 gave the same schedule", def.name)
		}
	}
}

func TestPlanSizes(t *testing.T) {
	cases := map[string]int{"hit-heavy": hitKeys, "sim-miss": 900, "tte-miss": 60}
	for name, want := range cases {
		def, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(makePlan(def, 7, 30).specs); got != want {
			t.Errorf("%s: %d specs at 30 s, want %d", name, got, want)
		}
	}
	if _, err := workloadByName("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestMissKeysNeverRepeat(t *testing.T) {
	for _, name := range []string{"sim-miss", "tte-miss"} {
		def, _ := workloadByName(name)
		p := makePlan(def, 9, 30)
		_, hashes, err := encodeSpecs(p.specs)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for i, h := range hashes {
			if seen[h] {
				t.Fatalf("%s: op %d repeats a key", name, i)
			}
			seen[h] = true
			if err := p.specs[i].Validate(); err != nil {
				t.Fatalf("%s: op %d: %v", name, i, err)
			}
		}
	}
}

func TestMixIsBalanced(t *testing.T) {
	def, _ := workloadByName("sim-miss")
	p := makePlan(def, 5, 30)
	count := map[string]int{}
	for _, s := range p.specs {
		count[s.Policy+"/"+s.Workload]++
	}
	if len(count) != 6 {
		t.Fatalf("sim-miss mix has %d kinds, want 6", len(count))
	}
	for k, n := range count {
		if n != 150 {
			t.Errorf("%s: %d of 900, want 150", k, n)
		}
	}
	for i := 1; i < len(p.dueS); i++ {
		if p.dueS[i] < p.dueS[i-1] {
			t.Fatal("schedule not ascending")
		}
	}
	mean := p.dueS[len(p.dueS)-1] / float64(len(p.dueS))
	if mean < 0.8/def.rate || mean > 1.2/def.rate {
		t.Errorf("mean gap %.4f s, want about %.4f", mean, 1/def.rate)
	}
}

func TestHitMixIsLoadgenDefault(t *testing.T) {
	specs := hitSpecs(1)
	tte := 0
	for _, s := range specs {
		if s.Kind == "tte" {
			tte++
		}
	}
	if len(specs) != 32 || tte != 6 {
		t.Fatalf("%d keys with %d tte, want 32 with 6", len(specs), tte)
	}
}
