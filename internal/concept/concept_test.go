package concept

import (
	"testing"
	"testing/quick"
)

func TestClassNamesRoundTrip(t *testing.T) {
	for c := Class(0); c < numClasses; c++ {
		got, ok := ClassByName(c.String())
		if !ok || got != c {
			t.Errorf("ClassByName(%q) = %v, %v", c.String(), got, ok)
		}
	}
	if _, ok := ClassByName("NotAClass"); ok {
		t.Error("unknown class resolved")
	}
	if Class(99).String() != "Class(99)" {
		t.Errorf("out-of-range String = %q", Class(99).String())
	}
}

func TestAnomalyClassesExcludesNormal(t *testing.T) {
	cs := AnomalyClasses()
	if len(cs) != 13 {
		t.Fatalf("AnomalyClasses count = %d, want 13 (UCF-Crime)", len(cs))
	}
	for _, c := range cs {
		if c == Normal {
			t.Error("Normal included in anomaly classes")
		}
	}
}

func TestBuiltinProfilesComplete(t *testing.T) {
	o := Builtin()
	for c := Class(0); c < numClasses; c++ {
		p := o.Profile(c)
		if len(p) < 5 {
			t.Errorf("class %v has only %d profile concepts", c, len(p))
		}
		for _, w := range p {
			if w.Weight <= 0 || w.Weight > 1 {
				t.Errorf("class %v concept %q weight %v out of (0,1]", c, w.Concept, w.Weight)
			}
			if !o.Has(w.Concept) {
				t.Errorf("profile concept %q missing from ontology", w.Concept)
			}
		}
		// Profile sorted by descending weight.
		for i := 1; i < len(p); i++ {
			if p[i].Weight > p[i-1].Weight {
				t.Errorf("class %v profile not sorted at %d", c, i)
			}
		}
	}
}

func TestBuiltinIsSingleton(t *testing.T) {
	if Builtin() != Builtin() {
		t.Error("Builtin must return the shared instance")
	}
}

func TestRelatednessSymmetric(t *testing.T) {
	o := Builtin()
	cs := o.Concepts()
	f := func(i, j uint) bool {
		a := cs[i%uint(len(cs))]
		b := cs[j%uint(len(cs))]
		return o.Relatedness(a, b) == o.Relatedness(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNoSelfRelations(t *testing.T) {
	o := Builtin()
	for _, c := range o.Concepts() {
		if o.Relatedness(c, c) != 0 {
			t.Errorf("concept %q related to itself", c)
		}
		for _, r := range o.Related(c) {
			if r.Concept == c {
				t.Errorf("Related(%q) contains itself", c)
			}
			if r.Weight <= 0 || r.Weight > 1 {
				t.Errorf("relation %q-%q weight %v out of (0,1]", c, r.Concept, r.Weight)
			}
		}
	}
}

func TestRelatedSortedDescending(t *testing.T) {
	o := Builtin()
	for _, c := range o.Concepts() {
		rs := o.Related(c)
		for i := 1; i < len(rs); i++ {
			if rs[i].Weight > rs[i-1].Weight {
				t.Fatalf("Related(%q) not sorted", c)
			}
		}
	}
}

// The experiment-defining overlap structure: Stealing↔Robbery must overlap
// far more than Stealing↔Explosion. Fig. 5's weak/strong distinction rests
// on exactly this.
func TestShiftOverlapStructure(t *testing.T) {
	o := Builtin()
	weak := o.ClassOverlap(Stealing, Robbery)
	strong := o.ClassOverlap(Stealing, Explosion)
	if weak <= 0.1 {
		t.Errorf("Stealing-Robbery overlap %v too small for a weak shift", weak)
	}
	if strong > 0.02 {
		t.Errorf("Stealing-Explosion overlap %v too large for a strong shift", strong)
	}
	if weak <= strong*3 {
		t.Errorf("weak overlap %v not clearly above strong overlap %v", weak, strong)
	}
	// Overlap is symmetric and self-overlap is 1.
	if o.ClassOverlap(Robbery, Stealing) != weak {
		t.Error("overlap not symmetric")
	}
	if self := o.ClassOverlap(Stealing, Stealing); self < 0.999 || self > 1.001 {
		t.Errorf("self overlap = %v", self)
	}
}

func TestEveryAnomalyClassDistinctFromNormal(t *testing.T) {
	o := Builtin()
	for _, c := range AnomalyClasses() {
		if ov := o.ClassOverlap(c, Normal); ov > 0.3 {
			t.Errorf("class %v overlaps Normal too much: %v", c, ov)
		}
	}
}

// Chains needed by deep KG generation must exist: a weapon-danger chain
// from robbery and a violence chain from fighting.
func TestCuratedReasoningChains(t *testing.T) {
	o := Builtin()
	chains := [][]string{
		{"gun", "weapon", "danger"},
		{"punch", "violence", "danger"},
		{"theft", "crime", "danger"},
		{"detonation", "blast", "danger"},
	}
	for _, chain := range chains {
		for i := 0; i+1 < len(chain); i++ {
			if o.Relatedness(chain[i], chain[i+1]) == 0 {
				t.Errorf("missing chain link %q-%q", chain[i], chain[i+1])
			}
		}
	}
}

func TestProfileReturnsCopy(t *testing.T) {
	o := Builtin()
	p := o.Profile(Stealing)
	p[0].Concept = "mutated"
	if o.Profile(Stealing)[0].Concept == "mutated" {
		t.Error("Profile leaked internal state")
	}
}
