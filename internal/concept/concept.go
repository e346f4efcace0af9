// Package concept provides the ConceptNet-5 substitute: an embedded
// ontology of surveillance-domain concepts with weighted relatedness
// edges, plus per-anomaly-class "profiles" describing which concepts a
// frame of that class expresses.
//
// The ontology plays two roles. During KG generation it answers the
// oracle's "which concepts follow from this one" queries (the reasoning
// chains GPT-4 produces in the paper). During data synthesis it defines
// the ground-truth semantic content of frames, so the overlap between two
// classes' profiles — e.g. Stealing∩Robbery large, Stealing∩Explosion
// almost empty — directly produces the weak-vs-strong-shift behaviour of
// Fig. 5.
package concept

import (
	"fmt"
	"math"
	"sort"
)

// Class identifies an anomaly class. The thirteen anomaly classes are
// those of the UCF-Crime benchmark (Sultani et al., CVPR 2018) that the
// paper evaluates on, plus Normal.
type Class int

// UCF-Crime classes. Normal is class 0 so the decision head's convention
// pN = softmax output 0 (Sec. III-C) maps directly onto Class values.
const (
	Normal Class = iota
	Abuse
	Arrest
	Arson
	Assault
	Burglary
	Explosion
	Fighting
	RoadAccidents
	Robbery
	Shooting
	Shoplifting
	Stealing
	Vandalism
	numClasses
)

// NumClasses is the total number of classes including Normal.
const NumClasses = int(numClasses)

// AnomalyClasses lists the 13 anomaly classes (excluding Normal).
func AnomalyClasses() []Class {
	out := make([]Class, 0, NumClasses-1)
	for c := Class(1); c < numClasses; c++ {
		out = append(out, c)
	}
	return out
}

var classNames = [...]string{
	"Normal", "Abuse", "Arrest", "Arson", "Assault", "Burglary",
	"Explosion", "Fighting", "RoadAccidents", "Robbery", "Shooting",
	"Shoplifting", "Stealing", "Vandalism",
}

// String returns the class name.
func (c Class) String() string {
	if c < 0 || int(c) >= len(classNames) {
		return fmt.Sprintf("Class(%d)", int(c))
	}
	return classNames[c]
}

// ClassByName resolves a class from its name, case-sensitively.
func ClassByName(name string) (Class, bool) {
	for i, n := range classNames {
		if n == name {
			return Class(i), true
		}
	}
	return 0, false
}

// Weighted is a concept with an importance weight in (0, 1].
type Weighted struct {
	Concept string
	Weight  float64
}

// Ontology is an undirected weighted concept graph plus per-class concept
// profiles.
type Ontology struct {
	concepts []string
	index    map[string]int
	related  map[string]map[string]float64
	profiles map[Class][]Weighted
}

// newOntology builds an ontology from class profiles and extra curated
// relations. Relations are derived from profile co-membership (two
// concepts in one profile relate with weight proportional to the product
// of their profile weights) and then overlaid with the curated links.
func newOntology(profiles map[Class][]Weighted, curated []relation) *Ontology {
	o := &Ontology{
		index:    make(map[string]int),
		related:  make(map[string]map[string]float64),
		profiles: profiles,
	}
	add := func(c string) {
		if _, ok := o.index[c]; !ok {
			o.index[c] = len(o.concepts)
			o.concepts = append(o.concepts, c)
		}
	}
	for _, ws := range profiles {
		for _, w := range ws {
			add(w.Concept)
		}
	}
	link := func(a, b string, w float64) {
		if a == b || w <= 0 {
			return
		}
		if o.related[a] == nil {
			o.related[a] = make(map[string]float64)
		}
		if o.related[b] == nil {
			o.related[b] = make(map[string]float64)
		}
		if w > o.related[a][b] {
			o.related[a][b] = w
			o.related[b][a] = w
		}
	}
	for _, ws := range profiles {
		for i := range ws {
			for j := i + 1; j < len(ws); j++ {
				link(ws[i].Concept, ws[j].Concept, ws[i].Weight*ws[j].Weight)
			}
		}
	}
	for _, r := range curated {
		add(r.a)
		add(r.b)
		link(r.a, r.b, r.w)
	}
	sort.Strings(o.concepts)
	for i, c := range o.concepts {
		o.index[c] = i
	}
	return o
}

type relation struct {
	a, b string
	w    float64
}

// Concepts returns all concept words in sorted order. The slice is shared;
// callers must not modify it.
func (o *Ontology) Concepts() []string { return o.concepts }

// Has reports whether the ontology contains concept c.
func (o *Ontology) Has(c string) bool {
	_, ok := o.index[c]
	return ok
}

// Relatedness returns the relation weight between two concepts (0 when
// unrelated or unknown).
func (o *Ontology) Relatedness(a, b string) float64 {
	return o.related[a][b]
}

// Related returns the concepts related to c sorted by descending weight
// (ties broken alphabetically for determinism).
func (o *Ontology) Related(c string) []Weighted {
	m := o.related[c]
	out := make([]Weighted, 0, len(m))
	for k, w := range m {
		out = append(out, Weighted{Concept: k, Weight: w})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].Concept < out[j].Concept
	})
	return out
}

// Profile returns the weighted concept profile of a class, sorted by
// descending weight. The returned slice is a copy.
func (o *Ontology) Profile(c Class) []Weighted {
	p := o.profiles[c]
	out := append([]Weighted(nil), p...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].Concept < out[j].Concept
	})
	return out
}

// ClassOverlap returns the cosine similarity of two classes' profile
// weight vectors in concept space — the quantitative meaning of "weak"
// (high overlap) versus "strong" (low overlap) anomaly shifts.
func (o *Ontology) ClassOverlap(a, b Class) float64 {
	va := o.profileVector(a)
	vb := o.profileVector(b)
	dot, na, nb := 0.0, 0.0, 0.0
	for i := range va {
		dot += va[i] * vb[i]
		na += va[i] * va[i]
		nb += vb[i] * vb[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

func (o *Ontology) profileVector(c Class) []float64 {
	v := make([]float64, len(o.concepts))
	for _, w := range o.profiles[c] {
		v[o.index[w.Concept]] = w.Weight
	}
	return v
}
