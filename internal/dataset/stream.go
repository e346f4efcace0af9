package dataset

import (
	"fmt"
	"math/rand"

	"edgekg/internal/concept"
	"edgekg/internal/tensor"
)

// Phase is one segment of an anomaly-trend schedule: for Steps frames the
// stream's anomalous content comes from Class.
type Phase struct {
	Class concept.Class
	Steps int
}

// Schedule describes how the anomaly trend shifts over time (Fig. 1) —
// e.g. Stealing for 2000 frames, then Robbery.
type Schedule struct {
	Phases []Phase
}

// TotalSteps returns the schedule length.
func (s Schedule) TotalSteps() int {
	n := 0
	for _, p := range s.Phases {
		n += p.Steps
	}
	return n
}

// PhaseAt returns the phase covering step t (clamping past the end) and
// its index.
func (s Schedule) PhaseAt(t int) (Phase, int) {
	acc := 0
	for i, p := range s.Phases {
		acc += p.Steps
		if t < acc {
			return p, i
		}
	}
	last := len(s.Phases) - 1
	return s.Phases[last], last
}

// Stream pumps single frames with a scheduled anomaly trend — the
// deployment-time input of Fig. 2(C). Each step emits a normal frame with
// probability 1−AnomalyRate, else an anomalous frame of the current
// phase's class.
type Stream struct {
	gen         *Generator
	schedule    Schedule
	anomalyRate float64
	rng         *rand.Rand
	step        int
}

// NewStream returns a stream over the schedule.
func NewStream(gen *Generator, schedule Schedule, anomalyRate float64, rng *rand.Rand) (*Stream, error) {
	if len(schedule.Phases) == 0 {
		return nil, fmt.Errorf("dataset: empty schedule")
	}
	if anomalyRate < 0 || anomalyRate > 1 {
		return nil, fmt.Errorf("dataset: anomaly rate %v outside [0,1]", anomalyRate)
	}
	return &Stream{gen: gen, schedule: schedule, anomalyRate: anomalyRate, rng: rng}, nil
}

// Next emits the next frame, its binary anomaly ground truth, and the
// class it was drawn from.
func (s *Stream) Next() (pix *tensor.Tensor, anomalous bool, cls concept.Class) {
	phase, _ := s.schedule.PhaseAt(s.step)
	s.step++
	if s.rng.Float64() < s.anomalyRate {
		return s.gen.Frame(s.rng, phase.Class), true, phase.Class
	}
	return s.gen.Frame(s.rng, concept.Normal), false, concept.Normal
}

// ClipSource samples contiguous training clips from a video set, the form
// the detector trainer consumes: each clip of window+batch−1 consecutive
// frames yields batch overlapping windows with per-window labels (the
// label of each window's final frame), so the smoothness regulariser sees
// genuinely consecutive scores.
type ClipSource struct {
	videos   []*Video
	window   int
	batch    int
	labelMap func(int) int
}

// NewClipSource validates the video set against the requested geometry.
func NewClipSource(videos []*Video, window, batch int) (*ClipSource, error) {
	if len(videos) == 0 {
		return nil, fmt.Errorf("dataset: no videos")
	}
	if window < 1 || batch < 1 {
		return nil, fmt.Errorf("dataset: window %d / batch %d must be ≥1", window, batch)
	}
	need := window + batch - 1
	for _, v := range videos {
		if v.NumFrames() < need {
			return nil, fmt.Errorf("dataset: video with %d frames shorter than clip length %d", v.NumFrames(), need)
		}
	}
	return &ClipSource{videos: videos, window: window, batch: batch}, nil
}

// WithLabelMap installs a per-frame label remapping applied to every
// emitted label — e.g. BinaryLabelMap for the single-mission protocol
// where any anomaly class becomes decision class 1. It returns c.
func (c *ClipSource) WithLabelMap(f func(int) int) *ClipSource {
	c.labelMap = f
	return c
}

// BinaryLabelMap collapses every anomaly class to 1 (normal stays 0).
func BinaryLabelMap(label int) int {
	if label != 0 {
		return 1
	}
	return 0
}

// Window returns the temporal window length T.
func (c *ClipSource) Window() int { return c.window }

// Batch returns the number of windows per clip.
func (c *ClipSource) Batch() int { return c.batch }

// NextClip samples one clip: frames is (window+batch−1 × pixDim), labels
// has batch entries — labels[k] is the class of frame window+k−1, the
// final frame of window k.
func (c *ClipSource) NextClip(rng *rand.Rand) (frames *tensor.Tensor, labels []int) {
	v := c.videos[rng.Intn(len(c.videos))]
	clipLen := c.window + c.batch - 1
	maxStart := v.NumFrames() - clipLen
	start := 0
	if maxStart > 0 {
		start = rng.Intn(maxStart + 1)
	}
	frames = tensor.SliceRows(v.Frames, start, start+clipLen)
	labels = make([]int, c.batch)
	for k := 0; k < c.batch; k++ {
		labels[k] = v.Labels[start+c.window-1+k]
		if c.labelMap != nil {
			labels[k] = c.labelMap(labels[k])
		}
	}
	return frames, labels
}
