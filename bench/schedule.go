package main

import (
	"fmt"
	"math/rand"

	"edgekg/internal/concept"
	"edgekg/internal/dataset"
	"edgekg/internal/tensor"
)

// anomalyRate is the share of anomalous frames every camera feed carries.
const anomalyRate = 0.5

// mission is the anomaly class every backbone is trained for; the trend
// of the adaptive workloads shifts away from it twice.
const mission = concept.Stealing

// frame is one pre-generated camera frame. pix wraps data without a copy,
// so the in-process path (tensors) and the network path (float slices)
// submit the same bytes.
type frame struct {
	pix  *tensor.Tensor
	data []float64
}

// frameSet is one block's input: perCam frames for each camera with the
// ground-truth anomaly label of every frame.
type frameSet struct {
	frames [][]frame // [camera][i]
	labels [][]bool
}

func (fs *frameSet) perCam() int { return len(fs.frames[0]) }

// slice is frames [lo,hi) of every camera.
func (fs *frameSet) slice(lo, hi int) *frameSet {
	out := &frameSet{frames: make([][]frame, len(fs.frames)), labels: make([][]bool, len(fs.labels))}
	for c := range fs.frames {
		out.frames[c], out.labels[c] = fs.frames[c][lo:hi], fs.labels[c][lo:hi]
	}
	return out
}
func (fs *frameSet) total() int { return len(fs.frames) * fs.perCam() }

// mix is SplitMix64's finalizer: it turns (seed, set, camera) into
// decorrelated per-feed seeds, so no feed shares a random stream.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func feedSeed(seed int64, set, cam int) int64 {
	return int64(mix(mix(uint64(seed))^uint64(set)<<20^uint64(cam)) >> 1)
}

// stationary is the trend of the static-KG workloads: the mission class
// for the whole feed.
func stationary(perCam int) dataset.Schedule {
	return dataset.Schedule{Phases: []dataset.Phase{{Class: mission, Steps: perCam}}}
}

// trendShift is the paper's scenario: the feed starts on the mission
// class and shifts twice, Stealing → Robbery → Explosion, at one and two
// thirds of the feed.
func trendShift(perCam int) dataset.Schedule {
	a, b := perCam/3, 2*(perCam/3)
	return dataset.Schedule{Phases: []dataset.Phase{
		{Class: concept.Stealing, Steps: a},
		{Class: concept.Robbery, Steps: b - a},
		{Class: concept.Explosion, Steps: perCam - b},
	}}
}

// settled is the feed after the last shift: the final class only.
func settled(perCam int) dataset.Schedule {
	return dataset.Schedule{Phases: []dataset.Phase{{Class: concept.Explosion, Steps: perCam}}}
}

// genSet pre-generates one frame set. The same (seed, set) always yields
// the same bytes and labels; the program under test only ever sees the
// frames.
func genSet(gen *dataset.Generator, sched dataset.Schedule, cams int, seed int64, set int) (*frameSet, error) {
	per := sched.TotalSteps()
	fs := &frameSet{frames: make([][]frame, cams), labels: make([][]bool, cams)}
	for c := 0; c < cams; c++ {
		st, err := dataset.NewStream(gen, sched, anomalyRate, rand.New(rand.NewSource(feedSeed(seed, set, c))))
		if err != nil {
			return nil, fmt.Errorf("schedule set %d camera %d: %w", set, c, err)
		}
		fs.frames[c] = make([]frame, per)
		fs.labels[c] = make([]bool, per)
		for i := 0; i < per; i++ {
			pix, anomalous, _ := st.Next()
			fs.frames[c][i] = frame{pix: pix, data: pix.Data()}
			fs.labels[c][i] = anomalous
		}
	}
	return fs, nil
}
