package snapshot

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edgekg/internal/core"
	"edgekg/internal/flops"
	"edgekg/internal/kg"
	"edgekg/internal/tensor"
)

// tinyCheckpoint builds a synthetic, structurally plausible checkpoint.
func tinyCheckpoint() *Checkpoint {
	cp := New(1)
	cp.Streams[0] = StreamState{
		ID:     0,
		Frames: 7,
		Scores: tensor.Floats{0.25, 0.5},
		Ledger: map[string]flops.PhaseTotals{"scoring": {Ops: 10, Bytes: 20, Events: 7}},
		Monitor: core.MonitorState{
			N: 4, RefLag: 1, Anchored: true, Reference: 0.9, HasRef: true, Seq: 7,
			Frames: []*tensor.Tensor{tensor.FromSlice([]float64{1, 2}, 1, 2)},
			Scores: tensor.Floats{0.5}, Seqs: []int{6}, Means: tensor.Floats{0.5},
		},
		Detector: DetectorState{Graphs: []GraphState{{Graph: json.RawMessage(`{}`)}}},
	}
	return cp
}

// TestSaveLoadRoundTrip pins the file layer: save, load, compare.
func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	want := tinyCheckpoint()
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != Version || got.Format != Format {
		t.Fatalf("header %q/%d after round trip", got.Format, got.Version)
	}
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		t.Fatalf("checkpoint changed across save/load:\n%s\nvs\n%s", a, b)
	}
	// Determinism: marshalling the same checkpoint twice yields identical
	// bytes (struct field order + sorted map keys).
	c, _ := json.Marshal(want)
	if string(a) != string(c) {
		t.Fatal("serialization is not deterministic")
	}
}

// TestTornWriteFailsCleanlyAndPreviousCheckpointSurvives simulates the
// crash-safety scenario: a checkpoint file truncated mid-stream must fail
// restore with the versioned-format ("corrupt") error — never a panic or a
// partially applied state — and the previous good checkpoint, plus any
// abandoned temp file from a crash before rename, must leave the good
// checkpoint loadable.
func TestTornWriteFailsCleanlyAndPreviousCheckpointSurvives(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "checkpoint.json")
	if err := Save(good, tinyCheckpoint()); err != nil {
		t.Fatal(err)
	}

	// Torn copy: the same bytes truncated mid-document.
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.json")
	if err := os.WriteFile(torn, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(torn); err == nil {
		t.Fatal("torn checkpoint loaded without error")
	} else if !strings.Contains(err.Error(), "corrupt checkpoint") {
		t.Fatalf("torn checkpoint error %q does not identify corruption", err)
	}

	// Crash before rename: a stale temp file next to the good checkpoint
	// (what a killed Save leaves behind) must not affect loading it.
	if err := os.WriteFile(good+".tmp-123", data[:10], 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(good); err != nil {
		t.Fatalf("previous good checkpoint no longer loads: %v", err)
	}
}

// TestVersionAndFormatMismatchFailLoudly pins the header checks.
func TestVersionAndFormatMismatchFailLoudly(t *testing.T) {
	dir := t.TempDir()

	future := tinyCheckpoint()
	future.Version = Version + 7
	path := filepath.Join(dir, "future.json")
	data, _ := json.Marshal(future)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(path)
	if err == nil {
		t.Fatal("future-version checkpoint loaded")
	}
	if !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch error %q does not mention the version", err)
	}

	foreign := filepath.Join(dir, "foreign.json")
	if err := os.WriteFile(foreign, []byte(`{"some":"json"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(foreign); err == nil {
		t.Fatal("foreign JSON loaded as a checkpoint")
	}

	// Save refuses to write a bad header in the first place.
	if err := Save(filepath.Join(dir, "bad.json"), future); err == nil {
		t.Fatal("Save accepted a mismatched version header")
	}
}

// TestSaveIsAtomic pins that Save replaces the destination in one step: a
// reader always sees either the old or the new full document. (The rename
// syscall gives this; the test guards the temp-then-rename structure.)
func TestSaveIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	if err := Save(path, tinyCheckpoint()); err != nil {
		t.Fatal(err)
	}
	second := tinyCheckpoint()
	second.Streams[0].Frames = 99
	if err := Save(path, second); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Streams[0].Frames != 99 {
		t.Fatalf("second save not visible: frames %d", got.Streams[0].Frames)
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("unexpected files after save: %v", names)
	}
}

// TestScalarFloatsSurviveNaN pins that the scalar float fields of the
// component sections (monitor reference, tracker distances, pending-round
// report) are declared with the bit-pattern type: a degenerate trajectory
// carrying NaN must still checkpoint and round-trip bit-exactly instead of
// aborting json.Marshal.
func TestScalarFloatsSurviveNaN(t *testing.T) {
	nan, inf := tensor.F64Bits(math.NaN()), tensor.F64Bits(math.Inf(1))
	cp := tinyCheckpoint()
	cp.Streams[0].Monitor.Reference = nan
	cp.Streams[0].Adapter = &core.AdapterState{
		Trackers: []map[kg.NodeID]core.TrackerState{{3: {LastDist: inf, HasLast: true}}},
		RowNorms: []map[kg.NodeID]tensor.Floats{{}},
		OptM:     map[string]*tensor.Tensor{},
		OptV:     map[string]*tensor.Tensor{},
	}
	cp.Streams[0].Pending = &PendingState{
		SwapFrame: 12,
		Report: core.AdaptReport{
			Triggered:     true,
			K:             2,
			DeltaM:        nan,
			Loss:          -inf,
			NodeDistances: []map[kg.NodeID]tensor.F64Bits{{7: nan}},
		},
		ScoreDet: DetectorState{Graphs: []GraphState{{Graph: json.RawMessage(`{}`)}}},
	}
	path := filepath.Join(t.TempDir(), "nan.json")
	if err := Save(path, cp); err != nil {
		t.Fatalf("checkpoint with NaN scalars failed to save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(got.Streams[0].Monitor.Reference)) {
		t.Error("NaN reference did not round-trip")
	}
	rep := got.Streams[0].Pending.Report
	if !math.IsNaN(float64(rep.DeltaM)) || rep.K != 2 || !rep.Triggered {
		t.Errorf("report %+v lost fields", rep)
	}
	if !math.IsInf(float64(rep.Loss), -1) {
		t.Error("-Inf report loss did not round-trip")
	}
	if !math.IsNaN(float64(rep.NodeDistances[0][7])) {
		t.Error("NaN node distance did not round-trip")
	}
	if !math.IsInf(float64(got.Streams[0].Adapter.Trackers[0][3].LastDist), 1) {
		t.Error("+Inf tracker distance did not round-trip")
	}
}
