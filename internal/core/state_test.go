package core

import (
	"encoding/json"
	"math"
	"testing"

	"edgekg/internal/tensor"
)

// TestExportedStateSurvivesJSON pins that a component's exported state is
// its wire form: Monitor and Adapter state marshalled to JSON and imported
// into a fresh twin give the same pseudo-label selection and a
// bit-identical next adaptation round — at float64, with float32-narrowed
// window frames, and with a NaN in a convergence tracker (a diverged
// trajectory must still checkpoint).
func TestExportedStateSurvivesJSON(t *testing.T) {
	for _, width := range []tensor.DType{tensor.F64, tensor.F32} {
		t.Run(width.String(), func(t *testing.T) {
			r, a, mon := adaptFixture(t, 71)
			mon.SetFrameWidth(width)
			if rep, err := a.Step(mon); err != nil || !rep.Triggered {
				t.Fatalf("priming round: triggered=%v err=%v", rep.Triggered, err)
			}
			// A later window, so the means ring and the samples differ from
			// the fixture's, and one tracker that has seen a NaN distance.
			for i, score := range []float64{0.3, 0.05, 0.2} {
				mon.Push(tensor.Full(float64(i)/4, 1, r.space.PixDim()), score)
			}
			nanNode := r.det.gnns[0].Tokens().NodeIDs()[0]
			a.trackers[0][nanNode].LastDist = tensor.F64Bits(math.NaN())

			var monState MonitorState
			var adState AdapterState
			for _, rt := range []struct{ in, out any }{{mon.ExportState(), &monState}, {a.ExportState(), &adState}} {
				doc, err := json.Marshal(rt.in)
				if err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(doc, rt.out); err != nil {
					t.Fatal(err)
				}
			}
			if !math.IsNaN(float64(adState.Trackers[0][nanNode].LastDist)) {
				t.Fatal("NaN tracker distance did not survive")
			}

			// The twin: the same backbone and adapter built afresh, holding
			// the first detector's adapted token banks (the detector section
			// of a checkpoint), a blank monitor, and the imported state.
			r2, a2, _ := adaptFixture(t, 71)
			for _, id := range r.det.gnns[0].Tokens().NodeIDs() {
				r2.det.gnns[0].Tokens().Install(id, r.det.gnns[0].Tokens().Snapshot(id))
			}
			mon2, err := NewMonitor(2, 1)
			if err != nil {
				t.Fatal(err)
			}
			mon2.SetFrameWidth(width)
			if err := mon2.ImportState(monState); err != nil {
				t.Fatal(err)
			}
			if err := a2.ImportState(adState); err != nil {
				t.Fatal(err)
			}

			if math.Float64bits(mon2.DeltaM()) != math.Float64bits(mon.DeltaM()) || mon2.K() != mon.K() || mon.K() == 0 {
				t.Fatalf("twin Δm %v K %d, original Δm %v K %d", mon2.DeltaM(), mon2.K(), mon.DeltaM(), mon.K())
			}
			top, top2 := mon.TopK(), mon2.TopK()
			for i := range top {
				if top2[i].Seq != top[i].Seq || math.Float64bits(top2[i].Score) != math.Float64bits(top[i].Score) ||
					!tensor.AllClose(top2[i].Pix(), top[i].Pix(), 0) {
					t.Fatalf("twin top-K sample %d differs", i)
				}
			}

			rep, err := a.Step(mon)
			if err != nil {
				t.Fatal(err)
			}
			rep2, err := a2.Step(mon2)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := json.Marshal(rep)
			got, _ := json.Marshal(rep2)
			if !rep.Triggered || string(got) != string(want) {
				t.Fatalf("twin's next round %s, original's %s", got, want)
			}
			banks, banks2 := tokenBankState(r.det), tokenBankState(r2.det)
			for i := range banks {
				if !tensor.AllClose(banks2[i], banks[i], 0) {
					t.Fatalf("token bank %d not bit-identical after the twin's next round", i)
				}
			}
			want, _ = json.Marshal(a.ExportState())
			got, _ = json.Marshal(a2.ExportState())
			if string(got) != string(want) {
				t.Fatal("adapter states diverged after the next round")
			}
		})
	}
}

// TestImportStateRejectsWithoutTouching pins that an import which fails
// leaves the component exactly as it was.
func TestImportStateRejectsWithoutTouching(t *testing.T) {
	_, a, mon := adaptFixture(t, 72)
	if _, err := a.Step(mon); err != nil {
		t.Fatal(err)
	}
	monBefore, _ := json.Marshal(mon.ExportState())
	adBefore, _ := json.Marshal(a.ExportState())

	bad := mon.ExportState()
	bad.Scores = bad.Scores[1:]
	if err := mon.ImportState(bad); err == nil {
		t.Error("monitor state with ragged columns imported")
	}
	bad = mon.ExportState()
	bad.Frames[3] = nil
	if err := mon.ImportState(bad); err == nil {
		t.Error("monitor state with a missing frame imported")
	}

	for name, corrupt := range map[string]func(*AdapterState){
		"moment of the wrong size": func(s *AdapterState) {
			for name := range s.OptV {
				s.OptV[name] = tensor.New(1, 3)
				return
			}
		},
		"missing moment": func(s *AdapterState) {
			for name := range s.OptM {
				delete(s.OptM, name)
				return
			}
		},
		"null moment": func(s *AdapterState) {
			for name := range s.OptM {
				s.OptM[name] = nil
				return
			}
		},
		"extra graph": func(s *AdapterState) { s.Trackers = append(s.Trackers, nil) },
	} {
		s := a.ExportState()
		corrupt(&s)
		if err := a.ImportState(s); err == nil {
			t.Errorf("adapter state with %s imported", name)
		}
	}
	if after, _ := json.Marshal(mon.ExportState()); string(after) != string(monBefore) {
		t.Error("a rejected import changed the monitor")
	}
	if after, _ := json.Marshal(a.ExportState()); string(after) != string(adBefore) {
		t.Error("a rejected import changed the adapter")
	}
}
