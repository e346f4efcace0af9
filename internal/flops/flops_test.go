package flops

import (
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.AddOps(100)
	c.AddBytes(8)
	if c.Ops() != 100 || c.Bytes() != 8 {
		t.Errorf("counter = %d/%d", c.Ops(), c.Bytes())
	}
}

func TestActiveCounterSwap(t *testing.T) {
	var c Counter
	prev := SetActive(&c)
	defer SetActive(prev)
	Add(5)
	AddBytes(3)
	if c.Ops() != 5 || c.Bytes() != 3 {
		t.Errorf("active counting broken: %d/%d", c.Ops(), c.Bytes())
	}
	if Active() != &c {
		t.Error("Active mismatch")
	}
	// Disable and make sure nothing panics or counts.
	SetActive(nil)
	Add(10)
	if c.Ops() != 5 {
		t.Error("disabled counter still counted")
	}
	SetActive(&c)
}

func TestCountHelper(t *testing.T) {
	ops, bytes := Count(func() {
		Add(42)
		AddBytes(7)
	})
	if ops != 42 || bytes != 7 {
		t.Errorf("Count = %d/%d", ops, bytes)
	}
	// The previous counter must be restored.
	if Active() != nil {
		SetActive(nil)
	}
}

func TestCounterConcurrency(t *testing.T) {
	var c Counter
	prev := SetActive(&c)
	defer SetActive(prev)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Ops() != 8000 {
		t.Errorf("concurrent ops = %d, want 8000", c.Ops())
	}
}

func TestPaperCloudConstants(t *testing.T) {
	c := PaperCloudConstants()
	if c.KGGenFLOPs != 1e15 || c.GPTMemoryGB != 200 || c.KGTransferGB != 0.5 {
		t.Errorf("constants diverge from Table I: %+v", c)
	}
}

func TestDeviceProfileDerivations(t *testing.T) {
	d := JetsonClass()
	// Table I: 1e9 FLOPs/day ⇒ ≈5 J.
	e := d.EnergyJoules(1e9)
	if e < 4 || e > 6 {
		t.Errorf("energy for 1e9 FLOPs = %v J, paper says ≈5", e)
	}
	if l := d.LatencySeconds(5e9); l != 1 {
		t.Errorf("latency = %v, want 1s", l)
	}
	var zero DeviceProfile
	if zero.LatencySeconds(100) != 0 {
		t.Error("zero profile latency should be 0")
	}
}

func TestLedger(t *testing.T) {
	l := NewLedger()
	l.Record("a", 10, 1)
	l.Record("a", 5, 2)
	l.Record("b", 7, 0)
	if l.PhaseOps("a") != 15 || l.PhaseOps("b") != 7 || l.PhaseOps("missing") != 0 {
		t.Error("phase ops wrong")
	}
	if l.PhaseEvents("a") != 2 {
		t.Errorf("events = %d", l.PhaseEvents("a"))
	}
	l.Add("a", 4, 1)
	l.Add("c", 9, 0)
	if l.PhaseOps("a") != 19 || l.PhaseEvents("a") != 2 || l.PhaseOps("c") != 9 || l.PhaseEvents("c") != 0 {
		t.Errorf("Add: a %d ops %d events, c %d ops %d events; want 19/2 and 9/0",
			l.PhaseOps("a"), l.PhaseEvents("a"), l.PhaseOps("c"), l.PhaseEvents("c"))
	}
}
