package flops

import (
	"sync"
	"testing"
)

func TestMemLedgerAccounting(t *testing.T) {
	l := NewMemLedger(1000)
	l.Update(0, MemBreakdown{Banks: 300, Monitor: 100})
	l.Update(1, MemBreakdown{Graphs: 200, Adapter: 50, SharedBanks: 9999})
	if got := l.Total(); got != 650 {
		t.Errorf("total = %d, want 650 (shared bytes must not be charged)", got)
	}
	if over, is := l.OverBudget(); is || over != 0 {
		t.Errorf("OverBudget = %d,%v under budget", over, is)
	}
	l.Update(0, MemBreakdown{Banks: 700, Monitor: 200})
	if got := l.Total(); got != 1150 {
		t.Errorf("total after replace = %d, want 1150", got)
	}
	if over, is := l.OverBudget(); !is || over != 150 {
		t.Errorf("OverBudget = %d,%v, want 150,true", over, is)
	}
	if got := l.Stream(1).Resident(); got != 250 {
		t.Errorf("stream 1 resident = %d, want 250", got)
	}
}

func TestMemLedgerUnbudgetedNeverOver(t *testing.T) {
	l := NewMemLedger(0)
	l.Update(0, MemBreakdown{Banks: 1 << 40})
	if _, is := l.OverBudget(); is {
		t.Error("unbudgeted ledger reported over budget")
	}
	if l.Budget() != 0 {
		t.Errorf("budget = %d", l.Budget())
	}
}

func TestMemLedgerConcurrentUpdates(t *testing.T) {
	l := NewMemLedger(0)
	var wg sync.WaitGroup
	for s := 0; s < 8; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l.Update(s, MemBreakdown{Banks: int64(i)})
			}
		}(s)
	}
	wg.Wait()
	if got := l.Total(); got != 8*999 {
		t.Errorf("total = %d, want %d", got, 8*999)
	}
}

func TestMemBreakdownResident(t *testing.T) {
	b := MemBreakdown{Banks: 1, Graphs: 2, Monitor: 4, Adapter: 8, Pending: 16, History: 32, SharedBanks: 64, SharedGraphs: 128}
	if got := b.Resident(); got != 63 {
		t.Errorf("Resident = %d, want 63 (shared columns excluded)", got)
	}
}
