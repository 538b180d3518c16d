package obs

import (
	"sync"
	"testing"
	"time"
)

// traceClock is a manually advanced clock shared by tracer tests.
type traceClock struct{ t time.Time }

func newTraceClock() *traceClock {
	return &traceClock{t: time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)}
}
func (c *traceClock) now() time.Time          { return c.t }
func (c *traceClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestTracerStagePartitionSumsToTotal(t *testing.T) {
	clk := newTraceClock()
	tr := NewTracer(TracerOptions{
		Ring: 8, Sample: 1,
		Stages: []string{"queue", "admit", "reopt"},
		Attrs:  []string{"rank_eval"},
		Now:    clk.now,
	})

	ref := tr.Begin("report", "u1", time.Time{})
	clk.advance(3 * time.Millisecond)
	ref.Mark(0)
	clk.advance(5 * time.Millisecond)
	ref.Mark(1)
	ref.Attr(0, 2*time.Millisecond, 7)
	clk.advance(1 * time.Millisecond)
	ref.Mark(2)
	clk.advance(500 * time.Microsecond)
	ref.Mark(0) // stages accumulate: queue charged twice
	ref.End()

	spans := tr.Snapshot(0)
	if len(spans) != 1 {
		t.Fatalf("want 1 span, got %d", len(spans))
	}
	sp := spans[0]
	if sp.Kind != "report" || sp.Key != "u1" {
		t.Fatalf("labels: %+v", sp)
	}
	want := map[string]int64{
		"queue": (3*time.Millisecond + 500*time.Microsecond).Nanoseconds(),
		"admit": (5 * time.Millisecond).Nanoseconds(),
		"reopt": (1 * time.Millisecond).Nanoseconds(),
	}
	var sum int64
	for name, ns := range want {
		if sp.Stages[name] != ns {
			t.Errorf("stage %s = %d, want %d", name, sp.Stages[name], ns)
		}
		sum += ns
	}
	if sp.TotalNs != sum {
		t.Errorf("stage sum %d != total %d (partition must be exact)", sum, sp.TotalNs)
	}
	if sp.Attrs["rank_eval"] != (2*time.Millisecond).Nanoseconds() || sp.Counts["rank_eval"] != 7 {
		t.Errorf("attr: %+v", sp)
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(TracerOptions{Ring: 256, Sample: 4, Stages: []string{"s"}})
	live := 0
	for i := 0; i < 100; i++ {
		ref := tr.Begin("k", "", time.Time{})
		if ref.Active() {
			live++
			ref.End()
		}
	}
	if live != 25 {
		t.Errorf("sample=4 over 100 begins: %d spans, want 25", live)
	}

	tr.SetSample(0)
	if ref := tr.Begin("k", "", time.Time{}); ref.Active() {
		t.Error("sample=0 must disable recording")
	}
	if got := tr.Sample(); got != 0 {
		t.Errorf("Sample() = %d", got)
	}
}

func TestTracerDisabledPathZeroAlloc(t *testing.T) {
	var nilTracer *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		ref := nilTracer.Begin("report", "u1", time.Time{})
		ref.Mark(0)
		ref.Attr(0, time.Millisecond, 1)
		ref.End()
	})
	if allocs != 0 {
		t.Errorf("nil tracer path allocates %v/op, want 0", allocs)
	}

	off := NewTracer(TracerOptions{Ring: 8, Sample: 0, Stages: []string{"s"}})
	allocs = testing.AllocsPerRun(1000, func() {
		ref := off.Begin("report", "u1", time.Time{})
		ref.Mark(0)
		ref.End()
	})
	if allocs != 0 {
		t.Errorf("sample=0 path allocates %v/op, want 0", allocs)
	}
}

func TestTracerEnabledPathZeroAlloc(t *testing.T) {
	tr := NewTracer(TracerOptions{Ring: 64, Sample: 1, Stages: []string{"a", "b"}})
	allocs := testing.AllocsPerRun(1000, func() {
		ref := tr.Begin("report", "u1", time.Time{})
		ref.Mark(0)
		ref.Mark(1)
		ref.End()
	})
	if allocs != 0 {
		t.Errorf("enabled hot path allocates %v/op, want 0 (ring slots are pre-allocated)", allocs)
	}
}

func TestTracerWrapInvalidatesStaleRefs(t *testing.T) {
	clk := newTraceClock()
	tr := NewTracer(TracerOptions{Ring: 4, Sample: 1, Stages: []string{"s"}, Now: clk.now})

	stale := tr.Begin("old", "victim", time.Time{})
	// Wrap the ring completely; the stale ref's slot is reclaimed.
	for i := 0; i < 8; i++ {
		ref := tr.Begin("new", "", time.Time{})
		clk.advance(time.Millisecond)
		ref.Mark(0)
		ref.End()
	}
	clk.advance(time.Hour)
	stale.Mark(0) // must not corrupt whichever span now owns the slot
	stale.End()
	if stale.Active() {
		t.Error("stale ref still active after wrap")
	}
	for _, sp := range tr.Snapshot(0) {
		if sp.Kind == "old" {
			t.Error("reclaimed span leaked into snapshot")
		}
		if sp.TotalNs > (10 * time.Millisecond).Nanoseconds() {
			t.Errorf("stale writer corrupted a live span: %+v", sp)
		}
	}
}

func TestTracerSnapshotNewestFirstAndBounded(t *testing.T) {
	tr := NewTracer(TracerOptions{Ring: 16, Sample: 1, Stages: []string{"s"}})
	for i := 0; i < 10; i++ {
		ref := tr.Begin("k", "", time.Time{})
		ref.End()
	}
	spans := tr.Snapshot(3)
	if len(spans) != 3 {
		t.Fatalf("max not honoured: %d", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].ID >= spans[i-1].ID {
			t.Fatalf("not newest-first: %d then %d", spans[i-1].ID, spans[i].ID)
		}
	}
	if tr.Started() != 10 {
		t.Errorf("Started() = %d", tr.Started())
	}
}

// TestTracerConcurrentHammer drives writers, a wrapper and snapshot readers
// together; the race detector is the real assertion.
func TestTracerConcurrentHammer(t *testing.T) {
	tr := NewTracer(TracerOptions{Ring: 32, Sample: 1, Stages: []string{"a", "b"}})
	var writers, reader sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				ref := tr.Begin("k", "c", time.Time{})
				ref.Mark(0)
				ref.Attr(0, time.Microsecond, 1)
				ref.Mark(1)
				ref.End()
			}
		}()
	}
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tr.Snapshot(8)
			}
		}
	}()
	writers.Wait()
	close(stop)
	reader.Wait()
	if tr.Started() == 0 {
		t.Fatal("no spans recorded")
	}
}

func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Snapshot(1) != nil || tr.Sample() != 0 || tr.Started() != 0 || tr.Dropped() != 0 {
		t.Error("nil tracer accessors must be zero")
	}
	if len(tr.Stages()) != 0 || len(tr.Attrs()) != 0 {
		t.Error("nil tracer names must be empty")
	}
	if tr.Now().IsZero() {
		t.Error("nil tracer Now must fall back to time.Now")
	}
}
