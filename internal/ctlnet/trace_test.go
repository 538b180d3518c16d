package ctlnet

import (
	"net"
	"testing"
	"time"

	"acorn/internal/core"
	"acorn/internal/obs"
)

// TestStreamPassSpansAndSLO boots a stream-mode server with tracing and an
// SLO monitor, feeds it reports, and asserts the triggered pass produced a
// finished span whose stage partition covers the receipt-to-push path and
// whose latency landed in the SLO window.
func TestStreamPassSpansAndSLO(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(1)
	s.Obs = obs.NewRegistry()
	s.Stream = StreamConfig{
		Enabled: true,
		Gate:    core.GateOptions{Streak: 1},
	}
	s.Tracer = NewServerTracer(64, 1, nil)
	s.SLO = obs.NewSLO(obs.SLOOptions{Name: "ctlnet_pass_p99", Budget: time.Hour})
	go func() { _ = s.Serve(l) }()
	t.Cleanup(func() { _ = s.Close() })
	addr := l.Addr().String()

	a1, err := Dial(addr, Hello{APID: "AP1", TxPowerDBm: 18})
	if err != nil {
		t.Fatal(err)
	}
	defer a1.Close()
	a2, err := Dial(addr, Hello{APID: "AP2", TxPowerDBm: 18})
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	if err := a1.SendReport(report([]string{"AP2"}, 30, 28)); err != nil {
		t.Fatal(err)
	}
	if err := a2.SendReport(report([]string{"AP1"}, 25, 20)); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := s.StreamStats(); st.Passes >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no streaming pass completed: %+v", s.StreamStats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	spans := s.Tracer.Snapshot(0)
	if len(spans) == 0 {
		t.Fatalf("no pass spans recorded")
	}
	sawStream := false
	for _, sp := range spans {
		if sp.Kind != "stream" {
			continue
		}
		sawStream = true
		var sum int64
		for _, ns := range sp.Stages {
			sum += ns
		}
		if sum != sp.TotalNs {
			t.Fatalf("pass span stage sum %d != total %d (%+v)", sum, sp.TotalNs, sp.Stages)
		}
		// Queue (receipt to pass start: the wait for the pass in flight
		// plus the consumer's wake-up) and the view build always take
		// measurable wall time on a real clock.
		if sp.Stages["queue"] <= 0 {
			t.Fatalf("pass span missing queue dwell: %v", sp.Stages)
		}
		for stage := range sp.Stages {
			ok := false
			for _, name := range ServerTraceStages {
				if stage == name {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("pass span charged unknown stage %q", stage)
			}
		}
	}
	if !sawStream {
		t.Fatalf("no stream-kind span among %d spans", len(spans))
	}

	if st := s.SLO.Status(); st.WindowCount == 0 {
		t.Fatalf("pass latency never reached the SLO window: %+v", st)
	}

	// The authoritative full pass is traced too, under its own kind.
	if _, err := s.Reallocate(); err != nil {
		t.Fatal(err)
	}
	sawFull := false
	for _, sp := range s.Tracer.Snapshot(0) {
		if sp.Kind == "full" {
			sawFull = true
		}
	}
	if !sawFull {
		t.Fatalf("Reallocate produced no full-kind span")
	}
}
