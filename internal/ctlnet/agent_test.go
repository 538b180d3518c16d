package ctlnet

import (
	"context"
	"io"
	"net"
	"testing"
	"time"

	"acorn/internal/spectrum"
)

// TestUpdatesCoalesceLatestWins floods an agent with assignments while no
// consumer reads Updates(): the agent must coalesce to the newest value,
// never deliver a stale one, and never block its read loop.
func TestUpdatesCoalesceLatestWins(t *testing.T) {
	cli, srv := net.Pipe()
	defer srv.Close()
	// Drain everything the agent writes (hello, reports) so the
	// synchronous pipe never blocks it.
	go func() { _, _ = io.Copy(io.Discard, srv) }()
	a, err := NewAgent(cli, Hello{APID: "AP1", TxPowerDBm: 18})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	const n = 30
	for i := 1; i <= n; i++ {
		sendFrame(t, srv, func(e *frameEncoder) {
			e.Assign(&Assign{APID: "AP1", WidthMHz: 20, Primary: i})
		})
	}
	want := spectrum.NewChannel20(spectrum.ChannelID(n))
	// Wait until the read loop has processed the last assignment.
	deadline := time.Now().Add(5 * time.Second)
	for a.Current() != want {
		if time.Now().After(deadline) {
			t.Fatalf("agent never reached %v (current %v, err %v)", want, a.Current(), a.Err())
		}
		time.Sleep(time.Millisecond)
	}
	// The single buffered slot must hold the freshest assignment, not the
	// first one that happened to fit.
	select {
	case got := <-a.Updates():
		if got != want {
			t.Fatalf("slow consumer received stale assignment %v, want %v", got, want)
		}
	default:
		t.Fatal("no pending update despite unconsumed assignments")
	}
	select {
	case got := <-a.Updates():
		t.Fatalf("second pending update %v; coalescing should leave exactly one", got)
	default:
	}
}

// TestServerIgnoresStaleSeq verifies the controller never rolls an AP's
// view backwards when an old report (e.g. a delayed duplicate) arrives
// after a newer one.
func TestServerIgnoresStaleSeq(t *testing.T) {
	s, addr := startServer(t)
	a, err := Dial(addr, Hello{APID: "AP1", TxPowerDBm: 18})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	newest := report(nil, 30)
	newest.Seq = 5
	if err := a.SendReport(newest); err != nil {
		t.Fatal(err)
	}
	waitForSeq(t, s, "AP1", 5)

	stale := report(nil, 2)
	stale.Seq = 3
	if err := a.SendReport(stale); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	s.mu.Lock()
	got := s.reports["AP1"].rep
	s.mu.Unlock()
	if got.Seq != 5 || got.Clients[0].SNR20dB != 30 {
		t.Fatalf("stale report overwrote the view: %+v", got)
	}
}

// waitForSeq polls until the server's stored report for apID reaches seq.
func waitForSeq(t *testing.T, s *Server, apID string, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		got := s.reports[apID].rep.Seq
		s.mu.Unlock()
		if got >= seq {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("server never saw seq %d from %s", seq, apID)
}

// TestReconnectingAgentReplaysAfterRestart kills the controller outright
// and restarts it on the same address: the agent must reconnect with
// backoff, re-send its hello, and replay its last report (same sequence)
// without any new SendReport call.
func TestReconnectingAgentReplaysAfterRestart(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	s1 := NewServer(1)
	go func() { _ = s1.Serve(l) }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ra, err := NewReconnectingAgent(ctx, addr, Hello{APID: "AP1", TxPowerDBm: 18}, ReconnectOptions{
		Backoff: Backoff{Min: 10 * time.Millisecond, Max: 100 * time.Millisecond},
		Agent:   AgentOptions{HeartbeatInterval: 20 * time.Millisecond, PeerTimeout: 500 * time.Millisecond},
		Log:     testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()

	if err := ra.SendReport(report(nil, 25)); err != nil {
		t.Fatal(err)
	}
	waitForReports(t, s1, 1)
	if _, err := s1.Reallocate(); err != nil {
		t.Fatal(err)
	}
	first := waitRAssign(t, ra)

	// Controller dies.
	_ = s1.Close()

	// Controller restarts with empty state on the same address.
	var l2 net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		l2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	s2 := NewServer(1)
	go func() { _ = s2.Serve(l2) }()
	defer s2.Close()

	// The replayed report repopulates the fresh controller without any
	// new SendReport.
	waitForReports(t, s2, 1)
	s2.mu.Lock()
	replayed := s2.reports["AP1"].rep
	s2.mu.Unlock()
	if replayed.Seq != 1 {
		t.Fatalf("replay changed the sequence: got %d, want 1", replayed.Seq)
	}
	if len(replayed.Clients) != 1 || replayed.Clients[0].SNR20dB != 25 {
		t.Fatalf("replayed report differs: %+v", replayed)
	}
	if _, err := s2.Reallocate(); err != nil {
		t.Fatal(err)
	}
	second := waitRAssign(t, ra)
	if second.IsZero() {
		t.Fatal("no assignment after reconnect")
	}
	if ra.Sessions() < 2 {
		t.Fatalf("expected at least 2 sessions, got %d", ra.Sessions())
	}
	_ = first
}

// TestReconnectingAgentBacksOffUntilServerExists starts the agent against
// a dead address, confirms it keeps retrying, then brings the controller
// up and sees the pre-connect report delivered by replay.
func TestReconnectingAgentBacksOffUntilServerExists(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close() // free the port: dials now fail with connection refused

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ra, err := NewReconnectingAgent(ctx, addr, Hello{APID: "AP1", TxPowerDBm: 18}, ReconnectOptions{
		Backoff: Backoff{Min: 5 * time.Millisecond, Max: 40 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	// Reported while no controller exists: must be queued, not lost.
	if err := ra.SendReport(report(nil, 20)); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for ra.LastErr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("agent never recorded a dial failure")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ra.Sessions() != 0 || ra.Connected() {
		t.Fatalf("connected to a dead address: sessions=%d", ra.Sessions())
	}

	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("port %s was taken meanwhile: %v", addr, err)
	}
	s := NewServer(1)
	go func() { _ = s.Serve(l2) }()
	defer s.Close()

	waitForReports(t, s, 1)
	if ra.Sessions() != 1 {
		t.Fatalf("want 1 session after server start, got %d", ra.Sessions())
	}
}

// waitRAssign blocks for the next assignment from a reconnecting agent.
func waitRAssign(t *testing.T, ra *ReconnectingAgent) spectrum.Channel {
	t.Helper()
	select {
	case ch := <-ra.Updates():
		return ch
	case <-time.After(5 * time.Second):
		t.Fatalf("no assignment within timeout (last err %v)", ra.LastErr())
		return spectrum.Channel{}
	}
}
