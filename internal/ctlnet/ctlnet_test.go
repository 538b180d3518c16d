package ctlnet

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"acorn/internal/obs"
	"acorn/internal/spectrum"
)

// startServer listens on a loopback port and returns the server + address.
func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(1)
	go func() { _ = s.Serve(l) }()
	t.Cleanup(func() { _ = s.Close() })
	return s, l.Addr().String()
}

// waitAssign blocks for the next assignment with a test timeout.
func waitAssign(t *testing.T, a *Agent) spectrum.Channel {
	t.Helper()
	select {
	case ch := <-a.Updates():
		return ch
	case <-time.After(5 * time.Second):
		t.Fatalf("no assignment within timeout (err=%v)", a.Err())
		return spectrum.Channel{}
	}
}

// report builds a Report with the given client SNRs.
func report(hears []string, snrs ...float64) Report {
	rep := Report{Hears: hears}
	for i, snr := range snrs {
		rep.Clients = append(rep.Clients, ClientObs{ClientID: clientName(i), SNR20dB: snr})
	}
	return rep
}

func clientName(i int) string { return string(rune('a' + i)) }

func TestEndToEndAllocation(t *testing.T) {
	s, addr := startServer(t)

	// Two APs out of each other's range: one with good clients, one with
	// clients where bonding collapses.
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

	if err := a1.SendReport(report(nil, 30, 28)); err != nil {
		t.Fatal(err)
	}
	if err := a2.SendReport(report(nil, -1.5, -1.0)); err != nil {
		t.Fatal(err)
	}
	// Reports race the Reallocate call; wait until the server has both.
	waitForReports(t, s, 2)

	assigns, err := s.Reallocate()
	if err != nil {
		t.Fatal(err)
	}
	if len(assigns) != 2 {
		t.Fatalf("want 2 assignments, got %d", len(assigns))
	}
	ch1 := waitAssign(t, a1)
	ch2 := waitAssign(t, a2)
	if ch1.Width != spectrum.Width40 {
		t.Errorf("good cell assigned %v, want 40 MHz", ch1)
	}
	if ch2.Width != spectrum.Width20 {
		t.Errorf("poor cell assigned %v, want 20 MHz", ch2)
	}
	if a1.Current() != ch1 {
		t.Error("Current() out of sync with Updates()")
	}
}

func TestContendingAgentsGetDisjointChannels(t *testing.T) {
	s, addr := startServer(t)
	var agents []*Agent
	for _, id := range []string{"AP1", "AP2", "AP3"} {
		a, err := Dial(addr, Hello{APID: id, TxPowerDBm: 18})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		agents = append(agents, a)
	}
	hears := map[string][]string{
		"AP1": {"AP2", "AP3"},
		"AP2": {"AP1", "AP3"},
		"AP3": {"AP1", "AP2"},
	}
	for i, id := range []string{"AP1", "AP2", "AP3"} {
		if err := agents[i].SendReport(report(hears[id], 25, 20)); err != nil {
			t.Fatal(err)
		}
	}
	waitForReports(t, s, 3)
	assigns, err := s.Reallocate()
	if err != nil {
		t.Fatal(err)
	}
	// Mutually contending good cells with 12 channels free: the
	// allocation must isolate them.
	ids := []string{"AP1", "AP2", "AP3"}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if assigns[ids[i]].Conflicts(assigns[ids[j]]) {
				t.Errorf("%s and %s share spectrum: %v vs %v",
					ids[i], ids[j], assigns[ids[i]], assigns[ids[j]])
			}
		}
	}
}

func TestReconnectReplaysAssignment(t *testing.T) {
	s, addr := startServer(t)
	a, err := Dial(addr, Hello{APID: "AP1", TxPowerDBm: 18})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SendReport(report(nil, 25)); err != nil {
		t.Fatal(err)
	}
	waitForReports(t, s, 1)
	if _, err := s.Reallocate(); err != nil {
		t.Fatal(err)
	}
	first := waitAssign(t, a)
	a.Close()

	// Reconnect: the stored assignment is replayed without a new
	// Reallocate. The old session's teardown races the new hello, so
	// retry until the duplicate-id window has passed.
	var b *Agent
	deadline := time.Now().Add(5 * time.Second)
	for {
		b, err = Dial(addr, Hello{APID: "AP1", TxPowerDBm: 18})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-b.Updates():
			if got != first {
				t.Errorf("replayed assignment %v, want %v", got, first)
			}
			b.Close()
			return
		case <-time.After(200 * time.Millisecond):
			if b.Err() == nil {
				// Connected but nothing replayed yet; keep waiting.
				if got := waitAssign(t, b); got != first {
					t.Errorf("replayed assignment %v, want %v", got, first)
				}
				b.Close()
				return
			}
			b.Close() // rejected as duplicate; retry
		}
		if time.Now().After(deadline) {
			t.Fatal("could not reconnect before deadline")
		}
	}
}

func TestDuplicateAPRejected(t *testing.T) {
	_, addr := startServer(t)
	a, err := Dial(addr, Hello{APID: "AP1", TxPowerDBm: 18})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(addr, Hello{APID: "AP1", TxPowerDBm: 18})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// The two hellos race; exactly one of the sessions must be rejected
	// as a duplicate.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, ag := range []*Agent{a, b} {
			if err := ag.Err(); err != nil {
				if !strings.Contains(err.Error(), "duplicate") {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("duplicate agent was not rejected")
}

func TestMalformedPeerHandled(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Garbage instead of hello: the server must answer with an error
	// frame, never hang or crash.
	if _, err := conn.Write([]byte("this is not a frame\n")); err != nil {
		t.Fatal(err)
	}
	if got := readReply(t, conn); !strings.Contains(got, "bad frame magic") {
		t.Errorf("unexpected reply: %q", got)
	}
}

// TestMetricSeriesBounded boots 4 and then 32 agents against servers on
// their own registries: the server's exported series count must not grow
// with the fleet (per-AP detail lives behind ConnectedAgents, not in
// labelled series).
func TestMetricSeriesBounded(t *testing.T) {
	series := func(n int) int {
		s, addr := streamServer(t, StreamConfig{}, nil, func(s *Server) {
			s.Shards = ShardConfig{N: 1} // per-shard series stay at one shard
		})
		agentReg := obs.NewRegistry()
		for i := 0; i < n; i++ {
			a, err := DialOpts(addr, Hello{APID: fmt.Sprintf("AP%02d", i), TxPowerDBm: 18}, AgentOptions{Obs: agentReg})
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			if err := a.SendReport(report(nil, 30)); err != nil {
				t.Fatal(err)
			}
		}
		waitForReports(t, s, n)
		if _, err := s.Reallocate(); err != nil {
			t.Fatal(err)
		}
		if got := len(s.ConnectedAgents()); got != n {
			t.Fatalf("%d agents connected, want %d", got, n)
		}
		var buf bytes.Buffer
		if err := s.Obs.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		count := 0
		for _, line := range strings.Split(buf.String(), "\n") {
			if line != "" && !strings.HasPrefix(line, "#") {
				count++
			}
		}
		return count
	}
	if small, large := series(4), series(32); small != large {
		t.Fatalf("server exports %d series with 4 agents but %d with 32", small, large)
	}
}

func TestReallocateWithoutAgents(t *testing.T) {
	s := NewServer(1)
	if _, err := s.Reallocate(); err == nil {
		t.Error("reallocate with no agents should fail")
	}
}

func TestAgentRequiresID(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c2.Close()
	if _, err := NewAgent(c1, Hello{}); err == nil {
		t.Error("empty AP id accepted")
	}
}

// waitForReports polls until the server holds n reports.
func waitForReports(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		got := len(s.reports)
		s.mu.Unlock()
		if got >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("server never received %d reports", n)
}
