package ctlnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"acorn/internal/obs"
)

// waitGoroutines polls until the goroutine count returns to the bracket
// taken before the test, with small slack for runtime housekeeping.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// readReply reads one message from a raw connection with a deadline and
// returns its reason, failing unless it is an error frame.
func readReply(t *testing.T, conn net.Conn) string {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	env, err := readMsg(bufio.NewReader(conn), &frameDecoder{})
	if err != nil {
		t.Fatalf("no reply: %v", err)
	}
	if env.Type != TypeError {
		t.Fatalf("reply is %q, want an error frame", env.Type)
	}
	return env.Error.Reason
}

// sendFrame writes one frame holding the message put encodes.
func sendFrame(t *testing.T, conn net.Conn, put func(*frameEncoder)) {
	t.Helper()
	if err := writeOne(conn, 5*time.Second, put); err != nil {
		t.Fatal(err)
	}
}

// TestHostileInputs drives the server with protocol-hostile peers —
// an oversized frame, a JSON hello, a wrong-type first message, a bodyless
// report, duplicate hellos — and asserts a clean error reply for each,
// plus no leaked handler goroutines once everything is closed.
func TestHostileInputs(t *testing.T) {
	before := runtime.NumGoroutine()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(1)
	s.Obs = obs.NewRegistry()
	go func() { _ = s.Serve(l) }()
	addr := l.Addr().String()

	dial := func() net.Conn {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}

	t.Run("oversized frame", func(t *testing.T) {
		conn := dial()
		defer conn.Close()
		// A header promising one byte past the bound: the server must
		// reject it before reading any payload.
		hdr := []byte{frameMagic, frameVersion, 0, 0, 0, 0}
		binary.BigEndian.PutUint32(hdr[2:], MaxFrameBytes+1)
		if _, err := conn.Write(hdr); err != nil {
			t.Fatal(err)
		}
		if got := readReply(t, conn); !strings.Contains(got, "exceeds") {
			t.Errorf("reply %q does not name the size violation", got)
		}
	})

	t.Run("malformed json", func(t *testing.T) {
		conn := dial()
		defer conn.Close()
		rejects := counterValue(s.Obs, "acorn_ctlnet_hello_rejects_total")
		// A newline-JSON hello, without its newline: the first byte alone
		// must get it rejected, well inside the 10 s hello timeout.
		start := time.Now()
		if _, err := conn.Write([]byte(`{"type":"hello","hello":{"apID":"AP5","txPowerDBm":18}}`)); err != nil {
			t.Fatal(err)
		}
		if got := readReply(t, conn); !strings.Contains(got, "bad frame magic 0x7b") {
			t.Errorf("reply %q does not name the bad magic", got)
		}
		if waited := time.Since(start); waited > 2*time.Second {
			t.Errorf("JSON hello rejected after %v", waited)
		}
		if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("connection still open after the error frame: %v", err)
		}
		if got := counterValue(s.Obs, "acorn_ctlnet_hello_rejects_total"); got != rejects+1 {
			t.Errorf("hello rejects %d -> %d, want +1", rejects, got)
		}
	})

	t.Run("wrong-type envelope", func(t *testing.T) {
		conn := dial()
		defer conn.Close()
		sendFrame(t, conn, func(e *frameEncoder) {
			e.Assign(&Assign{APID: "AP1", WidthMHz: 20, Primary: 36})
		})
		if got := readReply(t, conn); !strings.Contains(got, "expected hello") {
			t.Errorf("unexpected reply: %q", got)
		}
	})

	t.Run("bodyless message after hello", func(t *testing.T) {
		conn := dial()
		defer conn.Close()
		sendFrame(t, conn, func(e *frameEncoder) { e.Hello(&Hello{APID: "AP7"}) })
		sendFrame(t, conn, func(e *frameEncoder) { e.buf = append(e.buf, kindReport) })
		if got := readReply(t, conn); !strings.Contains(got, "truncated") {
			t.Errorf("unexpected reply: %q", got)
		}
	})

	t.Run("duplicate hello", func(t *testing.T) {
		first := dial()
		defer first.Close()
		sendFrame(t, first, func(e *frameEncoder) { e.Hello(&Hello{APID: "AP9"}) })
		waitConnected(t, s, "AP9", true)
		second := dial()
		defer second.Close()
		sendFrame(t, second, func(e *frameEncoder) { e.Hello(&Hello{APID: "AP9"}) })
		if got := readReply(t, second); !strings.Contains(got, "duplicate") {
			t.Errorf("unexpected reply: %q", got)
		}
	})

	_ = s.Close()
	waitGoroutines(t, before)
}

// waitConnected polls until apID's session is (or is no longer)
// registered with the server.
func waitConnected(t *testing.T, s *Server, apID string, want bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		_, ok := s.agents[apID]
		s.mu.Unlock()
		if ok == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s connected = %v, want %v", apID, ok, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMuteClientReaped connects and sends nothing: the hello deadline must
// free the handler goroutine instead of letting the mute client pin it
// forever.
func TestMuteClientReaped(t *testing.T) {
	before := runtime.NumGoroutine()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(1)
	s.HelloTimeout = 100 * time.Millisecond
	go func() { _ = s.Serve(l) }()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Say nothing. The server must give up on us well before this read
	// deadline, closing the connection from its side.
	start := time.Now()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 256)
	for {
		if _, err := conn.Read(buf); err != nil {
			break
		}
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("mute client held its connection for %v", waited)
	}
	_ = s.Close()
	waitGoroutines(t, before)
}

// TestHostileNonFiniteReport puts NaN, ±Inf and ±1e300 in both float
// fields of the wire: a client's SNR in a report and the transmit power in
// a hello. Each value is rejected at decode with an error reply naming the
// field, and counted: a bad report as a dropped session, a bad hello as a
// hello reject. The AP keeps its stored report, no bad hello registers an
// AP, and the next pass leaves every assignment where it was.
func TestHostileNonFiniteReport(t *testing.T) {
	s, addr := streamServer(t, StreamConfig{}, nil, nil)
	peers := map[string]*Agent{}
	for _, id := range []string{"AP1", "AP2"} {
		a, err := DialOpts(addr, Hello{APID: id, TxPowerDBm: 18}, AgentOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		peers[id] = a
	}
	if err := peers["AP1"].SendReport(report([]string{"AP2", "AP3"}, 30, 28)); err != nil {
		t.Fatal(err)
	}
	if err := peers["AP2"].SendReport(report([]string{"AP1"}, 25, 20)); err != nil {
		t.Fatal(err)
	}

	// AP3 speaks the protocol by hand, so it can put any value on the wire.
	session := func(hello Hello) (net.Conn, *bufio.Reader) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		sendFrame(t, conn, func(e *frameEncoder) { e.Hello(&hello) })
		return conn, bufio.NewReader(conn)
	}
	ap3 := func(seq uint64, snr float64) Report {
		return Report{APID: "AP3", Seq: seq, Clients: []ClientObs{{ClientID: "a", SNR20dB: snr}}, Hears: []string{"AP1"}}
	}
	conn, _ := session(Hello{APID: "AP3", TxPowerDBm: 18})
	good := ap3(1, -5)
	sendFrame(t, conn, func(e *frameEncoder) { e.Report(&good) })
	waitForReports(t, s, 3)
	before, err := s.Reallocate()
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitConnected(t, s, "AP3", false)
	applied := counterValue(s.Obs, "acorn_ctlnet_reports_total")
	known := s.KnownAgents()

	// expectError reads past any replayed assignment to the error reply,
	// then expects the server to have closed the connection.
	expectError := func(t *testing.T, r *bufio.Reader, field string) {
		t.Helper()
		dec := &frameDecoder{}
		for {
			env, err := readMsg(r, dec)
			if err != nil {
				t.Fatalf("no error reply before the session ended: %v", err)
			}
			if env.Type == TypeError {
				if !strings.Contains(env.Error.Reason, field) {
					t.Fatalf("error reply %q does not name the %s", env.Error.Reason, field)
				}
				break
			}
		}
		if _, err := readMsg(r, dec); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("session not dropped after the error reply: %v", err)
		}
	}
	for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300} {
		t.Run(fmt.Sprintf("snr=%v", v), func(t *testing.T) {
			drops := counterValue(s.Obs, "acorn_ctlnet_session_rejects_total")
			conn, r := session(Hello{APID: "AP3", TxPowerDBm: 18})
			bad := ap3(uint64(i+2), v)
			sendFrame(t, conn, func(e *frameEncoder) { e.Report(&bad) })
			expectError(t, r, "client SNR")
			if got := counterValue(s.Obs, "acorn_ctlnet_session_rejects_total"); got != drops+1 {
				t.Fatalf("session rejects %d -> %d, want +1", drops, got)
			}
			waitConnected(t, s, "AP3", false)
		})
		t.Run(fmt.Sprintf("power=%v", v), func(t *testing.T) {
			rejects := counterValue(s.Obs, "acorn_ctlnet_hello_rejects_total")
			_, r := session(Hello{APID: "AP4", TxPowerDBm: v})
			expectError(t, r, "tx power")
			if got := counterValue(s.Obs, "acorn_ctlnet_hello_rejects_total"); got != rejects+1 {
				t.Fatalf("hello rejects %d -> %d, want +1", rejects, got)
			}
		})
	}

	s.mu.Lock()
	stored := s.reports["AP3"].rep
	s.mu.Unlock()
	if stored.Seq != 1 || len(stored.Clients) != 1 || stored.Clients[0].SNR20dB != -5 {
		t.Fatalf("stored report changed: %+v", stored)
	}
	if got := counterValue(s.Obs, "acorn_ctlnet_reports_total"); got != applied {
		t.Fatalf("reports applied %d -> %d: a bad report got through", applied, got)
	}
	if got := s.KnownAgents(); got != known {
		t.Fatalf("known APs %d -> %d: a bad hello registered", known, got)
	}
	after, err := s.Reallocate()
	if err != nil {
		t.Fatal(err)
	}
	for id, ch := range before {
		if after[id] != ch {
			t.Errorf("%s moved %v -> %v after the rejected values", id, ch, after[id])
		}
	}
}
