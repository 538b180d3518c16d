package ctlnet

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
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

// readReply reads one protocol line from a raw connection with a deadline.
func readReply(t *testing.T, conn net.Conn) string {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil && line == "" {
		t.Fatalf("no reply: %v", err)
	}
	return line
}

// TestHostileInputs drives the server with protocol-hostile peers —
// oversized lines, malformed JSON, wrong-type envelopes, duplicate hellos
// — and asserts a clean error reply for each, plus no leaked handler
// goroutines once everything is closed.
func TestHostileInputs(t *testing.T) {
	before := runtime.NumGoroutine()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(1)
	go func() { _ = s.Serve(l) }()
	addr := l.Addr().String()

	dial := func() net.Conn {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}

	t.Run("oversized line", func(t *testing.T) {
		conn := dial()
		defer conn.Close()
		// One byte past the bound before the newline arrives: the server
		// must reject rather than buffer an unbounded line.
		junk := append(bytes.Repeat([]byte("a"), MaxLineBytes+1), '\n')
		_ = conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(junk); err != nil {
			t.Fatalf("oversized write: %v", err)
		}
		if got := readReply(t, conn); !strings.Contains(got, "exceeds") {
			t.Errorf("reply %q does not name the size violation", got)
		}
	})

	t.Run("malformed json", func(t *testing.T) {
		conn := dial()
		defer conn.Close()
		if _, err := conn.Write([]byte("{not json at all\n")); err != nil {
			t.Fatal(err)
		}
		if got := readReply(t, conn); !strings.Contains(got, "error") {
			t.Errorf("unexpected reply: %q", got)
		}
	})

	t.Run("wrong-type envelope", func(t *testing.T) {
		conn := dial()
		defer conn.Close()
		err := writeMsg(conn, &Envelope{Type: TypeAssign, Assign: &Assign{
			APID: "AP1", WidthMHz: 20, Primary: 36,
		}})
		if err != nil {
			t.Fatal(err)
		}
		if got := readReply(t, conn); !strings.Contains(got, "expected hello") {
			t.Errorf("unexpected reply: %q", got)
		}
	})

	t.Run("bodyless message after hello", func(t *testing.T) {
		conn := dial()
		defer conn.Close()
		if err := writeMsg(conn, &Envelope{Type: TypeHello, Hello: &Hello{APID: "AP7"}}); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte(`{"type":"report"}` + "\n")); err != nil {
			t.Fatal(err)
		}
		if got := readReply(t, conn); !strings.Contains(got, "report without body") {
			t.Errorf("unexpected reply: %q", got)
		}
	})

	t.Run("duplicate hello", func(t *testing.T) {
		first := dial()
		defer first.Close()
		if err := writeMsg(first, &Envelope{Type: TypeHello, Hello: &Hello{APID: "AP9"}}); err != nil {
			t.Fatal(err)
		}
		// Wait until the first session is registered before racing it.
		deadline := time.Now().Add(5 * time.Second)
		for {
			s.mu.Lock()
			_, ok := s.agents["AP9"]
			s.mu.Unlock()
			if ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("first hello never registered")
			}
			time.Sleep(5 * time.Millisecond)
		}
		second := dial()
		defer second.Close()
		if err := writeMsg(second, &Envelope{Type: TypeHello, Hello: &Hello{APID: "AP9"}}); err != nil {
			t.Fatal(err)
		}
		if got := readReply(t, second); !strings.Contains(got, "duplicate") {
			t.Errorf("unexpected reply: %q", got)
		}
	})

	_ = s.Close()
	waitGoroutines(t, before)
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

// TestHostileNonFiniteReport: a v2 report whose client SNR is NaN is
// rejected at decode. The session gets an error reply and is dropped, the
// AP keeps its stored report, and the next pass leaves every assignment
// where it was.
func TestHostileNonFiniteReport(t *testing.T) {
	s, addr := streamServer(t, StreamConfig{}, nil, nil)
	peers := map[string]*Agent{}
	for _, id := range []string{"AP1", "AP2"} {
		a, err := DialOpts(addr, Hello{APID: id, TxPowerDBm: 18}, AgentOptions{Frame: FrameV2})
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

	// AP3 speaks v2 by hand, so it can put a NaN on the wire.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(conn)
	dec := &frameDecoder{}
	if err := writeMsg(conn, &Envelope{Type: TypeHello, Hello: &Hello{APID: "AP3", TxPowerDBm: 18, Frame: FrameV2}}); err != nil {
		t.Fatal(err)
	}
	if env, err := readMsgAny(r, dec); err != nil || env.Type != TypeFrame {
		t.Fatalf("want the frame ack, got %+v (err %v)", env, err)
	}
	sendFrame := func(rep Report) {
		var e frameEncoder
		e.begin()
		e.Report(&rep)
		data, err := e.finish()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(data); err != nil {
			t.Fatal(err)
		}
	}
	sendFrame(Report{APID: "AP3", Seq: 1, Clients: []ClientObs{{ClientID: "a", SNR20dB: -5}}, Hears: []string{"AP1"}})
	waitForReports(t, s, 3)
	before, err := s.Reallocate()
	if err != nil {
		t.Fatal(err)
	}
	applied := counterValue(s.Obs, "acorn_ctlnet_reports_total")

	sendFrame(Report{APID: "AP3", Seq: 2, Clients: []ClientObs{{ClientID: "a", SNR20dB: math.NaN()}}, Hears: []string{"AP1"}})
	for {
		env, err := readMsgAny(r, dec)
		if err != nil {
			t.Fatalf("no error reply before the session ended: %v", err)
		}
		if env.Type == TypeError {
			if !strings.Contains(env.Error.Reason, "non-finite") {
				t.Fatalf("error reply %q does not name the non-finite value", env.Error.Reason)
			}
			break
		}
	}
	if _, err := readMsgAny(r, dec); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("session not dropped after the error reply: %v", err)
	}

	s.mu.Lock()
	stored := s.reports["AP3"].rep
	s.mu.Unlock()
	if stored.Seq != 1 || len(stored.Clients) != 1 || stored.Clients[0].SNR20dB != -5 {
		t.Fatalf("stored report changed: %+v", stored)
	}
	if got := counterValue(s.Obs, "acorn_ctlnet_reports_total"); got != applied {
		t.Fatalf("reports applied %d -> %d: the NaN report got through", applied, got)
	}
	after, err := s.Reallocate()
	if err != nil {
		t.Fatal(err)
	}
	for id, ch := range before {
		if after[id] != ch {
			t.Errorf("%s moved %v -> %v after the rejected report", id, ch, after[id])
		}
	}
}
