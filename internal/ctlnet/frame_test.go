package ctlnet

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// frameReader wraps encoded wire bytes for readMsg.
func frameReader(data []byte) *bufio.Reader {
	return bufio.NewReader(bytes.NewReader(data))
}

// TestFrameRoundTripAllKinds encodes one frame carrying every message kind
// and decodes it back through readMsg, asserting field equality. The
// scratch-reuse contract means each envelope is checked before the next
// call.
func TestFrameRoundTripAllKinds(t *testing.T) {
	var enc frameEncoder
	enc.begin()
	enc.Hello(&Hello{APID: "ap-1", TxPowerDBm: 17.5})
	rep := Report{
		APID: "ap-1", Seq: 42,
		Clients: []ClientObs{{ClientID: "c0", SNR20dB: 23.25}, {ClientID: "c1", SNR20dB: 31}},
		Hears:   []string{"ap-2", "ap-3"},
	}
	enc.Report(&rep)
	enc.ReportSame(43)
	enc.Assign(&Assign{APID: "ap-1", WidthMHz: 40, Primary: 36, Secondary: 40})
	enc.Error("boom")
	enc.Ping(7)
	enc.Pong(8)
	data, err := enc.finish()
	if err != nil {
		t.Fatal(err)
	}

	r := frameReader(data)
	dec := &frameDecoder{}
	next := func() *Envelope {
		t.Helper()
		env, err := readMsg(r, dec)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		return env
	}

	if env := next(); env.Type != TypeHello || *env.Hello != (Hello{APID: "ap-1", TxPowerDBm: 17.5}) {
		t.Fatalf("hello = %+v", env.Hello)
	}
	env := next()
	if env.Type != TypeReport || env.Report.APID != rep.APID || env.Report.Seq != rep.Seq {
		t.Fatalf("report = %+v", env.Report)
	}
	if len(env.Report.Clients) != 2 || env.Report.Clients[1] != rep.Clients[1] {
		t.Fatalf("report clients = %+v", env.Report.Clients)
	}
	if len(env.Report.Hears) != 2 || env.Report.Hears[0] != "ap-2" || env.Report.Hears[1] != "ap-3" {
		t.Fatalf("report hears = %+v", env.Report.Hears)
	}
	env = next()
	if env.Type != TypeReport || env.Report.APID != rep.APID || env.Report.Seq != 43 {
		t.Fatalf("report-same = %+v", env.Report)
	}
	if len(env.Report.Clients) != 2 || env.Report.Clients[1] != rep.Clients[1] ||
		len(env.Report.Hears) != 2 || env.Report.Hears[0] != "ap-2" {
		t.Fatalf("report-same expansion = %+v", env.Report)
	}
	if env := next(); env.Type != TypeAssign || *env.Assign != (Assign{APID: "ap-1", WidthMHz: 40, Primary: 36, Secondary: 40}) {
		t.Fatalf("assign = %+v", env.Assign)
	}
	if env := next(); env.Type != TypeError || env.Error.Reason != "boom" {
		t.Fatalf("error = %+v", env.Error)
	}
	if env := next(); env.Type != TypePing || env.Ping.Seq != 7 {
		t.Fatalf("ping = %+v", env)
	}
	if env := next(); env.Type != TypePong || env.Pong.Seq != 8 {
		t.Fatalf("pong = %+v", env)
	}
	if _, err := readMsg(r, dec); err != io.EOF {
		t.Fatalf("after frame: err = %v, want EOF", err)
	}
}

// TestJSONLineRejected feeds a newline-JSON message, as an old peer would
// send, after a frame: the frame decodes, and the JSON line is a protocol
// violation named by its first byte.
func TestJSONLineRejected(t *testing.T) {
	var enc frameEncoder
	enc.begin()
	enc.Pong(1)
	f1, _ := enc.finish()
	var buf bytes.Buffer
	buf.Write(f1)
	buf.WriteString(`{"type":"ping","ping":{"seq":2}}` + "\n")

	r := frameReader(buf.Bytes())
	dec := &frameDecoder{}
	if env, err := readMsg(r, dec); err != nil || env.Type != TypePong || env.Pong.Seq != 1 {
		t.Fatalf("first frame = %+v, %v", env, err)
	}
	_, err := readMsg(r, dec)
	if !errors.Is(err, errMalformed) || !strings.Contains(err.Error(), "bad frame magic 0x7b") {
		t.Fatalf("JSON line: err = %v, want errMalformed naming the bad magic", err)
	}
}

// TestFrameBounds drives the decoder with structurally hostile frames and
// asserts each is rejected with errMalformed (protocol violation) or the
// proper transport error (truncation), never accepted or panicking.
func TestFrameBounds(t *testing.T) {
	valid := func() []byte {
		var enc frameEncoder
		enc.begin()
		enc.Pong(1)
		data, _ := enc.finish()
		return append([]byte(nil), data...)
	}()

	cases := []struct {
		name      string
		data      []byte
		malformed bool // else: expect a transport truncation error
	}{
		{"truncated header", valid[:3], true},
		{"wrong version", func() []byte {
			d := append([]byte(nil), valid...)
			d[1] = 3
			return d
		}(), true},
		{"zero payload", []byte{frameMagic, frameVersion, 0, 0, 0, 0}, true},
		{"oversized payload length", []byte{frameMagic, frameVersion, 0xFF, 0xFF, 0xFF, 0xFF}, true},
		{"truncated payload", valid[:len(valid)-1], false},
		{"unknown kind", func() []byte {
			var enc frameEncoder
			enc.begin()
			enc.buf = append(enc.buf, 99)
			d, _ := enc.finish()
			return append([]byte(nil), d...)
		}(), true},
		{"retired kind 7 is rejected", []byte{frameMagic, frameVersion, 0, 0, 0, 2, 7, 2}, true},
		{"oversized string", func() []byte {
			var enc frameEncoder
			enc.begin()
			enc.buf = append(enc.buf, kindError)
			enc.uint(maxFrameStr + 1)
			d, _ := enc.finish()
			return append([]byte(nil), d...)
		}(), true},
		{"oversized group", func() []byte {
			var enc frameEncoder
			enc.begin()
			enc.buf = append(enc.buf, kindReport)
			enc.str("ap")
			enc.uint(0)                 // seq
			enc.uint(maxFrameItems + 1) // client count
			d, _ := enc.finish()
			return append([]byte(nil), d...)
		}(), true},
		{"report-same without prior report", func() []byte {
			var enc frameEncoder
			enc.begin()
			enc.ReportSame(5)
			d, _ := enc.finish()
			return append([]byte(nil), d...)
		}(), true},
		{"truncated varint", func() []byte {
			var enc frameEncoder
			enc.begin()
			enc.buf = append(enc.buf, kindPong) // body missing entirely
			d, _ := enc.finish()
			return append([]byte(nil), d...)
		}(), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := readMsg(frameReader(tc.data), &frameDecoder{})
			if err == nil {
				t.Fatal("hostile frame accepted")
			}
			if tc.malformed && !errors.Is(err, errMalformed) {
				t.Fatalf("err = %v, want errMalformed", err)
			}
			if !tc.malformed && !(errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF)) {
				t.Fatalf("err = %v, want truncation", err)
			}
		})
	}
}

// captureConn records written bytes so tests can inspect and decode the
// exact wire traffic an outbox produced.
type captureConn struct {
	discardConn
	buf bytes.Buffer
}

func (c *captureConn) Write(p []byte) (int, error) { return c.buf.Write(p) }

// TestReportSameCollapses pins the steady-state chatter win: an unchanged
// report re-sent on a connection collapses to a seq-only report-same
// frame that the receiver expands to the full prior content, and any
// content change goes back to a full report.
func TestReportSameCollapses(t *testing.T) {
	cc := &captureConn{}
	ob := newOutbox(cc, 0, &outboxMetrics{})

	rep := func(seq uint64, snr float64) *Report {
		return &Report{
			APID: "ap-00042", Seq: seq,
			Clients: []ClientObs{{ClientID: "c0", SNR20dB: snr}, {ClientID: "c1", SNR20dB: 31.5}},
			Hears:   []string{"ap-00041", "ap-00043"},
		}
	}
	if err := ob.writeBatch(nil, nil, rep(1, 23.25), nil); err != nil {
		t.Fatal(err)
	}
	full := cc.buf.Len()
	if err := ob.writeBatch(nil, nil, rep(2, 23.25), nil); err != nil {
		t.Fatal(err)
	}
	same := cc.buf.Len() - full
	if same >= full/4 {
		t.Fatalf("report-same frame is %d bytes vs %d full: want at least 4x smaller", same, full)
	}
	if err := ob.writeBatch(nil, nil, rep(3, 24.0), nil); err != nil {
		t.Fatal(err)
	}

	r := frameReader(cc.buf.Bytes())
	dec := &frameDecoder{}
	for i, want := range []struct {
		seq uint64
		snr float64
	}{{1, 23.25}, {2, 23.25}, {3, 24.0}} {
		env, err := readMsg(r, dec)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if env.Type != TypeReport || env.Report.Seq != want.seq {
			t.Fatalf("msg %d = %+v", i, env)
		}
		if env.Report.APID != "ap-00042" || len(env.Report.Clients) != 2 ||
			env.Report.Clients[0].SNR20dB != want.snr || len(env.Report.Hears) != 2 {
			t.Fatalf("msg %d content = %+v", i, env.Report)
		}
	}
	if _, err := readMsg(r, dec); err != io.EOF {
		t.Fatalf("after stream: err = %v, want EOF", err)
	}
}
