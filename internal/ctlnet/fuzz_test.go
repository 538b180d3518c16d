package ctlnet

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

// acceptable classifies decoder errors a hostile peer may provoke: protocol
// violations must carry the errMalformed tag (so the endpoint replies
// cleanly before dropping the peer) and truncation surfaces as the io
// errors the transport layer produces. Anything else — or a panic — is a
// bug.
func acceptable(err error) bool {
	return err == nil ||
		errors.Is(err, errMalformed) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF)
}

// FuzzDecodeEnvelope fuzzes the v1 JSON line decoder: arbitrary bytes must
// decode, hit errMalformed, or end in a transport error — never panic,
// never succeed with a body-less envelope.
func FuzzDecodeEnvelope(f *testing.F) {
	seed := func(env *Envelope) []byte {
		var buf bytes.Buffer
		if err := writeMsg(&buf, env); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(seed(&Envelope{Type: TypeHello, Hello: &Hello{APID: "ap-1", TxPowerDBm: 20}}))
	f.Add(seed(&Envelope{Type: TypeReport, Report: &Report{APID: "ap-1", Seq: 3,
		Clients: []ClientObs{{ClientID: "c0", SNR20dB: 25}}, Hears: []string{"ap-2"}}}))
	f.Add(seed(&Envelope{Type: TypeAssign, Assign: &Assign{APID: "ap-1", WidthMHz: 40, Primary: 36, Secondary: 40}}))
	f.Add(seed(&Envelope{Type: TypePing, Ping: &Heartbeat{Seq: 9}}))
	f.Add(seed(&Envelope{Type: TypeFrame, Frame: &FrameInfo{V: FrameV2}}))
	f.Add([]byte(`{"type":"hello"}` + "\n"))                  // type without body
	f.Add([]byte(`{"type":"warp"}` + "\n"))                   // unknown type
	f.Add([]byte(`{"type":` + "\n"))                          // broken JSON
	f.Add([]byte("\n"))                                       // empty line
	f.Add(bytes.Repeat([]byte("a"), 4096))                    // no newline at all
	f.Add([]byte(`{"type":"pong","pong":{"seq":-1}}` + "\n")) // type confusion

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for i := 0; i < 64; i++ {
			env, err := readMsg(r)
			if err != nil {
				if !acceptable(err) {
					t.Fatalf("unacceptable error: %v", err)
				}
				return
			}
			checkEnvelope(t, env)
		}
	})
}

// FuzzDecodeFrame fuzzes the mixed-framing reader (v2 frames and v1 lines
// on one stream) with the same contract, plus io.ErrUnexpectedEOF for
// frames whose header promises more payload than the stream holds.
func FuzzDecodeFrame(f *testing.F) {
	frame := func(build func(e *frameEncoder)) []byte {
		var e frameEncoder
		e.begin()
		build(&e)
		data, err := e.finish()
		if err != nil {
			f.Fatal(err)
		}
		return append([]byte(nil), data...)
	}
	full := frame(func(e *frameEncoder) {
		e.FrameAck(FrameV2)
		e.Hello(&Hello{APID: "ap-1", TxPowerDBm: 20, Frame: FrameV2})
		e.Report(&Report{APID: "ap-1", Seq: 7,
			Clients: []ClientObs{{ClientID: "c0", SNR20dB: 30}}, Hears: []string{"ap-2"}})
		e.ReportSame(8)
		e.Assign(&Assign{APID: "ap-1", WidthMHz: 20, Primary: 1})
		e.Error("nope")
		e.Ping(1)
		e.Pong(1)
	})
	f.Add(full)
	for _, cut := range []int{1, 3, frameHdrLen, frameHdrLen + 2, len(full) - 1} {
		f.Add(full[:cut])
	}
	verconf := append([]byte(nil), full...)
	verconf[1] = 3 // version confusion
	f.Add(verconf)
	f.Add([]byte{frameMagic, FrameV2, 0xFF, 0xFF, 0xFF, 0xFF, 0}) // oversized length
	f.Add([]byte{frameMagic, FrameV2, 0, 0, 0, 1, 99})            // unknown kind
	f.Add(frame(func(e *frameEncoder) { e.uint(1 << 40) }))       // garbage body
	f.Add(frame(func(e *frameEncoder) { e.ReportSame(3) }))       // report-same, no prior report
	// A JSON line then a frame on the same stream.
	mixed := []byte(`{"type":"ping","ping":{"seq":4}}` + "\n")
	f.Add(append(mixed, full...))
	// Non-finite values: a NaN or ±Inf SNR or power must not decode.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(frame(func(e *frameEncoder) {
			e.Report(&Report{APID: "ap-1", Seq: 9,
				Clients: []ClientObs{{ClientID: "c0", SNR20dB: 30}, {ClientID: "c1", SNR20dB: v}}})
		}))
		f.Add(frame(func(e *frameEncoder) { e.Hello(&Hello{APID: "ap-1", TxPowerDBm: v, Frame: FrameV2}) }))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		dec := &frameDecoder{}
		for i := 0; i < 64; i++ {
			env, err := readMsgAny(r, dec)
			if err != nil {
				if !acceptable(err) {
					t.Fatalf("unacceptable error: %v", err)
				}
				return
			}
			checkEnvelope(t, env)
		}
	})
}

// checkEnvelope asserts the decoder's invariant: a returned envelope has a
// known type and the matching body present, and every float in it is
// finite.
func checkEnvelope(t *testing.T, env *Envelope) {
	t.Helper()
	finite := func(what string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("decoder accepted non-finite %s %v", what, v)
		}
	}
	ok := false
	switch env.Type {
	case TypeHello:
		ok = env.Hello != nil
		if ok {
			finite("tx power", env.Hello.TxPowerDBm)
		}
	case TypeReport:
		ok = env.Report != nil
		if ok {
			for _, c := range env.Report.Clients {
				finite("client SNR", c.SNR20dB)
			}
		}
	case TypeAssign:
		ok = env.Assign != nil
	case TypeError:
		ok = env.Error != nil
	case TypePing:
		ok = env.Ping != nil
	case TypePong:
		ok = env.Pong != nil
	case TypeFrame:
		ok = env.Frame != nil
	}
	if !ok {
		t.Fatalf("decoder accepted type %q with missing body", env.Type)
	}
}
