package ctlnet

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"acorn/internal/wlan"
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

// FuzzDecodeFrame fuzzes the frame reader: arbitrary bytes must decode,
// hit errMalformed, or end in a transport error (io.ErrUnexpectedEOF for a
// frame whose header promises more payload than the stream holds) — never
// panic, and never yield a message with a missing body or a float out of
// range.
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
		e.Hello(&Hello{APID: "ap-1", TxPowerDBm: 20})
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
	f.Add([]byte{frameMagic, frameVersion, 0xFF, 0xFF, 0xFF, 0xFF, 0}) // oversized length
	f.Add([]byte{frameMagic, frameVersion, 0, 0, 0, 1, 99})            // unknown kind
	f.Add(frame(func(e *frameEncoder) { e.uint(1 << 40) }))            // garbage body
	f.Add(frame(func(e *frameEncoder) { e.ReportSame(3) }))            // report-same, no prior report
	// A JSON line, as an old peer would send, then a frame: the decoder
	// must stop at the line's first byte with errMalformed.
	mixed := []byte(`{"type":"ping","ping":{"seq":4}}` + "\n")
	f.Add(append(mixed, full...))
	// Out-of-range values: NaN, ±Inf or ±1e300 as an SNR or a power must
	// not decode.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300} {
		f.Add(frame(func(e *frameEncoder) {
			e.Report(&Report{APID: "ap-1", Seq: 9,
				Clients: []ClientObs{{ClientID: "c0", SNR20dB: 30}, {ClientID: "c1", SNR20dB: v}}})
		}))
		f.Add(frame(func(e *frameEncoder) { e.Hello(&Hello{APID: "ap-1", TxPowerDBm: v}) }))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		dec := &frameDecoder{}
		for i := 0; i < 64; i++ {
			env, err := readMsg(r, dec)
			if i == 0 && len(data) > 0 && data[0] != frameMagic && !errors.Is(err, errMalformed) {
				t.Fatalf("first byte 0x%02x not rejected: env %+v, err %v", data[0], env, err)
			}
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
// known type and the matching body present, and every float in it lies in
// its field's range (which excludes NaN and ±Inf).
func checkEnvelope(t *testing.T, env *Envelope) {
	t.Helper()
	within := func(what string, v, lo, hi float64) {
		if !(v >= lo && v <= hi) {
			t.Fatalf("decoder accepted %s %v outside [%v, %v]", what, v, lo, hi)
		}
	}
	ok := false
	switch env.Type {
	case TypeHello:
		ok = env.Hello != nil
		if ok {
			within("tx power", env.Hello.TxPowerDBm, wlan.MinTxPowerDBm, wlan.MaxTxPowerDBm)
		}
	case TypeReport:
		ok = env.Report != nil
		if ok {
			for _, c := range env.Report.Clients {
				within("client SNR", c.SNR20dB, -maxSNRdB, maxSNRdB)
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
	}
	if !ok {
		t.Fatalf("decoder accepted type %q with missing body", env.Type)
	}
}
