package ctlnet

// The wire format: length-prefixed binary frames carrying batches of
// messages. Every byte either end writes belongs to a frame
//
//	0xAC | version (1 byte) | payload length (u32 big-endian) | payload
//
// where the payload is a sequence of kind-tagged message bodies. Integers
// are uvarints, floats are 8-byte IEEE 754 bits, strings are
// length-prefixed. One frame carries a whole batch — an assignment push
// plus pending pongs, or a report plus heartbeats — in one write. The
// agent's hello is the first message of the first frame on a connection;
// a first byte other than 0xAC is rejected before anything else is read.
//
// Decoding reuses a per-connection payload buffer and scratch message
// bodies, so the steady-state report/push path allocates near zero;
// Report bodies are the exception, freshly allocated because the server
// retains them.

import (
	"bufio"
	"encoding/binary"
	"io"
	"math"

	"acorn/internal/wlan"
)

const (
	frameMagic   = 0xAC
	frameVersion = 2
	frameHdrLen  = 6 // magic + version + u32 payload length

	// MaxFrameBytes bounds one frame payload.
	MaxFrameBytes = 1 << 20

	// maxFrameStr and maxFrameItems bound strings and repeated groups
	// inside one message, so a hostile length prefix cannot demand a huge
	// allocation before the payload bound would catch it.
	maxFrameStr   = 1 << 16
	maxFrameItems = 1 << 16

	// maxSNRdB bounds a reported client SNR in magnitude. The link model
	// spans about -72 to +94 dB at legal transmit powers; anything beyond
	// this is not a measurement.
	maxSNRdB = 150
)

// Message kind tags. The values are the wire format: never renumber them.
const (
	kindHello = iota + 1
	kindReport
	kindAssign
	kindError
	kindPing
	kindPong
	_ // 7 is retired (a framing acknowledgement); it must stay unknown

	// kindReportSame re-submits the connection's previous report under a
	// new sequence number, kolide-style: a fleet's steady state is mostly
	// agents re-confirming an unchanged measurement, and confirming it
	// should cost a handful of bytes, not a re-encoding of every client.
	// Valid only after a full kindReport on the same connection.
	kindReportSame
)

// frameEncoder builds one outbound frame. The buffer is reused across
// frames by the owning outbox, so steady-state encoding allocates nothing.
type frameEncoder struct{ buf []byte }

// begin starts a new frame, reserving the header.
func (e *frameEncoder) begin() {
	if e.buf == nil {
		e.buf = make([]byte, 0, 512)
	}
	e.buf = append(e.buf[:0], frameMagic, frameVersion, 0, 0, 0, 0)
}

// finish patches the payload length and returns the wire bytes, which
// alias the encoder's buffer (valid until the next begin).
func (e *frameEncoder) finish() ([]byte, error) {
	payload := len(e.buf) - frameHdrLen
	if payload <= 0 {
		return nil, protoErrf("empty frame")
	}
	if payload > MaxFrameBytes {
		return nil, protoErrf("frame payload %d exceeds %d bytes", payload, MaxFrameBytes)
	}
	binary.BigEndian.PutUint32(e.buf[2:frameHdrLen], uint32(payload))
	return e.buf, nil
}

func (e *frameEncoder) uint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *frameEncoder) f64(v float64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, math.Float64bits(v))
}
func (e *frameEncoder) str(s string) {
	e.uint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *frameEncoder) Hello(h *Hello) {
	e.buf = append(e.buf, kindHello)
	e.str(h.APID)
	e.f64(h.TxPowerDBm)
}

func (e *frameEncoder) Report(rep *Report) {
	e.buf = append(e.buf, kindReport)
	e.str(rep.APID)
	e.uint(rep.Seq)
	e.uint(uint64(len(rep.Clients)))
	for i := range rep.Clients {
		e.str(rep.Clients[i].ClientID)
		e.f64(rep.Clients[i].SNR20dB)
	}
	e.uint(uint64(len(rep.Hears)))
	for _, h := range rep.Hears {
		e.str(h)
	}
}

// ReportSame re-submits the receiver's last decoded report with a new
// sequence number. The encoder must only emit it after a full Report on
// the same connection (the outbox tracks that).
func (e *frameEncoder) ReportSame(seq uint64) {
	e.buf = append(e.buf, kindReportSame)
	e.uint(seq)
}

func (e *frameEncoder) Assign(a *Assign) {
	e.buf = append(e.buf, kindAssign)
	e.str(a.APID)
	e.uint(uint64(a.WidthMHz))
	e.uint(uint64(a.Primary))
	e.uint(uint64(a.Secondary))
}

func (e *frameEncoder) Error(reason string) {
	e.buf = append(e.buf, kindError)
	e.str(reason)
}

func (e *frameEncoder) Ping(seq uint64) {
	e.buf = append(e.buf, kindPing)
	e.uint(seq)
}

func (e *frameEncoder) Pong(seq uint64) {
	e.buf = append(e.buf, kindPong)
	e.uint(seq)
}

// frameDecoder incrementally yields the messages of received frames. The
// payload buffer and the scalar message bodies are reused across messages:
// an Envelope returned by next (and by readMsg) is valid only until the
// next call. Report bodies are freshly allocated — callers retain them.
type frameDecoder struct {
	payload []byte
	off     int

	env   Envelope
	hb    Heartbeat
	as    Assign
	errb  Error
	hello Hello

	// lastRep is the most recent fully-decoded report on this connection,
	// the expansion base for kindReportSame. The expanded Report shares its
	// Clients/Hears slices — reports are immutable once decoded.
	lastRep *Report
}

// readFrame reads one complete frame header and payload from r. Transport
// truncation surfaces as io errors; anything structurally wrong is tagged
// errMalformed.
func (d *frameDecoder) readFrame(r *bufio.Reader) error {
	var hdr [frameHdrLen]byte
	// The magic is checked alone first, so a peer speaking anything else
	// is rejected on its first byte rather than after a full header.
	b, err := r.ReadByte()
	if err != nil {
		return err
	}
	if b != frameMagic {
		return protoErrf("bad frame magic 0x%02x", b)
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return protoErrf("truncated frame header")
		}
		return err
	}
	if hdr[1] != frameVersion {
		return protoErrf("unsupported frame version %d", hdr[1])
	}
	n := binary.BigEndian.Uint32(hdr[2:frameHdrLen])
	if n == 0 {
		return protoErrf("empty frame")
	}
	if n > MaxFrameBytes {
		return protoErrf("frame payload %d exceeds %d bytes", n, MaxFrameBytes)
	}
	if cap(d.payload) < int(n) {
		d.payload = make([]byte, n)
	} else {
		d.payload = d.payload[:n]
	}
	if _, err := io.ReadFull(r, d.payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	d.off = 0
	return nil
}

func (d *frameDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.payload[d.off:])
	if n <= 0 {
		return 0, protoErrf("truncated varint in frame")
	}
	d.off += n
	return v, nil
}

// count reads a repeated-group length, bounded by maxFrameItems.
func (d *frameDecoder) count() (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > maxFrameItems {
		return 0, protoErrf("frame group of %d items exceeds %d", v, maxFrameItems)
	}
	return int(v), nil
}

// f64 reads a float and rejects it, NaN included, unless it lies in
// [lo, hi]; what names the field in the error.
func (d *frameDecoder) f64(what string, lo, hi float64) (float64, error) {
	if d.off+8 > len(d.payload) {
		return 0, protoErrf("truncated float in frame")
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.payload[d.off:]))
	d.off += 8
	if !(v >= lo && v <= hi) {
		return 0, protoErrf("%s %v outside [%v, %v]", what, v, lo, hi)
	}
	return v, nil
}

func (d *frameDecoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxFrameStr {
		return "", protoErrf("frame string of %d bytes exceeds %d", n, maxFrameStr)
	}
	if d.off+int(n) > len(d.payload) {
		return "", protoErrf("truncated string in frame")
	}
	s := string(d.payload[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

// next decodes the next message of the current frame, or returns (nil, nil)
// when the frame is exhausted.
func (d *frameDecoder) next() (*Envelope, error) {
	if d.off >= len(d.payload) {
		return nil, nil
	}
	kind := d.payload[d.off]
	d.off++
	env := &d.env
	*env = Envelope{}
	var err error
	switch kind {
	case kindHello:
		var h Hello
		if h.APID, err = d.str(); err != nil {
			return nil, err
		}
		if h.TxPowerDBm, err = d.f64("tx power dBm", wlan.MinTxPowerDBm, wlan.MaxTxPowerDBm); err != nil {
			return nil, err
		}
		d.hello = h
		env.Type, env.Hello = TypeHello, &d.hello
	case kindReport:
		rep := &Report{}
		if rep.APID, err = d.str(); err != nil {
			return nil, err
		}
		if rep.Seq, err = d.uvarint(); err != nil {
			return nil, err
		}
		nc, err := d.count()
		if err != nil {
			return nil, err
		}
		if nc > 0 {
			rep.Clients = make([]ClientObs, nc)
		}
		for i := range rep.Clients {
			if rep.Clients[i].ClientID, err = d.str(); err != nil {
				return nil, err
			}
			if rep.Clients[i].SNR20dB, err = d.f64("client SNR dB", -maxSNRdB, maxSNRdB); err != nil {
				return nil, err
			}
		}
		nh, err := d.count()
		if err != nil {
			return nil, err
		}
		if nh > 0 {
			rep.Hears = make([]string, nh)
		}
		for i := range rep.Hears {
			if rep.Hears[i], err = d.str(); err != nil {
				return nil, err
			}
		}
		d.lastRep = rep
		env.Type, env.Report = TypeReport, rep
	case kindReportSame:
		var seq uint64
		if seq, err = d.uvarint(); err != nil {
			return nil, err
		}
		if d.lastRep == nil {
			return nil, protoErrf("report-same without a prior report")
		}
		rep := &Report{
			APID:    d.lastRep.APID,
			Seq:     seq,
			Clients: d.lastRep.Clients,
			Hears:   d.lastRep.Hears,
		}
		d.lastRep = rep
		env.Type, env.Report = TypeReport, rep
	case kindAssign:
		var a Assign
		if a.APID, err = d.str(); err != nil {
			return nil, err
		}
		var w, p, sec uint64
		if w, err = d.uvarint(); err != nil {
			return nil, err
		}
		if p, err = d.uvarint(); err != nil {
			return nil, err
		}
		if sec, err = d.uvarint(); err != nil {
			return nil, err
		}
		a.WidthMHz, a.Primary, a.Secondary = int(w), int(p), int(sec)
		d.as = a
		env.Type, env.Assign = TypeAssign, &d.as
	case kindError:
		var reason string
		if reason, err = d.str(); err != nil {
			return nil, err
		}
		d.errb = Error{Reason: reason}
		env.Type, env.Error = TypeError, &d.errb
	case kindPing:
		var seq uint64
		if seq, err = d.uvarint(); err != nil {
			return nil, err
		}
		d.hb = Heartbeat{Seq: seq}
		env.Type, env.Ping = TypePing, &d.hb
	case kindPong:
		var seq uint64
		if seq, err = d.uvarint(); err != nil {
			return nil, err
		}
		d.hb = Heartbeat{Seq: seq}
		env.Type, env.Pong = TypePong, &d.hb
	default:
		return nil, protoErrf("unknown frame kind %d", kind)
	}
	return env, nil
}

// readMsg returns the next message of the current frame, or else reads
// the next frame from r. The returned Envelope may alias dec's scratch
// bodies; it is valid only until the next call (Report bodies are always
// fresh).
func readMsg(r *bufio.Reader, dec *frameDecoder) (*Envelope, error) {
	for {
		if env, err := dec.next(); env != nil || err != nil {
			return env, err
		}
		if err := dec.readFrame(r); err != nil {
			return nil, err
		}
	}
}
