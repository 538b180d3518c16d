// Package faultnet wraps net.Conn and net.Listener with deterministic,
// seedable fault injection: delays, connection resets, corrupted bytes,
// partial writes, and silently dropped writes. It exists so the control
// plane's resilience machinery (heartbeats, deadlines, reconnect, replay)
// can be exercised by chaos tests against realistic transport misbehavior
// instead of only the happy path of net.Pipe.
//
// All randomness flows from a single seeded source, so a failing chaos run
// reproduces exactly. An Injector can be disabled at runtime to let a test
// end in a calm network and assert convergence deterministically.
package faultnet

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ErrInjectedReset is returned from Read/Write when the injector tears the
// connection down mid-operation.
var ErrInjectedReset = errors.New("faultnet: injected connection reset")

// ErrInjectedShortWrite is returned when the injector truncates a write but
// leaves the connection open — the recoverable cousin of PartialWriteProb.
// Callers that treat any write error as fatal will reconnect; callers that
// resume from the returned count keep the connection.
var ErrInjectedShortWrite = errors.New("faultnet: injected short write")

// Config sets the fault mix. All probabilities are in [0, 1].
type Config struct {
	// Seed drives every random decision. The zero seed is valid (and
	// deterministic), like math/rand.
	Seed int64
	// ConnResetProb is the chance, rolled once per connection, that the
	// connection is doomed: after 1..ResetAfterOps reads/writes it is
	// closed and the operation returns ErrInjectedReset.
	ConnResetProb float64
	// ResetAfterOps bounds how many operations a doomed connection
	// survives. Zero means 8.
	ResetAfterOps int
	// DelayProb is the per-operation chance of sleeping up to MaxDelay
	// before the operation proceeds.
	DelayProb float64
	// MaxDelay bounds injected delays. Zero disables delays.
	MaxDelay time.Duration
	// LatencyMin/LatencyMax model a per-connection path latency: each
	// wrapped connection draws one base latency uniformly from
	// [LatencyMin, LatencyMax] at wrap time and every operation on it
	// sleeps that long (unlike DelayProb, which is per-operation and
	// memoryless — a slow link is slow for its whole life). Zero
	// LatencyMax disables.
	LatencyMin, LatencyMax time.Duration
	// Jitter adds a per-operation uniform draw from [0, Jitter) on top of
	// the connection's base latency. Zero disables.
	Jitter time.Duration
	// ShortWriteProb is the per-write chance of writing only a prefix and
	// returning ErrInjectedShortWrite with the connection left open.
	ShortWriteProb float64
	// CorruptProb is the per-write chance of flipping one byte.
	CorruptProb float64
	// PartialWriteProb is the per-write chance of writing only a prefix
	// and then resetting the connection (a short write with an error, as
	// net.Conn requires).
	PartialWriteProb float64
	// DropWriteProb is the per-write chance of reporting success while
	// writing nothing — a blackholed packet.
	DropWriteProb float64
}

// Stats counts injected faults. Read a snapshot with Injector.Stats.
type Stats struct {
	Conns         int64 // connections wrapped
	Resets        int64 // connections reset (doomed countdowns that fired)
	Delays        int64 // delays injected
	LatencyOps    int64 // operations slowed by per-connection latency/jitter
	Corruptions   int64 // writes with a flipped byte
	PartialWrites int64 // truncated writes that also reset the connection
	ShortWrites   int64 // truncated writes with the connection left open
	DroppedWrites int64 // blackholed writes
}

// Injector owns the fault configuration, RNG, and counters shared by every
// connection it wraps. Safe for concurrent use.
type Injector struct {
	mu       sync.Mutex
	cfg      Config
	rng      *rand.Rand
	stats    Stats
	disabled bool
}

// NewInjector returns an injector for the given fault mix.
func NewInjector(cfg Config) *Injector {
	if cfg.ResetAfterOps <= 0 {
		cfg.ResetAfterOps = 8
	}
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Disable turns all fault injection off; wrapped connections behave like
// their underlying transport from now on. Chaos tests call this to end in
// a calm network.
func (inj *Injector) Disable() {
	inj.mu.Lock()
	inj.disabled = true
	inj.mu.Unlock()
}

// Stats returns a snapshot of the fault counters.
func (inj *Injector) Stats() Stats {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.stats
}

// roll returns true with probability p (false when disabled).
func (inj *Injector) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.disabled {
		return false
	}
	return inj.rng.Float64() < p
}

// intn draws from [0, n) under the shared lock.
func (inj *Injector) intn(n int) int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.rng.Intn(n)
}

func (inj *Injector) count(f func(*Stats)) {
	inj.mu.Lock()
	f(&inj.stats)
	inj.mu.Unlock()
}

// maybeDelay sleeps a random duration up to MaxDelay with DelayProb.
func (inj *Injector) maybeDelay() {
	if inj.cfg.MaxDelay <= 0 || !inj.roll(inj.cfg.DelayProb) {
		return
	}
	inj.count(func(s *Stats) { s.Delays++ })
	time.Sleep(time.Duration(inj.intn(int(inj.cfg.MaxDelay))))
}

// opLatency returns the injected latency for one operation on a connection
// with base latency base: base plus a fresh jitter draw. Zero when disabled.
func (inj *Injector) opLatency(base time.Duration) time.Duration {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.disabled {
		return 0
	}
	d := base
	if inj.cfg.Jitter > 0 {
		d += time.Duration(inj.rng.Intn(int(inj.cfg.Jitter)))
	}
	return d
}

// WrapConn returns c with this injector's faults applied to every
// operation.
func (inj *Injector) WrapConn(c net.Conn) net.Conn {
	fc := &conn{Conn: c, inj: inj, opsLeft: -1}
	inj.count(func(s *Stats) { s.Conns++ })
	if inj.roll(inj.cfg.ConnResetProb) {
		fc.opsLeft = 1 + inj.intn(inj.cfg.ResetAfterOps)
	}
	if span := inj.cfg.LatencyMax; span > 0 {
		// One base latency per connection: a slow path stays slow.
		lo := inj.cfg.LatencyMin
		if lo > span {
			lo = span
		}
		fc.baseLat = lo
		if span > lo {
			fc.baseLat += time.Duration(inj.intn(int(span - lo)))
		}
	}
	return fc
}

// WrapListener returns l with every accepted connection wrapped.
func (inj *Injector) WrapListener(l net.Listener) net.Listener {
	return &listener{Listener: l, inj: inj}
}

type listener struct {
	net.Listener
	inj *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.inj.WrapConn(c), nil
}

// conn applies the injector's faults around an underlying net.Conn.
type conn struct {
	net.Conn
	inj *Injector

	// baseLat is the connection's drawn path latency (zero: fast path).
	baseLat time.Duration

	mu      sync.Mutex
	opsLeft int // -1: not doomed; otherwise ops until the injected reset
}

// maybeLatency applies the connection's base latency plus jitter.
func (c *conn) maybeLatency() {
	if c.baseLat <= 0 && c.inj.cfg.Jitter <= 0 {
		return
	}
	if d := c.inj.opLatency(c.baseLat); d > 0 {
		c.inj.count(func(s *Stats) { s.LatencyOps++ })
		time.Sleep(d)
	}
}

// countdown decrements the doom counter and reports whether the reset
// fires on this operation.
func (c *conn) countdown() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.opsLeft < 0 {
		return false
	}
	c.opsLeft--
	return c.opsLeft <= 0
}

// reset closes the underlying connection and records the fault.
func (c *conn) reset() error {
	c.inj.count(func(s *Stats) { s.Resets++ })
	_ = c.Conn.Close()
	return ErrInjectedReset
}

func (c *conn) Read(p []byte) (int, error) {
	c.maybeLatency()
	c.inj.maybeDelay()
	if c.countdown() {
		return 0, c.reset()
	}
	return c.Conn.Read(p)
}

func (c *conn) Write(p []byte) (int, error) {
	c.maybeLatency()
	c.inj.maybeDelay()
	if c.countdown() {
		return 0, c.reset()
	}
	if c.inj.roll(c.inj.cfg.DropWriteProb) {
		c.inj.count(func(s *Stats) { s.DroppedWrites++ })
		return len(p), nil
	}
	if len(p) > 1 && c.inj.roll(c.inj.cfg.ShortWriteProb) {
		// A prefix goes out and the connection survives; the caller sees a
		// short-write error and must resynchronize (for a length-prefixed
		// frame protocol that means the peer reads a torn frame).
		c.inj.count(func(s *Stats) { s.ShortWrites++ })
		n, err := c.Conn.Write(p[:1+c.inj.intn(len(p)-1)])
		if err != nil {
			return n, err
		}
		return n, ErrInjectedShortWrite
	}
	if len(p) > 1 && c.inj.roll(c.inj.cfg.PartialWriteProb) {
		c.inj.count(func(s *Stats) { s.PartialWrites++ })
		n, err := c.Conn.Write(p[:1+c.inj.intn(len(p)-1)])
		_ = c.reset()
		if err != nil {
			return n, err
		}
		return n, ErrInjectedReset
	}
	if len(p) > 0 && c.inj.roll(c.inj.cfg.CorruptProb) {
		c.inj.count(func(s *Stats) { s.Corruptions++ })
		corrupted := make([]byte, len(p))
		copy(corrupted, p)
		corrupted[c.inj.intn(len(corrupted))] ^= 0x20
		return c.Conn.Write(corrupted)
	}
	return c.Conn.Write(p)
}
