package ctlnet

import (
	"net"
	"testing"
	"time"
)

// discardConn is a net.Conn that swallows writes: the push benchmarks
// measure encode + batch cost, not a transport.
type discardConn struct{}

func (discardConn) Read(p []byte) (int, error)         { return 0, nil }
func (discardConn) Write(p []byte) (int, error)        { return len(p), nil }
func (discardConn) Close() error                       { return nil }
func (discardConn) LocalAddr() net.Addr                { return nil }
func (discardConn) RemoteAddr() net.Addr               { return nil }
func (discardConn) SetDeadline(t time.Time) error      { return nil }
func (discardConn) SetReadDeadline(t time.Time) error  { return nil }
func (discardConn) SetWriteDeadline(t time.Time) error { return nil }

// pushWave returns one server push wave over a fixed set of connections:
// enqueue an assignment into each connection's outbox and flush it. running
// is pre-set so the enqueue never spawns the writer goroutine — flush runs
// inline, keeping the measurement deterministic. Every wave alternates the
// assignment (tracked here, not by the caller) so state dedup can never
// elide a write. The first wave is run before returning, so buffers are
// warm and the steady state is what gets measured.
func pushWave(tb testing.TB) func() {
	const conns = 100
	m := &outboxMetrics{}
	obs := make([]*outbox, conns)
	for i := range obs {
		obs[i] = newOutbox(discardConn{}, 0, m)
		obs[i].running = true // suppress the writer goroutine; we flush inline
	}
	alt := [2]Assign{
		{APID: "ap-0", WidthMHz: 20, Primary: 1},
		{APID: "ap-0", WidthMHz: 40, Primary: 36, Secondary: 40},
	}
	parity := 0
	wave := func() {
		a := alt[parity%2]
		parity++
		at := time.Now()
		for _, ob := range obs {
			if out := ob.enqueueAssign(a, at); out != pushEnqueued {
				tb.Fatalf("enqueue outcome %d", out)
			}
			if _, err := ob.flush(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	wave()
	return wave
}

// TestServerPushAllocFree pins the steady-state push path at zero
// allocations per 100-connection wave.
func TestServerPushAllocFree(t *testing.T) {
	if got := testing.AllocsPerRun(50, pushWave(t)); got != 0 {
		t.Fatalf("push wave allocates %v times, want 0", got)
	}
}

// BenchmarkServerPushV2 measures one op = a 100-connection push wave, and
// reports the wave's allocations as allocs_per_push_batch. The name keeps
// the BENCH_fleet.json row from the days of two wire framings comparable.
func BenchmarkServerPushV2(b *testing.B) {
	wave := pushWave(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wave()
	}
	b.StopTimer()
	b.ReportMetric(testing.AllocsPerRun(50, wave), "allocs_per_push_batch")
}
