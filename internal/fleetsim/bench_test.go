package fleetsim

import (
	"context"
	"testing"
	"time"
)

// BenchmarkFleetWireV2 runs one fixed fleet profile (seed, topology and
// cadence pinned) and reports its bytes on the wire. The name keeps the
// BENCH_fleet.json row from the days of two wire framings comparable.
func BenchmarkFleetWireV2(b *testing.B) {
	agents := 300
	if testing.Short() {
		agents = 64
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), Options{
			Agents:         agents,
			Duration:       1500 * time.Millisecond,
			ReportInterval: 200 * time.Millisecond,
			Heartbeat:      300 * time.Millisecond,
			Seed:           42,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("fleet did not converge")
		}
		b.ReportMetric(float64(res.BytesOnWire), "bytes_on_wire")
		b.ReportMetric(res.ReportsPerSec, "reports_per_s")
	}
}

// BenchmarkFleetConverge10k is the committed BENCH_fleet headline: a 10k-
// agent in-process fleet boots, converges, and sustains a steady phase,
// with convergence time, push tail latency, and sustained report rate
// reported as benchjson extras. Skipped under -short (it runs for minutes
// on one core).
func BenchmarkFleetConverge10k(b *testing.B) {
	if testing.Short() {
		b.Skip("10k-agent fleet is a long run; skipped under -short")
	}
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), Options{
			Agents:         10000,
			Duration:       10 * time.Second,
			ReportInterval: 2 * time.Second,
			Heartbeat:      5 * time.Second,
			ChurnFrac:      0.02,
			StormFrac:      0.02,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("10k fleet did not converge")
		}
		if res.MembershipLost != 0 {
			b.Fatalf("controller lost %d memberships", res.MembershipLost)
		}
		b.ReportMetric(res.ConvergeTime.Seconds(), "converge_s")
		b.ReportMetric(float64(res.Agents)/res.ConvergeTime.Seconds(), "agents_per_s")
		b.ReportMetric(float64(res.PushP50.Microseconds())/1000, "push_p50_ms")
		b.ReportMetric(float64(res.PushP99.Microseconds())/1000, "push_p99_ms")
		b.ReportMetric(res.ReportsPerSec, "reports_per_s")
		b.ReportMetric(float64(res.BytesOnWire), "bytes_on_wire")
		b.ReportMetric(float64(res.Resets), "resets")
	}
}
