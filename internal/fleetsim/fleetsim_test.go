package fleetsim

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count returns to the bracket
// taken before the test, with small slack for runtime housekeeping.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+4 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFleetConverges is the smoke fleet: a few hundred agents over the
// in-memory transport boot, report, and converge to the controller's
// assignment table, with zero membership loss. This
// is the target `make fleet-bench-smoke` runs.
func TestFleetConverges(t *testing.T) {
	before := runtime.NumGoroutine()
	agents := 200
	if testing.Short() {
		agents = 64
	}
	res, err := Run(context.Background(), Options{
		Agents:         agents,
		Duration:       500 * time.Millisecond,
		ReportInterval: 200 * time.Millisecond,
		Heartbeat:      250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("fleet did not converge")
	}
	if res.MembershipLost != 0 {
		t.Fatalf("controller lost %d memberships", res.MembershipLost)
	}
	if res.BytesOnWire == 0 {
		t.Fatal("no bytes measured on the wire")
	}
	waitGoroutines(t, before)
}

// TestFleetConvergesTCP runs the fleet over real loopback TCP instead of
// the in-memory transport. Small, because each agent costs two file
// descriptors.
func TestFleetConvergesTCP(t *testing.T) {
	res, err := Run(context.Background(), Options{
		Agents:         32,
		Transport:      "tcp",
		Duration:       300 * time.Millisecond,
		ReportInterval: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("tcp fleet did not converge")
	}
	if res.MembershipLost != 0 {
		t.Fatalf("controller lost %d memberships", res.MembershipLost)
	}
}
