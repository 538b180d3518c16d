package fleetsim

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// TestFleetStorm is the chaos fleet: 1k agents (256 under -short) with a
// quarter of the fleet's connections reset mid-run and another quarter
// firing report storms. The fleet must re-converge, the controller must
// keep every membership, and the reset agents must all come back (asserted
// on the obs counters the run harvests). Runs under -race in `make race`.
func TestFleetStorm(t *testing.T) {
	before := runtime.NumGoroutine()
	agents := 1000
	dur := 2 * time.Second
	if testing.Short() {
		agents = 256
		dur = time.Second
	}
	res, err := Run(context.Background(), Options{
		Agents:         agents,
		Duration:       dur,
		ReportInterval: 300 * time.Millisecond,
		Heartbeat:      500 * time.Millisecond,
		ChurnFrac:      0.25,
		StormFrac:      0.25,
		StormBurst:     20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("storm fleet did not re-converge")
	}
	if res.MembershipLost != 0 {
		t.Fatalf("controller lost %d memberships through churn", res.MembershipLost)
	}
	if want := uint64(float64(agents) * 0.20); res.Resets < want {
		t.Fatalf("only %d connection resets, want >= %d (20%% of fleet)", res.Resets, want)
	}
	// Every churned agent reconnected: one session per boot plus one per
	// reset (the counter is fleet-wide, from the reconnect supervisors).
	if want := uint64(agents) + res.Resets; res.Sessions < want {
		t.Fatalf("sessions = %d, want >= %d (boot + reconnects)", res.Sessions, want)
	}
	if res.PushErrors > res.Resets {
		t.Fatalf("push errors (%d) exceed connection resets (%d)", res.PushErrors, res.Resets)
	}
	waitGoroutines(t, before)
}
