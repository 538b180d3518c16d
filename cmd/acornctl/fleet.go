package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"acorn/internal/fleetsim"
)

// fleet runs the in-process fleet simulator: thousands of reconnecting
// agents against a real controller, measuring convergence, push
// tail latency, bytes on the wire, and behavior under churn and storms.
func fleet(args []string) {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	agents := fs.Int("agents", 1000, "fleet size (in-process agents)")
	duration := fs.Duration("duration", 3*time.Second, "steady-state phase length")
	reportPeriod := fs.Duration("report-period", 2*time.Second, "per-agent report cadence, jittered +/-50%")
	heartbeat := fs.Duration("heartbeat", 5*time.Second, "agent ping cadence")
	churn := fs.Float64("churn", 0, "fraction of agents whose connection is killed once mid-run")
	storm := fs.Float64("storm", 0, "fraction of agents that fire one back-to-back report burst")
	transport := fs.String("transport", "pipe", "agent transport: pipe (in-memory, fd-free) or tcp (loopback)")
	seed := fs.Int64("seed", 42, "topology, jitter, churn and storm seed")
	asJSON := fs.Bool("json", false, "emit the fleetsim.Result as JSON")
	logLevel := fs.String("log-level", "info", "log threshold: debug|info|warn|error|off")
	_ = fs.Parse(args)
	setLevel(*logLevel)

	res, err := fleetsim.Run(context.Background(), fleetsim.Options{
		Agents:         *agents,
		Duration:       *duration,
		ReportInterval: *reportPeriod,
		Heartbeat:      *heartbeat,
		ChurnFrac:      *churn,
		StormFrac:      *storm,
		Transport:      *transport,
		Seed:           *seed,
		Log:            logger,
	})
	if err != nil {
		logger.Fatalf("acornctl fleet: %v", err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			logger.Fatalf("acornctl fleet: %v", err)
		}
		return
	}
	fmt.Printf("fleet: %d agents (%s transport)\n", res.Agents, *transport)
	fmt.Printf("  converged:      %v in %v\n", res.Converged, res.ConvergeTime.Round(time.Millisecond))
	fmt.Printf("  reports:        %d applied (%.0f/s sustained)\n",
		res.ReportsApplied, res.ReportsPerSec)
	fmt.Printf("  pushes:         %d enqueued, %d deduped, %d errors\n",
		res.PushesEnqueued, res.PushesDeduped, res.PushErrors)
	fmt.Printf("  push latency:   p50 %v, p99 %v\n",
		res.PushP50.Round(time.Microsecond), res.PushP99.Round(time.Microsecond))
	fmt.Printf("  wire:           %d bytes total (server tx+rx)\n", res.BytesOnWire)
	fmt.Printf("  churn:          %d resets, %d sessions, %d memberships lost\n",
		res.Resets, res.Sessions, res.MembershipLost)
	if len(res.ReallocStages) > 0 {
		fmt.Printf("  realloc stages:")
		for _, st := range []string{"queue", "view", "assoc", "alloc", "gate", "push"} {
			if ns, ok := res.ReallocStages[st]; ok {
				fmt.Printf(" %s=%v", st, time.Duration(ns).Round(time.Microsecond))
			}
		}
		fmt.Println()
	}
}
