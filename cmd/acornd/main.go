// Command acornd runs the ACORN controller on a WLAN described in a JSON
// topology file (or a built-in demo topology) and prints the resulting
// configuration and throughput report, optionally alongside the legacy
// baseline for comparison.
//
// Usage:
//
//	acornd [-topology file.json] [-seed N] [-compare] [-json]
//	       [-stream [-switch-margin 0.02] [-switch-streak 1]
//	        [-switch-rate 12] [-switch-burst 3]]
//
// With -stream the local solve is event-driven: each client is fed through
// the streaming controller as an arrival event (Algorithm 1 admission plus
// a bounded local re-optimization with every proposed channel switch gated
// by goodput hysteresis and a per-AP switch-rate token bucket), and the
// stream's own statistics are reported alongside the configuration.
//
// With -controller the topology is not solved locally: acornd instead
// measures it (client SNRs and the AP hear-graph) and streams those
// measurements to a running `acornctl serve` controller, one reconnecting
// agent per AP, printing the channel assignments it gets back:
//
//	acornd -topology file.json -controller host:7431
//	       [-heartbeat 15s] [-backoff-min 500ms] [-backoff-max 1m]
//	       [-report-period 30s] [-duration 0]
//
// Observability. -obs-addr starts the live introspection server
// (Prometheus-text /metrics, /healthz, /debug/vars, /debug/pprof/);
// -obs-hold keeps the process alive after a local solve so the endpoints
// can be scraped; -log-level sets the leveled logger's threshold; -trace
// streams the solver's JSONL convergence trace to a file ("-" = stdout).
// With -stream, -trace-sample N traces every Nth pipeline event as a span
// (per-stage receive-to-applied timings, served as JSONL at /debug/trace),
// and -slo-p99-ms B watches the windowed p99 decision latency against a
// budget of B milliseconds at /debug/slo, optionally capturing a CPU
// profile to -slo-profile when the budget is breached.
//
// Topology file format:
//
//	{
//	  "aps":     [{"id": "AP1", "x": 0, "y": 0, "txPower": 18}, ...],
//	  "clients": [{"id": "u1", "x": 5, "y": 3,
//	               "extraLoss": {"AP1": 20}}, ...]
//	}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"acorn"
	"acorn/internal/core"
	"acorn/internal/obs"
	"acorn/internal/profiling"
	"acorn/internal/topofile"
	"acorn/internal/units"
)

// logger is the process logger; -log-level re-levels it.
var logger = obs.DefaultLogger.Named("acornd")

func main() {
	topoPath := flag.String("topology", "", "JSON topology file (empty = built-in demo)")
	seed := flag.Int64("seed", 1, "seed for the random initial channel assignment")
	compare := flag.Bool("compare", false, "also run the legacy [17] baseline")
	asJSON := flag.Bool("json", false, "emit the report as JSON")
	dot := flag.Bool("dot", false, "emit the configured interference graph in Graphviz DOT")
	controller := flag.String("controller", "", "stream measurements to this acornctl controller instead of solving locally")
	heartbeat := flag.Duration("heartbeat", 15*time.Second, "agent ping interval (with -controller)")
	backoffMin := flag.Duration("backoff-min", 500*time.Millisecond, "first reconnect delay (with -controller)")
	backoffMax := flag.Duration("backoff-max", time.Minute, "reconnect delay cap (with -controller)")
	reportPeriod := flag.Duration("report-period", 30*time.Second, "measurement report interval (with -controller)")
	duration := flag.Duration("duration", 0, "how long to run the agents; 0 = forever (with -controller)")
	logLevel := flag.String("log-level", "info", "log threshold: debug|info|warn|error|off")
	obsAddr := flag.String("obs-addr", "", "serve /metrics, /healthz, /debug/vars and pprof on this address")
	obsHold := flag.Duration("obs-hold", 0, "keep the process (and -obs-addr endpoints) alive this long after a local solve")
	tracePath := flag.String("trace", "", "write the solver's JSONL convergence trace to this file (\"-\" = stdout)")
	allocWorkers := flag.Int("alloc-workers", 0, "parallel rank-evaluation workers for Algorithm 2 (0 = GOMAXPROCS)")
	assocWorkers := flag.Int("assoc-workers", 0, "parallel roaming-sweep workers for Algorithm 1 (0 = GOMAXPROCS)")
	shardWorkers := flag.Int("shard-workers", 0, "component-sharded Algorithm 2: solve independent contention components on this many workers (0 = off)")
	spatialIndex := flag.Bool("spatial-index", true, "prune the contention-graph pair scan with the uniform-grid spatial index (exact — the graph is bit-identical; false forces the full O(P²) scan)")
	gridCellM := flag.Float64("grid-cell-m", 0, "spatial-index grid cell size in meters (0 = the carrier-sense cutoff radius)")
	stream := flag.Bool("stream", false, "solve event-driven: feed each client through the streaming controller as an arrival event instead of one batch AutoConfigure, and report the stream statistics")
	switchMargin := flag.Float64("switch-margin", core.DefaultGateMargin, "hysteresis: minimum relative goodput gain a channel switch must offer (with -stream; negative disables)")
	switchStreak := flag.Int("switch-streak", 1, "hysteresis: consecutive evaluations that must propose the same switch before it commits (with -stream; default 1 so a one-shot solve can commit)")
	switchRate := flag.Float64("switch-rate", core.DefaultGateRatePerHour, "per-AP sustained switch-rate limit, switches/hour (with -stream; negative disables)")
	switchBurst := flag.Int("switch-burst", core.DefaultGateBurst, "per-AP switch token-bucket burst capacity (with -stream)")
	traceSample := flag.Int("trace-sample", 0, "per-event pipeline span tracing: trace every Nth stream event, served at /debug/trace (0 = off, 1 = everything; with -stream)")
	traceRing := flag.Int("trace-ring", 0, "finished-span ring capacity behind /debug/trace (0 = default 4096)")
	sloP99 := flag.Float64("slo-p99-ms", 0, "decision-latency SLO: breach when the windowed p99 exceeds this many milliseconds, served at /debug/slo (0 = off; with -stream)")
	sloProfile := flag.String("slo-profile", "", "capture a 5s CPU profile to this file on the first SLO breach per cooldown (with -slo-p99-ms)")
	flag.Parse()

	lvl, err := obs.ParseLevel(*logLevel)
	if err != nil {
		logger.Fatalf("acornd: %v", err)
	}
	logger.SetLevel(lvl)

	net, clients, err := loadTopology(*topoPath)
	if err != nil {
		logger.Fatalf("acornd: %v", err)
	}

	// Tracing and SLO monitoring are built before the introspection server
	// so /debug/trace and /debug/slo can serve them.
	var tracer *obs.Tracer
	if *stream && *traceSample > 0 {
		tracer = core.NewStreamTracer(*traceRing, *traceSample, nil)
	}
	var slo *obs.SLO
	if *stream && *sloP99 > 0 {
		profilePath := *sloProfile
		slo = obs.NewSLO(obs.SLOOptions{
			Name:   "stream_decision_p99",
			Budget: time.Duration(*sloP99 * float64(time.Millisecond)),
			OnBreach: func(b obs.Breach) {
				logger.Warn("SLO breach", "slo", b.Name, "p", b.Quantile,
					"value", b.Value, "budget", b.Budget, "window", b.Count)
				if profilePath == "" {
					return
				}
				go func() {
					if err := profiling.CaptureCPU(profilePath, 5*time.Second); err != nil {
						logger.Warn("SLO breach profile capture failed", "err", err)
					} else {
						logger.Warn("SLO breach CPU profile captured", "path", profilePath)
					}
				}()
			},
		})
	}

	health := obs.NewHealth()
	var obsSrv *obs.IntrospectionServer
	if *obsAddr != "" {
		srvOpts := obs.ServerOptions{Health: health, Log: logger, Tracer: tracer}
		if slo != nil {
			srvOpts.SLOs = []*obs.SLO{slo}
		}
		obsSrv, err = obs.Serve(*obsAddr, srvOpts)
		if err != nil {
			logger.Fatalf("acornd: %v", err)
		}
		defer obsSrv.Close(0)
	}

	if *controller != "" {
		runAgents(net, clients, agentConfig{
			addr:         *controller,
			heartbeat:    *heartbeat,
			backoffMin:   *backoffMin,
			backoffMax:   *backoffMax,
			reportPeriod: *reportPeriod,
			duration:     *duration,
		}, health)
		return
	}

	ctrl, err := acorn.NewController(net, *seed)
	if err != nil {
		logger.Fatalf("acornd: %v", err)
	}
	ctrl.Alloc.Workers = *allocWorkers
	ctrl.Alloc.ShardWorkers = *shardWorkers
	ctrl.Alloc.NoSpatialIndex = !*spatialIndex
	ctrl.Alloc.GridCellM = *gridCellM
	ctrl.Assoc.Workers = *assocWorkers
	if *tracePath != "" {
		w := os.Stdout
		if *tracePath != "-" {
			f, err := os.Create(*tracePath)
			if err != nil {
				logger.Fatalf("acornd: %v", err)
			}
			defer f.Close()
			w = f
		}
		ctrl.Trace = core.NewTraceWriter(w)
	}
	var solved atomic.Bool
	health.Register("solver", func() obs.CheckResult {
		if solved.Load() {
			return obs.OK("auto-configuration complete")
		}
		return obs.OK("solving")
	})
	var report *acorn.NetworkReport
	var streamStats *core.StreamStats
	if *stream {
		// Event-driven solve: each client is one arrival event through the
		// streaming controller (admission + bounded local re-optimization,
		// every switch judged by the anti-flap gate), instead of one batch
		// AutoConfigure. Pump synchronously until the queue drains.
		sc := core.NewStreamController(ctrl, core.StreamOptions{
			Gate: core.GateOptions{
				Margin:      *switchMargin,
				Streak:      *switchStreak,
				RatePerHour: *switchRate,
				Burst:       *switchBurst,
			},
			Tracer: tracer,
			SLO:    slo,
		})
		for _, c := range clients {
			sc.Offer(core.Event{Kind: core.EventArrive, Client: c})
		}
		for sc.Pump() > 0 {
		}
		// Anchor with the periodic tick (roaming sweep + whole-network
		// pass) so the one-shot solve does not depend on admission order.
		sc.FullPass()
		sc.Stop()
		st := sc.Stats()
		streamStats = &st
		report = net.Evaluate(ctrl.ConfigView())
	} else {
		report = ctrl.AutoConfigure(clients)
	}
	solved.Store(true)
	if ctrl.Trace != nil {
		if err := ctrl.Trace.Err(); err != nil {
			logger.Fatalf("acornd: trace: %v", err)
		}
	}
	cfg := ctrl.Config()
	defer holdObs(obsSrv, *obsHold)

	if *asJSON {
		out := map[string]any{"acorn": report}
		if streamStats != nil {
			out["stream"] = streamStats
		}
		if *compare {
			legacy := acorn.LegacyConfigure(net, clients)
			out["legacy"] = net.Evaluate(legacy)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			logger.Fatalf("acornd: %v", err)
		}
		return
	}

	if *dot {
		fmt.Print(net.InterferenceDOT(cfg))
		return
	}

	fmt.Println("ACORN configuration:")
	printReport(net, cfg, report)
	if st := streamStats; st != nil {
		fmt.Printf("  stream: %d events applied (%d coalesced), %d local re-opts, %d switches; gate: %d proposals, %d approved, %d margin / %d streak / %d rate vetoes\n",
			st.Applied, st.Coalesced, st.LocalReopts, st.SwitchesApplied,
			st.Gate.Proposals, st.Gate.Approved,
			st.Gate.MarginVetoes, st.Gate.StreakVetoes, st.Gate.RateVetoes)
	}
	if *compare {
		legacyCfg := acorn.LegacyConfigure(net, clients)
		legacyRep := net.Evaluate(legacyCfg)
		fmt.Println("\nLegacy [17] configuration:")
		printReport(net, legacyCfg, legacyRep)
		fmt.Printf("\nACORN/legacy total UDP throughput: %.2f / %.2f Mbit/s (%.2fx)\n",
			report.TotalUDP, legacyRep.TotalUDP, report.TotalUDP/legacyRep.TotalUDP)
	}
}

// holdObs keeps the process alive after a one-shot solve so the -obs-addr
// endpoints stay scrapeable (the obs smoke test depends on this).
func holdObs(srv *obs.IntrospectionServer, d time.Duration) {
	if srv == nil || d <= 0 {
		return
	}
	logger.Infof("holding obs endpoints on %s for %v", srv.Addr(), d)
	time.Sleep(d)
}

func printReport(net *acorn.Network, cfg *acorn.Config, rep *acorn.NetworkReport) {
	for _, cell := range rep.Cells {
		fmt.Printf("  %-6s %-14v M=%.2f  UDP %7.2f  TCP %7.2f  clients %v\n",
			cell.APID, cell.Channel, cell.AccessShare,
			cell.ThroughputUDP, cell.ThroughputTCP, cfg.ClientsOf(cell.APID))
	}
	fmt.Printf("  total: UDP %.2f Mbit/s, TCP %.2f Mbit/s\n", rep.TotalUDP, rep.TotalTCP)
}

func loadTopology(path string) (*acorn.Network, []*acorn.Client, error) {
	if path == "" {
		return demoTopology()
	}
	return topofile.Load(path)
}

// demoTopology is a small mixed-quality WLAN showing off both ACORN
// mechanisms: quality grouping and width selection.
func demoTopology() (*acorn.Network, []*acorn.Client, error) {
	aps := []*acorn.AP{
		{ID: "AP1", Pos: acorn.Point{X: 0, Y: 0}, TxPower: 18},
		{ID: "AP2", Pos: acorn.Point{X: 120, Y: 0}, TxPower: 18},
		{ID: "AP3", Pos: acorn.Point{X: 60, Y: 100}, TxPower: 18},
	}
	wall := func(db float64) map[string]units.DB {
		m := make(map[string]units.DB, len(aps))
		for _, ap := range aps {
			m[ap.ID] = units.DB(db)
		}
		return m
	}
	clients := []*acorn.Client{
		{ID: "u1", Pos: acorn.Point{X: 4, Y: 3}},
		{ID: "u2", Pos: acorn.Point{X: 7, Y: -4}},
		{ID: "u3", Pos: acorn.Point{X: 116, Y: 5}},
		{ID: "u4", Pos: acorn.Point{X: 124, Y: -3}, ExtraLoss: wall(18)},
		{ID: "u5", Pos: acorn.Point{X: 63, Y: 104}, ExtraLoss: wall(54)},
		{ID: "u6", Pos: acorn.Point{X: 55, Y: 97}, ExtraLoss: wall(53)},
	}
	return acorn.NewNetwork(aps, clients), clients, nil
}
