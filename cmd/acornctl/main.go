// Command acornctl runs ACORN's networked control plane.
//
//	acornctl serve -addr :7431 [-period 30m] [-report-ttl 3h]
//	              [-hello-timeout 10s] [-peer-timeout 90s]
//	              [-stream] [-stream-watchdog 0]
//	              [-switch-margin 0.02] [-switch-streak 2]
//	              [-switch-rate 12] [-switch-burst 3]
//	    Run the central controller: accept agent connections and
//	    reallocate channels every period. Reports older than -report-ttl
//	    are quarantined at reallocation time (the AP's last-known-good
//	    view is still used, and the quarantine is logged); if every
//	    report is stale the reallocation is skipped.
//
//	    With -stream the controller is event-driven instead of periodic:
//	    every fresh report marks its AP dirty, and a reallocation
//	    restricted to the dirty APs' hear-graph neighbourhood runs at once.
//	    Reports that land while a pass runs coalesce per AP into the next
//	    pass. Every proposed channel switch is gated by goodput hysteresis
//	    (-switch-margin sustained over -switch-streak consecutive
//	    evaluations) and a per-AP token bucket (-switch-rate switches/hour,
//	    burst -switch-burst), so the network never flaps no matter how
//	    noisy the reports. A watchdog forces a
//	    full pass when the last one is older than -stream-watchdog
//	    (default: -period), so vetoed or failed work is never stranded.
//
//	acornctl agent -addr host:7431 -id AP1 [-report meas.json]
//	              [-period 30s] [-heartbeat 15s]
//	              [-backoff-min 500ms] [-backoff-max 1m]
//	    Run one AP agent with automatic reconnection: jittered
//	    exponential backoff between attempts, hello re-sent on every
//	    attempt, and the last report replayed after each reconnect. The
//	    report file holds a ctlnet.Report in JSON ("clients" and "hears"
//	    fields); omitted, the agent reports a clientless AP.
//
//	acornctl demo [-chaos]
//	    Spin up a controller and three in-process agents with canned
//	    measurements, run one reallocation, and print the assignments —
//	    the zero-dependency way to watch the protocol work. With -chaos
//	    the wire is wrapped in a fault injector (connection resets,
//	    delays, corrupt bytes) and the agents reconnect through the
//	    faults until the allocation converges anyway.
//
//	acornctl fleet [-agents 1000]
//	              [-duration 3s] [-report-period 2s] [-heartbeat 5s]
//	              [-churn 0.1] [-storm 0.1] [-transport pipe] [-json]
//	    Boot an in-process fleet of reconnecting agents against a real
//	    controller and measure the control plane at scale:
//	    convergence time, sustained report rate, push tail latency,
//	    bytes on the wire, and recovery from connection churn and
//	    report storms. The default pipe transport needs no file
//	    descriptors, so fleets of tens of thousands fit in one process.
//
//	acornctl obs -addr host:port
//	    Fetch a running process's introspection endpoints (-obs-addr on
//	    acornd or acornctl serve/agent) and pretty-print the health
//	    checks and a metrics snapshot.
//
//	acornctl trace -addr host:port [-n 200] [-top 10]
//	    Fetch /debug/trace and /debug/slo from a process started with
//	    -trace-sample (and optionally -slo-p99-ms) and print the slowest
//	    recent spans with per-stage latency breakdowns plus SLO status.
//
// serve also accepts -trace-sample N (record every Nth reallocation pass
// as a span: queue/view/assoc/alloc/gate/push stage timings at
// /debug/trace) and, with -stream, -slo-p99-ms B (watch the windowed p99
// of receipt-to-push latency against a budget of B ms at /debug/slo,
// optionally capturing a CPU profile to -slo-profile on breach).
//
// serve and agent accept -obs-addr to expose their own /metrics, /healthz,
// /debug/vars and pprof endpoints, and -log-level to set the log
// threshold (debug|info|warn|error|off).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"acorn/internal/core"
	"acorn/internal/ctlnet"
	"acorn/internal/faultnet"
	"acorn/internal/obs"
	"acorn/internal/profiling"
	"acorn/internal/spectrum"
)

// logger is the process logger; -log-level re-levels it.
var logger = obs.DefaultLogger.Named("acornctl")

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: acornctl serve|agent|demo|fleet|obs|trace [flags]")
		os.Exit(2)
	}
	switch os.Args[1] {
	case "serve":
		serve(os.Args[2:])
	case "agent":
		agent(os.Args[2:])
	case "demo":
		demo(os.Args[2:])
	case "fleet":
		fleet(os.Args[2:])
	case "obs":
		obsCmd(os.Args[2:])
	case "trace":
		traceCmd(os.Args[2:])
	default:
		fmt.Fprintf(os.Stderr, "acornctl: unknown command %q\n", os.Args[1])
		os.Exit(2)
	}
}

// setLevel applies a -log-level flag value to the process logger.
func setLevel(s string) {
	lvl, err := obs.ParseLevel(s)
	if err != nil {
		logger.Fatalf("acornctl: %v", err)
	}
	logger.SetLevel(lvl)
}

// serveObs starts the introspection server when addr is non-empty.
func serveObs(addr string, health *obs.Health) *obs.IntrospectionServer {
	if addr == "" {
		return nil
	}
	srv, err := obs.Serve(addr, obs.ServerOptions{Health: health, Log: logger})
	if err != nil {
		logger.Fatalf("acornctl: %v", err)
	}
	return srv
}

func serve(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":7431", "listen address")
	period := fs.Duration("period", 30*time.Minute, "reallocation period (the paper's T)")
	seed := fs.Int64("seed", 1, "allocation seed")
	reportTTL := fs.Duration("report-ttl", 3*time.Hour, "max report age before quarantine (0 disables aging)")
	helloTimeout := fs.Duration("hello-timeout", ctlnet.DefaultHelloTimeout, "deadline for the first message on a new connection")
	peerTimeout := fs.Duration("peer-timeout", ctlnet.DefaultPeerTimeout, "idle deadline between agent messages; keep it >= 3x the agents' -heartbeat")
	logLevel := fs.String("log-level", "info", "log threshold: debug|info|warn|error|off")
	obsAddr := fs.String("obs-addr", "", "serve /metrics, /healthz, /debug/vars and pprof on this address")
	allocWorkers := fs.Int("alloc-workers", 0, "parallel rank-evaluation workers for Algorithm 2 (0 = GOMAXPROCS)")
	shardWorkers := fs.Int("shard-workers", 0, "component-sharded Algorithm 2: solve independent contention components on this many workers (0 = off)")
	stream := fs.Bool("stream", false, "event-driven mode: on every report that changes an AP's measurements, reallocate the hear-graph components of its neighbourhood at once instead of waiting for -period (reports arriving during a pass batch into the next)")
	streamWatchdog := fs.Duration("stream-watchdog", 0, "max age of the last full pass before the stream forces one (with -stream; 0 = -period, negative disables)")
	switchMargin := fs.Float64("switch-margin", core.DefaultGateMargin, "hysteresis: minimum relative goodput gain a channel switch must offer (with -stream; negative disables)")
	switchStreak := fs.Int("switch-streak", core.DefaultGateStreak, "hysteresis: consecutive evaluations that must propose the same switch before it commits (with -stream)")
	switchRate := fs.Float64("switch-rate", core.DefaultGateRatePerHour, "per-AP sustained switch-rate limit, switches/hour (with -stream; negative disables)")
	switchBurst := fs.Int("switch-burst", core.DefaultGateBurst, "per-AP switch token-bucket burst capacity (with -stream)")
	traceSample := fs.Int("trace-sample", 0, "pass span tracing: trace every Nth reallocation pass, served at /debug/trace (0 = off, 1 = everything)")
	traceRing := fs.Int("trace-ring", 0, "finished-span ring capacity behind /debug/trace (0 = default 4096)")
	sloP99 := fs.Float64("slo-p99-ms", 0, "pass-latency SLO: breach when the windowed p99 of receipt-to-push latency exceeds this many milliseconds, served at /debug/slo (0 = off; with -stream)")
	sloProfile := fs.String("slo-profile", "", "capture a 5s CPU profile to this file on the first SLO breach per cooldown (with -slo-p99-ms)")
	_ = fs.Parse(args)
	setLevel(*logLevel)

	s := ctlnet.NewServer(*seed)
	s.Log = logger
	var tracer *obs.Tracer
	if *traceSample > 0 {
		tracer = ctlnet.NewServerTracer(*traceRing, *traceSample, nil)
		s.Tracer = tracer
	}
	var slo *obs.SLO
	if *stream && *sloP99 > 0 {
		profilePath := *sloProfile
		slo = obs.NewSLO(obs.SLOOptions{
			Name:   "ctlnet_pass_p99",
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
		s.SLO = slo
	}
	s.Alloc.Workers = *allocWorkers
	s.Alloc.ShardWorkers = *shardWorkers
	s.ReportTTL = *reportTTL
	s.HelloTimeout = *helloTimeout
	s.PeerTimeout = *peerTimeout
	if *stream {
		wd := *streamWatchdog
		if wd == 0 {
			wd = *period
		}
		s.Stream = ctlnet.StreamConfig{
			Enabled:        true,
			WatchdogPeriod: wd,
			Gate: core.GateOptions{
				Margin:      *switchMargin,
				Streak:      *switchStreak,
				RatePerHour: *switchRate,
				Burst:       *switchBurst,
			},
		}
	}

	health := obs.NewHealth()
	health.Register("agents", func() obs.CheckResult {
		ids := s.ConnectedAgents()
		if len(ids) == 0 {
			return obs.Bad("no agents connected")
		}
		return obs.OK(fmt.Sprintf("%d connected: %v", len(ids), ids))
	})
	maxAge := 3 * *period
	health.Register("reallocation", func() obs.CheckResult {
		last, ok := s.LastReallocation()
		if !ok {
			return obs.OK("no reallocation yet")
		}
		age := time.Since(last).Round(time.Second)
		if age > maxAge {
			return obs.Bad(fmt.Sprintf("last reallocation %v ago (period %v)", age, *period))
		}
		return obs.OK(fmt.Sprintf("last reallocation %v ago", age))
	})
	if *obsAddr != "" {
		srvOpts := obs.ServerOptions{Health: health, Log: logger, Tracer: tracer}
		if slo != nil {
			srvOpts.SLOs = []*obs.SLO{slo}
		}
		srv, err := obs.Serve(*obsAddr, srvOpts)
		if err != nil {
			logger.Fatalf("acornctl: %v", err)
		}
		defer srv.Close(0)
	}

	if *stream {
		// The stream's own watchdog forces the periodic full passes, so the
		// ticker would only double them up.
		logger.Infof("stream mode: event-driven reallocation, full pass at least every %v", s.Stream.WatchdogPeriod)
	} else {
		go func() {
			ticker := time.NewTicker(*period)
			defer ticker.Stop()
			for range ticker.C {
				if assigns, err := s.Reallocate(); err == nil {
					logger.Infof("reallocated %d APs", len(assigns))
				} else {
					logger.Warnf("reallocation skipped: %v", err)
				}
			}
		}()
	}
	if err := ctlnet.ListenAndServe(*addr, s); err != nil {
		logger.Fatalf("acornctl: %v", err)
	}
}

func agent(args []string) {
	fs := flag.NewFlagSet("agent", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7431", "controller address")
	id := fs.String("id", "", "AP id (required)")
	txPower := fs.Float64("txpower", 18, "AP transmit power in dBm")
	reportPath := fs.String("report", "", "JSON file with the ctlnet.Report to stream (empty = clientless)")
	period := fs.Duration("period", 30*time.Second, "measurement report interval")
	heartbeat := fs.Duration("heartbeat", ctlnet.DefaultHeartbeatInterval, "ping interval keeping the session alive")
	backoffMin := fs.Duration("backoff-min", 500*time.Millisecond, "first reconnect delay")
	backoffMax := fs.Duration("backoff-max", time.Minute, "reconnect delay cap")
	logLevel := fs.String("log-level", "info", "log threshold: debug|info|warn|error|off")
	obsAddr := fs.String("obs-addr", "", "serve /metrics, /healthz, /debug/vars and pprof on this address")
	_ = fs.Parse(args)
	setLevel(*logLevel)
	if *id == "" {
		logger.Fatalf("acornctl agent: -id is required")
	}
	rep := ctlnet.Report{}
	if *reportPath != "" {
		data, err := os.ReadFile(*reportPath)
		if err != nil {
			logger.Fatalf("acornctl agent: %v", err)
		}
		if err := json.Unmarshal(data, &rep); err != nil {
			logger.Fatalf("acornctl agent: bad report file: %v", err)
		}
	}

	ra, err := ctlnet.NewReconnectingAgent(context.Background(), *addr,
		ctlnet.Hello{APID: *id, TxPowerDBm: *txPower},
		ctlnet.ReconnectOptions{
			Backoff: ctlnet.Backoff{Min: *backoffMin, Max: *backoffMax},
			Agent:   ctlnet.AgentOptions{HeartbeatInterval: *heartbeat},
			Log:     logger,
		})
	if err != nil {
		logger.Fatalf("acornctl agent: %v", err)
	}
	defer ra.Close()

	health := obs.NewHealth()
	health.Register("controller", func() obs.CheckResult {
		if ra.Connected() {
			return obs.OK(fmt.Sprintf("connected to %s (%d sessions, rtt sampled via metrics)", *addr, ra.Sessions()))
		}
		detail := "disconnected"
		if err := ra.LastErr(); err != nil {
			detail = fmt.Sprintf("disconnected: %v", err)
		}
		return obs.Bad(detail)
	})
	if srv := serveObs(*obsAddr, health); srv != nil {
		defer srv.Close(0)
	}

	if err := ra.SendReport(rep); err != nil {
		logger.Fatalf("acornctl agent: %v", err)
	}
	logger.Infof("agent %s reporting to %s every %v", *id, *addr, *period)
	ticker := time.NewTicker(*period)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if err := ra.SendReport(rep); err != nil {
				logger.Fatalf("acornctl agent: %v", err)
			}
		case ch := <-ra.Updates():
			logger.Info("assignment received", "ap", *id, "channel", ch)
		}
	}
}

func demo(args []string) {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	chaos := fs.Bool("chaos", false, "inject connection resets, delays, and corrupt bytes on the wire")
	_ = fs.Parse(args)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		logger.Fatalf("acornctl demo: %v", err)
	}
	var inj *faultnet.Injector
	listener := l
	s := ctlnet.NewServer(1)
	s.Log = logger
	if *chaos {
		inj = faultnet.NewInjector(faultnet.Config{
			Seed:          time.Now().UnixNano(),
			ConnResetProb: 0.5,
			ResetAfterOps: 10,
			DelayProb:     0.25,
			MaxDelay:      2 * time.Millisecond,
			CorruptProb:   0.03,
		})
		listener = inj.WrapListener(l)
		s.HelloTimeout = 300 * time.Millisecond
		s.PeerTimeout = 500 * time.Millisecond
		fmt.Println("chaos mode: ~50% of connections get reset, messages are delayed and occasionally corrupted")
	}
	go func() { _ = s.Serve(listener) }()
	defer s.Close()

	// Three APs: two contend with each other; AP3 is isolated with poor
	// clients.
	specs := []struct {
		id    string
		hears []string
		snrs  []float64
	}{
		{"AP1", []string{"AP2"}, []float64{28, 31}},
		{"AP2", []string{"AP1"}, []float64{24, 26}},
		{"AP3", nil, []float64{-1.5, -1.0}},
	}
	buildReport := func(hears []string, snrs []float64) ctlnet.Report {
		rep := ctlnet.Report{Hears: hears}
		for i, snr := range snrs {
			rep.Clients = append(rep.Clients, ctlnet.ClientObs{
				ClientID: fmt.Sprintf("sta%d", i+1), SNR20dB: snr,
			})
		}
		return rep
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var agents []*ctlnet.ReconnectingAgent
	for _, sp := range specs {
		ra, err := ctlnet.NewReconnectingAgent(ctx, l.Addr().String(),
			ctlnet.Hello{APID: sp.id, TxPowerDBm: 18},
			ctlnet.ReconnectOptions{
				Backoff: ctlnet.Backoff{Min: 5 * time.Millisecond, Max: 50 * time.Millisecond},
				Agent: ctlnet.AgentOptions{
					HeartbeatInterval: 20 * time.Millisecond,
					PeerTimeout:       500 * time.Millisecond,
				},
			})
		if err != nil {
			logger.Fatalf("acornctl demo: %v", err)
		}
		defer ra.Close()
		if err := ra.SendReport(buildReport(sp.hears, sp.snrs)); err != nil {
			logger.Fatalf("acornctl demo: %v", err)
		}
		agents = append(agents, ra)
	}

	if *chaos {
		// Let the faults fly for a while, reallocating through them.
		end := time.Now().Add(1500 * time.Millisecond)
		for time.Now().Before(end) {
			_, _ = s.Reallocate()
			time.Sleep(100 * time.Millisecond)
		}
		st := inj.Stats()
		fmt.Printf("injected faults: %d/%d connections reset, %d delays, %d corruptions\n",
			st.Resets, st.Conns, st.Delays, st.Corruptions)
		inj.Disable()
		for i, ra := range agents {
			fmt.Printf("  agent %s survived %d sessions\n", specs[i].id, ra.Sessions())
		}
	} else {
		// Let the reports land.
		time.Sleep(100 * time.Millisecond)
	}

	// Final (or only) reallocation on a calm network.
	var assigns map[string]spectrum.Channel
	deadline := time.Now().Add(10 * time.Second)
	for {
		assigns, err = s.Reallocate()
		if err == nil && len(assigns) == len(specs) {
			break
		}
		if time.Now().After(deadline) {
			logger.Fatalf("demo never converged: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Println("controller assignments:")
	for _, sp := range specs {
		fmt.Printf("  %-4s → %v\n", sp.id, assigns[sp.id])
	}
	for i, ra := range agents {
		wait := time.Now().Add(5 * time.Second)
		for ra.Current() != assigns[specs[i].id] && time.Now().Before(wait) {
			time.Sleep(20 * time.Millisecond)
		}
		fmt.Printf("  agent %s holds %v\n", specs[i].id, ra.Current())
	}
}
