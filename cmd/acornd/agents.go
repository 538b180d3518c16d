package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"acorn"
	"acorn/internal/ctlnet"
	"acorn/internal/obs"
)

// agentConfig bundles the -controller mode flags.
type agentConfig struct {
	addr         string
	heartbeat    time.Duration
	backoffMin   time.Duration
	backoffMax   time.Duration
	reportPeriod time.Duration
	duration     time.Duration
}

// measure derives each AP's control-plane report from the topology, the
// way a real AP would from its own radio: clients associate to the
// strongest AP they hear, the link SNR is the 20 MHz measurement, and the
// hear-graph comes from the carrier-sense contention relation.
func measure(n *acorn.Network, clients []*acorn.Client) map[string]ctlnet.Report {
	cfg := acorn.NewConfig()
	reports := map[string]ctlnet.Report{}
	for _, ap := range n.APs {
		reports[ap.ID] = ctlnet.Report{APID: ap.ID}
	}
	for _, c := range clients {
		cands := n.APsInRange(c)
		if len(cands) == 0 {
			continue
		}
		home := cands[0]
		cfg.SetAssoc(c.ID, home.ID)
		rep := reports[home.ID]
		rep.Clients = append(rep.Clients, ctlnet.ClientObs{
			ClientID: c.ID,
			SNR20dB:  float64(n.ClientSNR20(home, c)),
		})
		reports[home.ID] = rep
	}
	for _, a := range n.APs {
		rep := reports[a.ID]
		for _, b := range n.APs {
			if a != b && n.Contend(a, b, cfg) {
				rep.Hears = append(rep.Hears, b.ID)
			}
		}
		sort.Strings(rep.Hears)
		reports[a.ID] = rep
	}
	return reports
}

// runAgents streams the topology's measured view to a remote controller,
// one reconnecting agent per AP, and prints assignments as they arrive.
// Each agent registers a liveness health check so /healthz degrades while
// any AP is disconnected from the controller.
func runAgents(n *acorn.Network, clients []*acorn.Client, cfg agentConfig, health *obs.Health) {
	reports := measure(n, clients)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var agents []*ctlnet.ReconnectingAgent
	for _, ap := range n.APs {
		ra, err := ctlnet.NewReconnectingAgent(ctx, cfg.addr,
			ctlnet.Hello{APID: ap.ID, TxPowerDBm: float64(ap.TxPower)},
			ctlnet.ReconnectOptions{
				Backoff: ctlnet.Backoff{Min: cfg.backoffMin, Max: cfg.backoffMax},
				Agent:   ctlnet.AgentOptions{HeartbeatInterval: cfg.heartbeat},
				Log:     logger,
			})
		if err != nil {
			logger.Fatalf("acornd: agent %s: %v", ap.ID, err)
		}
		defer ra.Close()
		if err := ra.SendReport(reports[ap.ID]); err != nil {
			logger.Fatalf("acornd: agent %s: %v", ap.ID, err)
		}
		agents = append(agents, ra)
		health.Register("agent:"+ap.ID, agentCheck(ra))

		go func(id string, ra *ctlnet.ReconnectingAgent) {
			tick := time.NewTicker(cfg.reportPeriod)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					_ = ra.SendReport(reports[id])
				case ch := <-ra.Updates():
					logger.Info("assignment received", "ap", id, "channel", ch)
				}
			}
		}(ap.ID, ra)
	}
	logger.Infof("%d agents reporting to %s every %v", len(agents), cfg.addr, cfg.reportPeriod)

	if cfg.duration > 0 {
		time.Sleep(cfg.duration)
		return
	}
	select {} // run until killed
}

// agentCheck reports a reconnecting agent's controller-session liveness.
func agentCheck(ra *ctlnet.ReconnectingAgent) func() obs.CheckResult {
	return func() obs.CheckResult {
		if ra.Connected() {
			return obs.OK(fmt.Sprintf("connected (%d sessions)", ra.Sessions()))
		}
		detail := "disconnected"
		if err := ra.LastErr(); err != nil {
			detail = fmt.Sprintf("disconnected: %v", err)
		}
		return obs.Bad(detail)
	}
}
