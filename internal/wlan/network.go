// Package wlan models an enterprise 802.11n WLAN — APs, clients, the radio
// environment between them — and evaluates the network-wide throughput of a
// complete configuration (channel assignment + user association). It is the
// substrate both ACORN (internal/core) and the legacy baselines
// (internal/baseline) are measured on, playing the role of the paper's
// 18-node testbed.
//
// The throughput model composes the other substrates: internal/rf gives each
// AP→client link a received power, internal/ratecontrol picks the MCS/mode a
// real card would, internal/phy turns SNR into PER, and internal/mac turns
// per-client delays into cell throughput under the DCF performance anomaly,
// scaled by the channel access share M against co-channel contenders.
package wlan

import (
	"fmt"
	"sort"

	"acorn/internal/phy"
	"acorn/internal/rf"
	"acorn/internal/spectrum"
	"acorn/internal/units"
)

// MinTxPowerDBm and MaxTxPowerDBm bound a plausible AP transmit power.
// Every input that declares one (a topology file, an agent's hello) is
// checked against this range.
const (
	MinTxPowerDBm = -10
	MaxTxPowerDBm = 36
)

// AP is an access point.
type AP struct {
	ID  string
	Pos rf.Point
	// TxPower is the transmit power; the testbed uses the regulatory
	// maximum unless an experiment sweeps it.
	TxPower units.DBm
}

// Client is a (downlink-saturated) WLAN user.
type Client struct {
	ID  string
	Pos rf.Point
	// ExtraLoss adds per-AP obstruction loss (walls, enclosures) on top
	// of distance path loss, keyed by AP ID. Constructed topologies use
	// it to pin link qualities precisely.
	ExtraLoss map[string]units.DB
}

// Network is the static description of a deployment: radios, geometry and
// spectrum. It does not include the configuration (channels/association),
// which is what the allocation algorithms produce.
type Network struct {
	APs     []*AP
	Clients []*Client
	Band    *spectrum.Band
	Prop    rf.PathLossModel
	// PacketBytes is the payload size of the saturated downlink traffic.
	PacketBytes int
	// JitterDB is the amplitude of per-(link,channel) SNR jitter.
	JitterDB float64
	// CSThreshold is the carrier-sense power above which two radios
	// contend for the medium.
	CSThreshold units.DBm
	// AssocMinSNR is the minimum 20 MHz per-subcarrier SNR at which a
	// client considers an AP to be in range.
	AssocMinSNR units.DB
	// NoiseFigure is the receiver noise figure, subtracted from every
	// link SNR on top of the thermal floor. Commodity 802.11n cards sit
	// around 7 dB.
	NoiseFigure units.DB
	// ContendOverride, when non-nil, replaces the geometric contention
	// predicate entirely: measurement-driven deployments (the networked
	// controller) know who hears whom from reports, not from a floor
	// plan. It must be symmetric.
	ContendOverride func(apA, apB string) bool

	apIndex     map[string]*AP
	clientIndex map[string]*Client
}

// NewNetwork builds a network with the standard experiment defaults: the
// 12-channel 5 GHz band, indoor propagation, 1500-byte packets, −82 dBm
// carrier sense and a decode floor of −2 dB per-subcarrier SNR.
func NewNetwork(aps []*AP, clients []*Client) *Network {
	n := &Network{
		APs:         aps,
		Clients:     clients,
		Band:        spectrum.DefaultBand5GHz(),
		Prop:        rf.DefaultIndoor5GHz(),
		PacketBytes: phy.DefaultPacketSizeBytes,
		JitterDB:    rf.DefaultChannelJitterDB,
		CSThreshold: -82,
		AssocMinSNR: -5,
		NoiseFigure: 7,
	}
	n.reindex()
	return n
}

func (n *Network) reindex() {
	n.apIndex = make(map[string]*AP, len(n.APs))
	for _, ap := range n.APs {
		n.apIndex[ap.ID] = ap
	}
	n.clientIndex = make(map[string]*Client, len(n.Clients))
	for _, c := range n.Clients {
		n.clientIndex[c.ID] = c
	}
}

// AP returns the AP with the given ID, or nil. The lookup index self-heals
// when callers have appended to the APs slice (e.g. dynamic deployments).
func (n *Network) AP(id string) *AP {
	if n.apIndex == nil || len(n.apIndex) != len(n.APs) {
		n.reindex()
	}
	return n.apIndex[id]
}

// Client returns the client with the given ID, or nil. Like AP, the index
// self-heals after the Clients slice grows (clients arriving over time).
func (n *Network) Client(id string) *Client {
	if n.clientIndex == nil || len(n.clientIndex) != len(n.Clients) {
		n.reindex()
	}
	return n.clientIndex[id]
}

// RemoveClient removes the client with the given ID from the network and
// reports whether it was present. Removals must go through here rather than
// splicing Clients directly: a removal followed by an arrival leaves the
// slice length unchanged, which the length-based index self-heal cannot
// detect, so the index is invalidated eagerly.
func (n *Network) RemoveClient(id string) bool {
	for i, c := range n.Clients {
		if c.ID == id {
			n.Clients = append(n.Clients[:i], n.Clients[i+1:]...)
			n.clientIndex = nil
			return true
		}
	}
	return false
}

// linkSeed derives a stable per-link jitter seed from the endpoint IDs.
func linkSeed(apID, clientID string) int64 {
	var h uint64 = 1469598103934665603
	for _, s := range []string{apID, "→", clientID} {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	return int64(h)
}

// ClientSNR returns the per-subcarrier SNR of the AP→client link on the
// given channel (whose width determines the subcarrier split), including the
// per-channel jitter.
func (n *Network) ClientSNR(ap *AP, c *Client, ch spectrum.Channel) units.DB {
	extra := units.DB(0)
	if c.ExtraLoss != nil {
		extra = c.ExtraLoss[ap.ID]
	}
	rx := n.Prop.RxPower(ap.TxPower, ap.Pos.DistanceTo(c.Pos), extra)
	snr := phy.SubcarrierSNR(rx, ch.Width).Minus(n.NoiseFigure)
	return snr + rf.ChannelJitter(linkSeed(ap.ID, c.ID), ch, n.JitterDB)
}

// ClientSNR20 is the link's quality reference: its per-subcarrier SNR on a
// nominal 20 MHz channel, without jitter. Association range checks and the
// beacon-reported SNR use it.
func (n *Network) ClientSNR20(ap *AP, c *Client) units.DB {
	extra := units.DB(0)
	if c.ExtraLoss != nil {
		extra = c.ExtraLoss[ap.ID]
	}
	rx := n.Prop.RxPower(ap.TxPower, ap.Pos.DistanceTo(c.Pos), extra)
	return phy.SubcarrierSNR(rx, spectrum.Width20).Minus(n.NoiseFigure)
}

// APsInRange returns the candidate set A_u of APs the client can hear, in
// descending SNR order.
func (n *Network) APsInRange(c *Client) []*AP {
	type cand struct {
		ap  *AP
		snr units.DB
	}
	var cands []cand
	for _, ap := range n.APs {
		if snr := n.ClientSNR20(ap, c); snr >= n.AssocMinSNR {
			cands = append(cands, cand{ap, snr})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].snr > cands[j].snr })
	aps := make([]*AP, len(cands))
	for i, cd := range cands {
		aps[i] = cd.ap
	}
	return aps
}

// Contend reports whether two APs compete for the medium when on
// conflicting channels: either hears the other above the carrier-sense
// threshold, or either hears a client of the other (footnote 5 of the
// paper: "Two APs interfere with each other either if they directly compete
// for the medium or if either competes with at least one of the other AP's
// clients").
func (n *Network) Contend(a, b *AP, cfg *Config) bool {
	if a == b {
		return false
	}
	if n.ContendOverride != nil {
		return n.ContendOverride(a.ID, b.ID)
	}
	if n.Prop.RxPower(a.TxPower, a.Pos.DistanceTo(b.Pos), 0) >= n.CSThreshold {
		return true
	}
	for _, cl := range n.Clients {
		home := cfg.Assoc[cl.ID]
		if home != a.ID && home != b.ID {
			continue
		}
		other := a
		if home == a.ID {
			other = b
		}
		if n.Prop.RxPower(other.TxPower, other.Pos.DistanceTo(cl.Pos), 0) >= n.CSThreshold {
			return true
		}
	}
	return false
}

// InterferenceDegree returns the degree of each AP in the interference
// graph (edges = Contend, regardless of channel assignment), and the
// maximum degree Δ that parameterizes the worst-case approximation ratio
// O(1/(Δ+1)).
func (n *Network) InterferenceDegree(cfg *Config) (degrees map[string]int, maxDegree int) {
	degrees = make(map[string]int, len(n.APs))
	for _, a := range n.APs {
		for _, b := range n.APs {
			if a != b && n.Contend(a, b, cfg) {
				degrees[a.ID]++
			}
		}
		if degrees[a.ID] > maxDegree {
			maxDegree = degrees[a.ID]
		}
	}
	return degrees, maxDegree
}

// Validate checks internal consistency of the network description.
func (n *Network) Validate() error {
	seen := make(map[string]bool)
	for _, ap := range n.APs {
		if ap.ID == "" {
			return fmt.Errorf("wlan: AP with empty ID")
		}
		if seen[ap.ID] {
			return fmt.Errorf("wlan: duplicate AP ID %q", ap.ID)
		}
		seen[ap.ID] = true
	}
	seenC := make(map[string]bool)
	for _, c := range n.Clients {
		if c.ID == "" {
			return fmt.Errorf("wlan: client with empty ID")
		}
		if seenC[c.ID] {
			return fmt.Errorf("wlan: duplicate client ID %q", c.ID)
		}
		seenC[c.ID] = true
	}
	if n.Band == nil || n.Band.NumChannels20() == 0 {
		return fmt.Errorf("wlan: network has no channels")
	}
	if n.PacketBytes <= 0 {
		return fmt.Errorf("wlan: non-positive packet size %d", n.PacketBytes)
	}
	return nil
}
