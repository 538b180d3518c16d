// Package topofile loads WLAN topology descriptions from JSON, the input
// format of cmd/acornd:
//
//	{
//	  "aps":     [{"id": "AP1", "x": 0, "y": 0, "txPower": 18}, ...],
//	  "clients": [{"id": "u1", "x": 5, "y": 3,
//	               "extraLoss": {"AP1": 20}}, ...]
//	}
//
// Parsing is strict: unknown fields are rejected, IDs must be unique and
// non-empty, transmit powers must be plausible, and extra-loss references
// must point at declared APs.
package topofile

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"acorn/internal/rf"
	"acorn/internal/units"
	"acorn/internal/wlan"
)

type fileFormat struct {
	APs     []apEntry     `json:"aps"`
	Clients []clientEntry `json:"clients"`
}

type apEntry struct {
	ID      string  `json:"id"`
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
	TxPower float64 `json:"txPower"`
}

type clientEntry struct {
	ID        string             `json:"id"`
	X         float64            `json:"x"`
	Y         float64            `json:"y"`
	ExtraLoss map[string]float64 `json:"extraLoss"`
}

// Load reads and parses a topology file.
func Load(path string) (*wlan.Network, []*wlan.Client, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	n, cs, err := Parse(data)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return n, cs, nil
}

// Parse decodes a topology description from JSON bytes.
func Parse(data []byte) (*wlan.Network, []*wlan.Client, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var tf fileFormat
	if err := dec.Decode(&tf); err != nil {
		return nil, nil, fmt.Errorf("topofile: %w", err)
	}
	if len(tf.APs) == 0 {
		return nil, nil, fmt.Errorf("topofile: no APs declared")
	}
	apIDs := map[string]bool{}
	var aps []*wlan.AP
	for i, a := range tf.APs {
		if a.ID == "" {
			return nil, nil, fmt.Errorf("topofile: ap[%d] has empty id", i)
		}
		if apIDs[a.ID] {
			return nil, nil, fmt.Errorf("topofile: duplicate AP id %q", a.ID)
		}
		apIDs[a.ID] = true
		if a.TxPower < wlan.MinTxPowerDBm || a.TxPower > wlan.MaxTxPowerDBm {
			return nil, nil, fmt.Errorf("topofile: AP %s txPower %v dBm out of range [%d, %d]",
				a.ID, a.TxPower, wlan.MinTxPowerDBm, wlan.MaxTxPowerDBm)
		}
		aps = append(aps, &wlan.AP{
			ID:      a.ID,
			Pos:     rf.Point{X: a.X, Y: a.Y},
			TxPower: units.DBm(a.TxPower),
		})
	}
	clientIDs := map[string]bool{}
	var clients []*wlan.Client
	for i, c := range tf.Clients {
		if c.ID == "" {
			return nil, nil, fmt.Errorf("topofile: client[%d] has empty id", i)
		}
		if clientIDs[c.ID] {
			return nil, nil, fmt.Errorf("topofile: duplicate client id %q", c.ID)
		}
		clientIDs[c.ID] = true
		cl := &wlan.Client{ID: c.ID, Pos: rf.Point{X: c.X, Y: c.Y}}
		if len(c.ExtraLoss) > 0 {
			cl.ExtraLoss = make(map[string]units.DB, len(c.ExtraLoss))
			for ap, db := range c.ExtraLoss {
				if !apIDs[ap] {
					return nil, nil, fmt.Errorf("topofile: client %s extraLoss references unknown AP %q", c.ID, ap)
				}
				if db < 0 {
					return nil, nil, fmt.Errorf("topofile: client %s extraLoss[%s] negative", c.ID, ap)
				}
				cl.ExtraLoss[ap] = units.DB(db)
			}
		}
		clients = append(clients, cl)
	}
	n := wlan.NewNetwork(aps, clients)
	if err := n.Validate(); err != nil {
		return nil, nil, fmt.Errorf("topofile: %w", err)
	}
	return n, clients, nil
}
