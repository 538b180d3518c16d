// Package ctlnet is ACORN's control plane over the wire: access points run
// an Agent that reports link measurements to a central Controller over TCP
// (the role the paper's Click deployment and IAPP coordination play), and
// the Controller runs Algorithm 2 over the reported view and pushes channel
// assignments back.
//
// The protocol is length-prefixed binary frames, each carrying a batch of
// kind-tagged messages (frame.go). The interesting logic lives in the
// algorithms; the wire layer's job is to be robust: bounded frames, strict
// decoding with range-checked values, clean shutdown, and no trust in peer
// input.
package ctlnet

import (
	"errors"
	"fmt"
)

// Message types.
const (
	TypeHello  = "hello"
	TypeReport = "report"
	TypeAssign = "assign"
	TypeError  = "error"
	TypePing   = "ping"
	TypePong   = "pong"
)

// errMalformed tags protocol violations (as opposed to transport errors),
// so endpoints can send a clean error reply before dropping the peer.
var errMalformed = errors.New("malformed message")

// Envelope is one decoded message: Type names it, and exactly one of the
// bodies, matching Type, is set.
type Envelope struct {
	Type   string
	Hello  *Hello
	Report *Report
	Assign *Assign
	Error  *Error
	Ping   *Heartbeat
	Pong   *Heartbeat
}

// Heartbeat is the body of ping and pong keepalives. A peer answers every
// ping with a pong echoing the sequence number; receiving either refreshes
// the local read deadline, so an idle-but-alive session is never reaped.
type Heartbeat struct {
	Seq uint64 `json:"seq"`
}

// Hello announces an AP to the controller.
type Hello struct {
	APID string `json:"apID"`
	// TxPowerDBm is the AP's transmit power, within
	// [wlan.MinTxPowerDBm, wlan.MaxTxPowerDBm].
	TxPowerDBm float64 `json:"txPowerDBm"`
}

// ClientObs is one measured client link.
type ClientObs struct {
	ClientID string `json:"clientID"`
	// SNR20dB is the measured 20 MHz-reference per-subcarrier SNR.
	SNR20dB float64 `json:"snr20dB"`
}

// Report carries an AP's current measurements. Its JSON form is the
// report file `acornctl agent -report` streams.
type Report struct {
	APID string `json:"apID"`
	// Seq is a per-AP monotonic sequence number. The controller ignores a
	// report whose Seq is lower than the newest one it holds for the AP,
	// so a reconnect replay can never roll the view backwards. Zero means
	// "unsequenced" and is always accepted (legacy agents).
	Seq uint64 `json:"seq,omitempty"`
	// Clients are the AP's associated clients and their link qualities.
	Clients []ClientObs `json:"clients"`
	// Hears lists the AP IDs this AP senses above the carrier-sense
	// threshold (the contention edges of the interference graph).
	Hears []string `json:"hears"`
}

// Assign is the controller's channel decision for one AP.
type Assign struct {
	APID string `json:"apID"`
	// WidthMHz is 20 or 40.
	WidthMHz int `json:"widthMHz"`
	// Primary and Secondary are the 20 MHz component channel numbers
	// (Secondary 0 for a 20 MHz assignment).
	Primary   int `json:"primary"`
	Secondary int `json:"secondary"`
}

// Error reports a protocol failure to the peer before disconnecting.
type Error struct {
	Reason string `json:"reason"`
}

// protoErrf builds a protocol-violation error tagged with errMalformed.
func protoErrf(format string, args ...any) error {
	return fmt.Errorf("ctlnet: "+format+": %w", append(args, errMalformed)...)
}
