// Package msg is the software messaging layer of the simulated machine,
// standing in for the paper's libmvpplus library. It adds what hardware
// alone does not charge: per-message software bookkeeping, buffer copies on
// both sides, and header bytes on the wire — the reason the observed gap in
// Table 3 (35 cycles/byte for put) is an order of magnitude above the
// hardware gap (3 cycles/byte). It also provides tagged receive matching and
// two barrier algorithms.
package msg

import (
	"fmt"
	"slices"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
)

// SWParams model the software costs of the messaging layer.
type SWParams struct {
	// CopyPerByte is the processor cost of moving one payload byte through
	// the library's buffers, charged on both the send and receive sides.
	CopyPerByte float64
	// PerMsg is the fixed processor cost of assembling or disassembling one
	// message, charged on both sides.
	PerMsg sim.Time
	// HeaderBytes is the control information added to every message on the
	// wire.
	HeaderBytes int
}

// DefaultSW returns software parameters calibrated so that the observed
// bulk put gap through the full stack lands near Table 3's 35 cycles/byte
// over the 3 cycles/byte hardware gap.
func DefaultSW() SWParams {
	return SWParams{CopyPerByte: 16, PerMsg: 300, HeaderBytes: 32}
}

// AnySrc matches a message from any source in Recv.
const AnySrc = -1

// Comm wraps a machine node with the software messaging layer. All methods
// must be called from the node's own simulation process.
type Comm struct {
	Node *machine.Node
	SW   SWParams

	pending []machine.Packet
	barGen  int

	// CommCycles accumulates simulated time spent inside this layer; the
	// experiments report it as "communication time".
	CommCycles sim.Time

	// Observability hooks, nil unless Observe attached a recorder.
	obsSends    *obs.Counter
	obsBarriers *obs.Counter
	obsPayload  *obs.Histogram
}

// NewComm layers software messaging over a node.
func NewComm(n *machine.Node, sw SWParams) *Comm {
	return &Comm{Node: n, SW: sw}
}

// Observe attaches an observability recorder to the messaging layer:
// software-level send and barrier counts and a payload-size histogram
// (wire headers excluded, unlike machine's msg_wire_bytes).
func (c *Comm) Observe(r *obs.Recorder) {
	c.obsSends = r.Counter("msg", "sends", "")
	c.obsBarriers = r.Counter("msg", "barriers", "")
	c.obsPayload = r.Histogram("msg", "payload_bytes", "", obs.ExpBuckets(16, 4, 8))
}

// timed runs f and accounts its duration as communication time.
func (c *Comm) timed(f func()) {
	t0 := c.Node.Now()
	f()
	c.CommCycles += c.Node.Now() - t0
}

// Send transmits payload to dst under tag. payloadBytes is the size of the
// payload on the wire (headers are added by this layer); the sender is busy
// for the software per-message and copy costs before the hardware send.
func (c *Comm) Send(dst, tag, payloadBytes int, payload interface{}) {
	c.obsSends.Inc()
	c.obsPayload.Observe(float64(payloadBytes))
	c.timed(func() {
		c.Node.Busy(c.SW.PerMsg + sim.Time(float64(payloadBytes)*c.SW.CopyPerByte))
		c.Node.Send(dst, tag, payloadBytes+c.SW.HeaderBytes, payload)
	})
}

// Recv blocks until a message matching (src, tag) is available and returns
// it, charging receive-side software costs. src may be AnySrc. Messages that
// arrive while waiting but do not match are buffered for later Recv calls.
func (c *Comm) Recv(src, tag int) machine.Packet {
	var out machine.Packet
	c.timed(func() { out = c.recvInternal(src, tag) })
	return out
}

func (c *Comm) chargeRecv(p machine.Packet) {
	payload := p.Bytes - c.SW.HeaderBytes
	if payload < 0 {
		payload = 0
	}
	c.Node.Busy(c.SW.PerMsg + sim.Time(float64(payload)*c.SW.CopyPerByte))
}

func matches(p machine.Packet, src, tag int) bool {
	return (src == AnySrc || p.Src == src) && p.Tag == tag
}

// Pending returns the number of buffered unmatched messages.
func (c *Comm) Pending() int { return len(c.pending) }

// Barrier tags live in a reserved range; each barrier generation uses a
// fresh tag so consecutive barriers cannot cross-talk.
const barrierTagBase = 1 << 30

// Barrier synchronizes all nodes with a centralized algorithm: every node
// reports to node 0, which then releases everyone. Matches the flat barrier
// whose measured cost appears in Table 3 (L ≈ 25500 cycles at 16 nodes).
// All nodes must call it the same number of times.
func (c *Comm) Barrier() {
	c.obsBarriers.Inc()
	tag := barrierTagBase + c.barGen
	c.barGen++
	c.timed(func() {
		me := c.Node.ID()
		p := c.Node.P()
		if me == 0 {
			for i := 1; i < p; i++ {
				c.recvInternal(AnySrc, tag)
			}
			for i := 1; i < p; i++ {
				c.sendInternal(i, tag, 0, nil)
			}
			return
		}
		c.sendInternal(0, tag, 0, nil)
		c.recvInternal(0, tag)
	})
}

// TreeBarrier synchronizes all nodes with a dissemination barrier:
// ceil(log2 p) rounds, in round k each node signals (id + 2^k) mod p. It
// trades message count p-1 at the root for log p rounds of parallel
// messages; the benchmarks compare both (a Table 3 ablation).
func (c *Comm) TreeBarrier() {
	c.obsBarriers.Inc()
	tag := barrierTagBase + (1 << 20) + c.barGen
	c.barGen++
	c.timed(func() {
		me := c.Node.ID()
		p := c.Node.P()
		for k := 1; k < p; k <<= 1 {
			c.sendInternal((me+k)%p, tag+k, 0, nil)
			c.recvInternal((me-k+p)%p, tag+k)
		}
	})
}

// sendInternal and recvInternal are Send/Recv without the outer timing
// wrapper (for use inside timed sections).
func (c *Comm) sendInternal(dst, tag, payloadBytes int, payload interface{}) {
	c.Node.Busy(c.SW.PerMsg + sim.Time(float64(payloadBytes)*c.SW.CopyPerByte))
	c.Node.Send(dst, tag, payloadBytes+c.SW.HeaderBytes, payload)
}

func (c *Comm) recvInternal(src, tag int) machine.Packet {
	if p, ok := c.takePending(src, tag); ok {
		c.chargeRecv(p)
		return p
	}
	for {
		p := c.Node.Recv()
		if matches(p, src, tag) {
			c.chargeRecv(p)
			return p
		}
		c.pending = append(c.pending, p)
	}
}

// takePending removes and returns the oldest buffered message matching
// (src, tag), so matching is FIFO per (src, tag). slices.Delete zeroes the
// vacated tail slot: the buffer must not keep a consumed message's payload
// reachable.
func (c *Comm) takePending(src, tag int) (machine.Packet, bool) {
	for i, p := range c.pending {
		if matches(p, src, tag) {
			c.pending = slices.Delete(c.pending, i, i+1)
			return p, true
		}
	}
	return machine.Packet{}, false
}

// String describes the layer configuration.
func (c *Comm) String() string {
	return fmt.Sprintf("msg.Comm(node=%d, copy=%.1f c/B, permsg=%d, hdr=%dB)",
		c.Node.ID(), c.SW.CopyPerByte, c.SW.PerMsg, c.SW.HeaderBytes)
}
