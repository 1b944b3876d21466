// Package machine models the hardware of a distributed-memory
// multiprocessor: p nodes, each pairing a superscalar processor model
// (internal/cpu) with a network interface, connected by a network
// characterised by the paper's three hardware parameters — per-byte gap g,
// wire latency l, and per-message overhead o — plus a network-controller
// occupancy. It is the substrate the bulk-synchronous shared-memory library
// (internal/qsmlib) runs on, standing in for the Armadillo simulator.
//
// The timing of a message from node A to node B:
//
//  1. A's processor is busy for SendOverhead cycles (interacting with the
//     NIC buffers), plus whatever software cost the messaging layer charges.
//  2. A's send NIC serialises the message: NICOverhead + bytes*Gap cycles of
//     occupancy, queued FIFO behind earlier sends.
//  3. The wire adds Latency cycles.
//  4. B's receive NIC is occupied for NICOverhead + bytes*Gap cycles, queued
//     FIFO behind other arrivals — concentrated traffic into one node queues
//     here, which is why contention-avoiding exchange schedules matter.
//  5. The message enters B's inbox; when B's processor receives it, it is
//     busy for RecvOverhead cycles plus software costs.
package machine

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/sim"
)

// NetParams are the network hardware parameters (paper Table 3, "Hardware
// Setting" column).
type NetParams struct {
	Gap          float64  // cycles per byte of bandwidth (g = 3: 133 MB/s at 400 MHz)
	Latency      sim.Time // wire latency l in cycles (1600 = 4us)
	SendOverhead sim.Time // processor cycles to hand a message to the NIC (o = 400)
	RecvOverhead sim.Time // processor cycles to take a message from the NIC
	NICOverhead  sim.Time // per-message network controller occupancy
}

// DefaultNet returns the default simulated network of Section 3.1.2:
// g = 3 cycles/byte, l = 1600 cycles (4us), o = 400 cycles (1us).
func DefaultNet() NetParams {
	return NetParams{
		Gap:          3,
		Latency:      1600,
		SendOverhead: 400,
		RecvOverhead: 400,
		NICOverhead:  100,
	}
}

// Packet is a message in flight between nodes.
type Packet struct {
	Src, Dst int
	Tag      int
	Bytes    int
	Payload  interface{}
}

// Multiprocessor is a p-node simulated machine.
type Multiprocessor struct {
	E     *sim.Engine
	Net   NetParams
	Nodes []*Node

	// Observability hooks, nil unless Observe attached a recorder; every
	// handle is nil-safe, so Send pays one branch per hook when off.
	rec          *obs.Recorder
	obsMsgs      *obs.Counter
	obsLatency   *obs.Histogram
	obsOccupancy *obs.Histogram
	obsBytes     *obs.Histogram
}

// New builds a p-node machine on a fresh engine. Every node costs its
// work with one shared Table 2 analytic processor model, which is
// stateless.
func New(p int, net NetParams) *Multiprocessor {
	if p <= 0 {
		panic("machine: p must be positive")
	}
	model := cpu.NewAnalytic(cpu.Table2())
	e := sim.NewEngine()
	mp := &Multiprocessor{E: e, Net: net}
	for i := 0; i < p; i++ {
		mp.Nodes = append(mp.Nodes, &Node{
			id:      i,
			mp:      mp,
			inbox:   e.NewChan(),
			sendNIC: e.NewServer(),
			recvNIC: e.NewServer(),
			cost:    model,
		})
	}
	return mp
}

// P returns the node count.
func (mp *Multiprocessor) P() int { return len(mp.Nodes) }

// Observe attaches an observability recorder to the machine and its engine:
// per-message end-to-end latency, NIC occupancy, and wire-size histograms,
// plus the engine's own event and queue metrics. Call before Run.
func (mp *Multiprocessor) Observe(r *obs.Recorder) {
	mp.rec = r
	mp.E.Observe(r)
	mp.obsMsgs = r.Counter("machine", "msgs_sent", "")
	mp.obsLatency = r.Histogram("machine", "msg_latency_cycles", "", obs.ExpBuckets(256, 2, 14))
	mp.obsOccupancy = r.Histogram("machine", "nic_occupancy_cycles", "", obs.ExpBuckets(64, 2, 12))
	mp.obsBytes = r.Histogram("machine", "msg_wire_bytes", "", obs.ExpBuckets(16, 4, 8))
}

// Recorder returns the recorder attached with Observe, or nil.
func (mp *Multiprocessor) Recorder() *obs.Recorder { return mp.rec }

// Run spawns one process per node executing prog and drives the simulation
// to completion.
func (mp *Multiprocessor) Run(seed int64, prog func(*Node)) error {
	for _, n := range mp.Nodes {
		n := n
		n.proc = mp.E.SpawnSeeded(fmt.Sprintf("node%d", n.id), seed+int64(n.id)*7919, func(p *sim.Proc) {
			prog(n)
		})
	}
	return mp.E.Run()
}

// Node is one processor-memory pair of the machine.
type Node struct {
	id      int
	mp      *Multiprocessor
	proc    *sim.Proc
	inbox   *sim.Chan
	sendNIC *sim.Server
	recvNIC *sim.Server
	cost    cpu.Model

	// Counters.
	MsgsSent   uint64
	BytesSent  uint64
	CompCycles sim.Time // simulated time spent in Compute
}

// ID returns the node index.
func (n *Node) ID() int { return n.id }

// P returns the machine's node count.
func (n *Node) P() int { return len(n.mp.Nodes) }

// Proc returns the node's simulation process.
func (n *Node) Proc() *sim.Proc { return n.proc }

// Now returns the current simulated time.
func (n *Node) Now() sim.Time { return n.proc.Now() }

// Model returns the node's processor cost model.
func (n *Node) Model() cpu.Model { return n.cost }

// Compute advances simulated time by the cost of the block on this node's
// processor model.
func (n *Node) Compute(b cpu.OpBlock) {
	c := sim.Time(n.cost.Cycles(b))
	n.CompCycles += c
	n.proc.Advance(c)
}

// Busy advances simulated time by raw cycles of processor occupancy,
// for software costs charged by higher layers.
func (n *Node) Busy(cycles sim.Time) { n.proc.Advance(cycles) }

// Send transmits a message of the given wire size to dst. The calling
// process is busy for SendOverhead cycles; NIC serialisation, wire latency
// and receive-side NIC queueing proceed asynchronously. The NICs are
// goroutine-free sim.Server reservations and the in-flight hop is the
// engine's closure-free wire shuttle (Chan.SendAfter carries the Packet on
// the event itself), so a message in transit costs no process wake-ups and
// no per-message closure — only the sending and receiving node programs,
// which are user code, run as goroutine processes.
func (n *Node) Send(dst, tag, bytes int, payload interface{}) {
	if dst < 0 || dst >= len(n.mp.Nodes) {
		panic(fmt.Sprintf("machine: send to invalid node %d", dst))
	}
	net := &n.mp.Net
	t0 := n.proc.Now()
	n.proc.Advance(net.SendOverhead)
	occupancy := net.NICOverhead + sim.Time(float64(bytes)*net.Gap)
	_, end := n.sendNIC.Use(occupancy)
	arrival := end + net.Latency
	dstNode := n.mp.Nodes[dst]
	_, rend := dstNode.recvNIC.UseAt(arrival, occupancy)
	now := n.proc.Now()
	dstNode.inbox.SendAfter(rend-now, Packet{Src: n.id, Dst: dst, Tag: tag, Bytes: bytes, Payload: payload})
	n.MsgsSent++
	n.BytesSent += uint64(bytes)
	n.mp.obsMsgs.Inc()
	n.mp.obsLatency.Observe(float64(rend - t0))
	n.mp.obsOccupancy.Observe(float64(occupancy))
	n.mp.obsBytes.Observe(float64(bytes))
}

// Recv blocks until any message is available in the inbox, removes it, and
// charges the receive overhead.
func (n *Node) Recv() Packet {
	pkt := n.inbox.Recv(n.proc).(Packet)
	n.proc.Advance(n.mp.Net.RecvOverhead)
	return pkt
}

// TryRecv removes a pending message without blocking, charging the receive
// overhead only when a message was present.
func (n *Node) TryRecv() (Packet, bool) {
	v, ok := n.inbox.TryRecv()
	if !ok {
		return Packet{}, false
	}
	n.proc.Advance(n.mp.Net.RecvOverhead)
	return v.(Packet), true
}
