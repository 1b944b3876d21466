package machine

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/sim"
)

func TestSendRecvTiming(t *testing.T) {
	mp := New(2, DefaultNet())
	var sent, recvd sim.Time
	err := mp.Run(1, func(n *Node) {
		switch n.ID() {
		case 0:
			n.Send(1, 7, 100, "hello")
			sent = n.Now()
		case 1:
			pkt := n.Recv()
			recvd = n.Now()
			if pkt.Payload.(string) != "hello" || pkt.Src != 0 || pkt.Tag != 7 {
				t.Errorf("bad packet: %+v", pkt)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sender: 400 overhead. NIC: 100 + 300 = 400 occupancy ends at 800.
	// Wire: +1600 => 2400. Recv NIC: +400 => 2800. Recv overhead: +400.
	if sent != 400 {
		t.Errorf("sender released at %d, want 400", sent)
	}
	if recvd != 3200 {
		t.Errorf("receiver done at %d, want 3200", recvd)
	}
}

func TestSendNICSerialises(t *testing.T) {
	mp := New(2, DefaultNet())
	var last sim.Time
	err := mp.Run(1, func(n *Node) {
		switch n.ID() {
		case 0:
			for i := 0; i < 4; i++ {
				n.Send(1, 0, 1000, i)
			}
		case 1:
			for i := 0; i < 4; i++ {
				pkt := n.Recv()
				if pkt.Payload.(int) != i {
					t.Errorf("out of order: got %d at position %d", pkt.Payload, i)
				}
				last = n.Now()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each 1000-byte message occupies a NIC for 100+3000 cycles; four
	// messages serialise on both NICs: arrival of last >= 4*3100 + latency.
	if last < 4*3100+1600 {
		t.Errorf("last delivery at %d, want >= %d", last, 4*3100+1600)
	}
}

func TestRecvNICCongestion(t *testing.T) {
	// Many senders to one receiver queue at its receive NIC; the same
	// volume spread across receivers does not. This is the effect the
	// staggered exchange schedule avoids.
	concentrated := func() sim.Time {
		mp := New(8, DefaultNet())
		var done sim.Time
		if err := mp.Run(1, func(n *Node) {
			if n.ID() != 0 {
				n.Send(0, 0, 4000, nil)
				return
			}
			for i := 0; i < 7; i++ {
				n.Recv()
			}
			done = n.Now()
		}); err != nil {
			t.Fatal(err)
		}
		return done
	}()
	spread := func() sim.Time {
		mp := New(8, DefaultNet())
		var done sim.Time
		if err := mp.Run(1, func(n *Node) {
			n.Send((n.ID()+1)%8, 0, 4000, nil)
			n.Recv()
			if n.ID() == 0 {
				done = n.Now()
			}
		}); err != nil {
			t.Fatal(err)
		}
		return done
	}()
	if concentrated < 3*spread {
		t.Errorf("concentrated=%d spread=%d: want strong receive-side queueing", concentrated, spread)
	}
}

func TestComputeUsesModel(t *testing.T) {
	mp := New(1, DefaultNet())
	blk := cpu.BlockSum(10000)
	want := cpu.NewAnalytic(cpu.Table2()).Cycles(blk)
	err := mp.Run(1, func(n *Node) {
		n.Compute(blk)
		if n.Now() != sim.Time(want) {
			t.Errorf("compute advanced %d cycles, want %d", n.Now(), want)
		}
		if n.CompCycles != sim.Time(want) {
			t.Errorf("CompCycles = %d, want %d", n.CompCycles, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTryRecv(t *testing.T) {
	mp := New(2, DefaultNet())
	err := mp.Run(1, func(n *Node) {
		switch n.ID() {
		case 0:
			if _, ok := n.TryRecv(); ok {
				t.Error("TryRecv should fail with empty inbox")
			}
			n.Send(1, 0, 8, nil)
		case 1:
			n.Proc().Advance(100000) // let the message arrive
			if _, ok := n.TryRecv(); !ok {
				t.Error("TryRecv should succeed after delivery")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCounters(t *testing.T) {
	mp := New(2, DefaultNet())
	err := mp.Run(1, func(n *Node) {
		if n.ID() == 0 {
			n.Send(1, 0, 50, nil)
			n.Send(1, 0, 70, nil)
		} else {
			n.Recv()
			n.Recv()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if mp.Nodes[0].MsgsSent != 2 || mp.Nodes[0].BytesSent != 120 {
		t.Errorf("sender counters: msgs=%d bytes=%d, want 2, 120",
			mp.Nodes[0].MsgsSent, mp.Nodes[0].BytesSent)
	}
}

func TestInvalidDstPanics(t *testing.T) {
	mp := New(2, DefaultNet())
	err := mp.Run(1, func(n *Node) {
		if n.ID() == 0 {
			n.Send(5, 0, 8, nil)
		}
	})
	if err == nil {
		t.Fatal("send to invalid node should error the run")
	}
}

func TestLatencyParameterRespected(t *testing.T) {
	slow := DefaultNet()
	slow.Latency = 100000
	mp := New(2, slow)
	var recvd sim.Time
	err := mp.Run(1, func(n *Node) {
		if n.ID() == 0 {
			n.Send(1, 0, 8, nil)
		} else {
			n.Recv()
			recvd = n.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if recvd < 100000 {
		t.Errorf("received at %d, want >= latency 100000", recvd)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() sim.Time {
		mp := New(4, DefaultNet())
		var end sim.Time
		if err := mp.Run(42, func(n *Node) {
			for i := 0; i < 5; i++ {
				n.Send((n.ID()+1)%4, 0, 64+n.Rand(), nil)
				n.Recv()
			}
			if n.ID() == 0 {
				end = n.Now()
			}
		}); err != nil {
			t.Fatal(err)
		}
		return end
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic: %d vs %d", a, b)
	}
}

// Rand is a helper making message sizes depend on the seeded proc RNG.
func (n *Node) Rand() int { return int(n.proc.Rand().Int31n(64)) }
