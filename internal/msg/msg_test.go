package msg

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// harness runs prog on a p-node machine with a Comm per node.
func harness(t *testing.T, p int, net machine.NetParams, prog func(*Comm)) *machine.Multiprocessor {
	t.Helper()
	mp := machine.New(p, net)
	if err := mp.Run(1, func(n *machine.Node) {
		prog(NewComm(n, DefaultSW()))
	}); err != nil {
		t.Fatal(err)
	}
	return mp
}

func TestSendRecvTagged(t *testing.T) {
	harness(t, 2, machine.DefaultNet(), func(c *Comm) {
		switch c.Node.ID() {
		case 0:
			c.Send(1, 5, 80, "five")
			c.Send(1, 6, 80, "six")
		case 1:
			// Receive out of arrival order: match on tag 6 first.
			p6 := c.Recv(0, 6)
			p5 := c.Recv(0, 5)
			if p6.Payload.(string) != "six" || p5.Payload.(string) != "five" {
				t.Error("tag matching failed")
			}
			if c.Pending() != 0 {
				t.Errorf("pending = %d, want 0", c.Pending())
			}
		}
	})
}

func TestRecvAnySrc(t *testing.T) {
	harness(t, 3, machine.DefaultNet(), func(c *Comm) {
		if c.Node.ID() != 0 {
			c.Send(0, 1, 8, c.Node.ID())
			return
		}
		got := map[int]bool{}
		for i := 0; i < 2; i++ {
			p := c.Recv(AnySrc, 1)
			got[p.Src] = true
		}
		if !got[1] || !got[2] {
			t.Errorf("sources seen: %v", got)
		}
	})
}

func TestSoftwareCostsCharged(t *testing.T) {
	// Sending a large payload must cost the sender roughly
	// PerMsg + bytes*CopyPerByte + hardware SendOverhead.
	var sent sim.Time
	harness(t, 2, machine.DefaultNet(), func(c *Comm) {
		if c.Node.ID() == 0 {
			c.Send(1, 0, 10000, nil)
			sent = c.Node.Now()
		} else {
			c.Recv(0, 0)
		}
	})
	sw := DefaultSW()
	want := sim.Time(float64(10000)*sw.CopyPerByte) + sw.PerMsg + 400
	if sent != want {
		t.Errorf("sender busy until %d, want %d", sent, want)
	}
}

func TestCommCyclesAccumulate(t *testing.T) {
	harness(t, 2, machine.DefaultNet(), func(c *Comm) {
		if c.Node.ID() == 0 {
			c.Send(1, 0, 1000, nil)
			if c.CommCycles == 0 {
				t.Error("send did not account communication time")
			}
		} else {
			c.Node.Proc().Advance(12345) // non-comm time
			c.Recv(0, 0)
			// Comm time excludes the Advance.
			if c.CommCycles >= c.Node.Now() {
				t.Errorf("comm cycles %d should exclude idle 12345", c.CommCycles)
			}
		}
	})
}

func TestBarrierReleasesTogether(t *testing.T) {
	times := make([]sim.Time, 8)
	harness(t, 8, machine.DefaultNet(), func(c *Comm) {
		// Stagger arrivals.
		c.Node.Proc().Advance(sim.Time(c.Node.ID()) * 5000)
		c.Barrier()
		times[c.Node.ID()] = c.Node.Now()
	})
	// No one may leave before the last arrival (id 7 at 35000).
	for i, tm := range times {
		if tm < 35000 {
			t.Errorf("node %d left barrier at %d, before last arrival", i, tm)
		}
	}
}

func TestBarrierRepeats(t *testing.T) {
	harness(t, 4, machine.DefaultNet(), func(c *Comm) {
		for i := 0; i < 10; i++ {
			c.Barrier()
		}
	})
}

func TestTreeBarrierReleasesTogether(t *testing.T) {
	times := make([]sim.Time, 7) // non-power-of-two on purpose
	harness(t, 7, machine.DefaultNet(), func(c *Comm) {
		c.Node.Proc().Advance(sim.Time(c.Node.ID()) * 3000)
		c.TreeBarrier()
		times[c.Node.ID()] = c.Node.Now()
	})
	for i, tm := range times {
		if tm < 18000 {
			t.Errorf("node %d left tree barrier at %d, before last arrival", i, tm)
		}
	}
}

func TestMixedBarriers(t *testing.T) {
	harness(t, 4, machine.DefaultNet(), func(c *Comm) {
		c.Barrier()
		c.TreeBarrier()
		c.Barrier()
	})
}

// TestBarrierCostNearTable3 checks the measured 16-node central barrier cost
// lands in the vicinity of Table 3's L = 25500 cycles (64us).
func TestBarrierCostNearTable3(t *testing.T) {
	var cost sim.Time
	harness(t, 16, machine.DefaultNet(), func(c *Comm) {
		c.Barrier() // warm: align all nodes
		t0 := c.Node.Now()
		c.Barrier()
		if c.Node.ID() == 0 {
			cost = c.Node.Now() - t0
		}
	})
	if cost < 12000 || cost > 51000 {
		t.Errorf("16-node barrier = %d cycles, want within 2x of Table 3's 25500", cost)
	} else {
		t.Logf("16-node central barrier: %d cycles (paper: 25500)", cost)
	}
}

func TestBarrierCentralVsTreeCost(t *testing.T) {
	// At p=16 with the default network the dissemination barrier (log p
	// rounds of parallel messages) beats the flat barrier (2(p-1) serial
	// messages through the root).
	cost := func(tree bool) sim.Time {
		var c0 sim.Time
		harness(t, 16, machine.DefaultNet(), func(c *Comm) {
			if tree {
				c.TreeBarrier()
			} else {
				c.Barrier()
			}
			t0 := c.Node.Now()
			if tree {
				c.TreeBarrier()
			} else {
				c.Barrier()
			}
			if c.Node.ID() == 0 {
				c0 = c.Node.Now() - t0
			}
		})
		return c0
	}
	central, tree := cost(false), cost(true)
	if tree >= central {
		t.Errorf("tree barrier (%d) should beat central (%d) at p=16", tree, central)
	}
}

func TestPendingStashSurvivesInterleaving(t *testing.T) {
	harness(t, 2, machine.DefaultNet(), func(c *Comm) {
		if c.Node.ID() == 0 {
			for i := 0; i < 5; i++ {
				c.Send(1, i, 8, i)
			}
			return
		}
		// Receive in reverse tag order: everything buffers then drains.
		for tag := 4; tag >= 0; tag-- {
			p := c.Recv(0, tag)
			if p.Payload.(int) != tag {
				t.Errorf("tag %d carried %v", tag, p.Payload)
			}
		}
		if c.Pending() != 0 {
			t.Errorf("pending = %d after draining", c.Pending())
		}
	})
}

// TestPendingFIFOAndReleased buffers several unmatched messages, then drains
// them out of arrival order. Messages sharing a (src, tag) must come back in
// send order, and once a message is consumed the pending buffer — including
// the slack behind its length — must not reference its payload any more.
func TestPendingFIFOAndReleased(t *testing.T) {
	type payload struct{ seq int }
	harness(t, 2, machine.DefaultNet(), func(c *Comm) {
		switch c.Node.ID() {
		case 0:
			for seq, tag := range []int{7, 8, 7, 9, 8, 7} {
				c.Send(1, tag, 8, &payload{seq})
			}
			c.Send(1, 1, 8, nil)
		case 1:
			c.Recv(0, 1) // arrives last: everything before it gets buffered
			if c.Pending() != 6 {
				t.Fatalf("pending = %d, want 6", c.Pending())
			}
			reachable := func(p *payload) bool {
				for _, pk := range c.pending[:cap(c.pending)] {
					if pk.Payload == interface{}(p) {
						return true
					}
				}
				return false
			}
			for _, want := range []struct{ tag, seq int }{
				{8, 1}, {7, 0}, {9, 3}, {7, 2}, {8, 4}, {7, 5},
			} {
				got := c.Recv(0, want.tag).Payload.(*payload)
				if got.seq != want.seq {
					t.Errorf("tag %d: got message %d, want %d (FIFO per tag)", want.tag, got.seq, want.seq)
				}
				if reachable(got) {
					t.Errorf("message %d still reachable from the pending buffer after Recv", got.seq)
				}
			}
			if c.Pending() != 0 {
				t.Errorf("pending = %d, want 0", c.Pending())
			}
		}
	})
}
