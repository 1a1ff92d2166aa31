package sched

import (
	"math"

	"repro/internal/metrics"
	"repro/internal/model"
)

// removeCost returns the instruction cost of one queue removal when
// the queue holds n updates: xqueue·ln(n) (§3.3), zero for n <= 1.
func removeCost(xqueue float64, n int) float64 {
	if n <= 1 || xqueue <= 0 {
		return 0
	}
	return xqueue * math.Log(float64(n))
}

// startInstallFromOS is the Updates First path (§4.1): the update at
// the head of the OS queue is installed directly, with no internal
// update queue. Updates are applied in arrival order; the worthiness
// check still skips an update whose generation is older than the value
// already installed (possible with variable network delay).
func (c *Controller) startInstallFromOS() {
	u := c.osq.Poll()
	if u == nil {
		c.dispatch()
		return
	}
	worthy := u.GenTime > c.tracker.GenTime(u.Object)
	dur := c.p.Seconds(c.p.XLookup) + c.takePendingSwitch() + c.ioCost(u.Object)
	if worthy {
		dur += c.updateSec
	}
	c.startJob(&job{
		kind: metrics.CPUUpdate,
		dur:  dur,
		onDone: func() {
			if worthy {
				c.tracker.Installed(u.Object, u.GenTime, c.sim.Now())
				c.col.UpdateInstalled()
				c.traceUpdate(TraceUpdateInstalled, u)
			} else {
				c.col.UpdateSkippedUnworthy()
				c.traceUpdate(TraceUpdateSkipped, u)
			}
			c.dispatch()
		},
	})
}

// startReceive is step 2-3 of Fig. 2 for the queue-based policies: the
// controller drains the whole OS queue into the update queue in one
// burst ("all of the updates will be received at once", §3.3). The
// queueing cost is xqueue·ln(n) per insert plus any pending context-
// switch charge. When that cost is zero the receive happens inline and
// false is returned; otherwise a CPU job is started (its completion
// re-enters dispatch) and true is returned.
func (c *Controller) startReceive() bool {
	batch := make([]*model.Update, 0, c.osq.Len())
	for {
		u := c.osq.Poll()
		if u == nil {
			break
		}
		batch = append(batch, u)
	}
	cost := c.takePendingSwitch()
	n := c.uq.Len()
	for i := range batch {
		cost += c.p.Seconds(removeCost(c.p.XQueue, n+i+1))
	}
	enqueue := func() {
		now := c.sim.Now()
		for _, u := range batch {
			c.tracker.Received(u.Object, u.GenTime, now)
			superseded, evicted := c.uq.Insert(u)
			for _, ev := range [2]*model.Update{superseded, evicted} {
				if ev != nil {
					c.tracker.Removed(ev.Object, ev.GenTime, now)
					c.col.UpdateOverflowDropped()
					c.traceUpdate(TraceUpdateDropped, ev)
				}
			}
		}
	}
	if cost <= 0 {
		enqueue()
		return false
	}
	c.startJob(&job{
		kind: metrics.CPUUpdate,
		dur:  cost,
		onDone: func() {
			enqueue()
			c.dispatch()
		},
	})
	return true
}

// startInstallFromQueue installs one update from the update queue
// (step 4 of Fig. 2): pop per the FIFO/LIFO discipline, look the
// object up, skip if the database already holds a newer generation,
// otherwise apply.
func (c *Controller) startInstallFromQueue(class int) {
	n := c.uq.Len()
	u := c.uq.Pop(c.p.Order, class)
	if u == nil {
		c.dispatch()
		return
	}
	worthy := u.GenTime > c.tracker.GenTime(u.Object)
	dur := c.p.Seconds(removeCost(c.p.XQueue, n)+c.p.XLookup) +
		c.takePendingSwitch() + c.ioCost(u.Object)
	if worthy {
		dur += c.updateSec
	}
	c.startJob(&job{
		kind: metrics.CPUUpdate,
		dur:  dur,
		onDone: func() {
			now := c.sim.Now()
			if worthy {
				c.tracker.Installed(u.Object, u.GenTime, now)
				c.col.UpdateInstalled()
				c.traceUpdate(TraceUpdateInstalled, u)
			} else {
				c.tracker.Removed(u.Object, u.GenTime, now)
				c.col.UpdateSkippedUnworthy()
				c.traceUpdate(TraceUpdateSkipped, u)
			}
			c.dispatch()
		},
	})
}
