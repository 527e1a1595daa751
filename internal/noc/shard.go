package noc

import (
	"locmap/internal/topology"
)

// ShardView is one region's window-local view of the network's
// link-reservation state. During a simulation window the region routes
// packets through the view: reads fall through to the network's
// canonical busy-until state, writes land in a copy-on-write overlay,
// and per-packet statistics accumulate in view-local counters. At the
// window's end every view's overlay is folded back into the canonical
// state (Fold) and the overlay is discarded (BeginWindow), so the next
// window starts from a state that includes every region's reservations.
//
// The overlay is epoch-stamped: BeginWindow bumps the epoch instead of
// clearing the arrays, so a window costs O(links touched), not
// O(total links).
//
// A ShardView is not safe for concurrent use, and neither are the
// Network it folds into and the other views over that Network.
type ShardView struct {
	net *Network

	// val/occ/epoch implement the copy-on-write overlay: when
	// epoch[l] == cur, the view has touched link l this window, val[l]
	// is the view's busy-until for it and occ[l] the total occupancy
	// cycles the view's packets consumed on it. dirty lists the touched
	// links for Fold.
	val   []int64
	occ   []int64
	epoch []uint32
	cur   uint32
	dirty []topology.LinkID

	// Window-spanning statistic deltas, folded into the network by
	// FlushStats once per run (they are pure sums, so deferring the
	// merge keeps the hot path free of shared writes).
	packets      uint64
	totalLatency uint64
	totalHops    uint64
	totalQueued  uint64
	linkLoad     []uint64
}

// NewShardView builds a view over the network's links with an empty
// overlay.
func (n *Network) NewShardView() *ShardView {
	links := len(n.busyUntil)
	return &ShardView{
		net:      n,
		val:      make([]int64, links),
		occ:      make([]int64, links),
		epoch:    make([]uint32, links),
		cur:      1,
		linkLoad: make([]uint64, links),
	}
}

// BeginWindow discards the overlay: subsequent sends start from the
// canonical busy-until state again. The caller must have folded (or
// deliberately dropped) the previous window's reservations first.
func (v *ShardView) BeginWindow() {
	v.cur++
	if v.cur == 0 { // epoch counter wrapped: invalidate stamps the slow way
		for i := range v.epoch {
			v.epoch[i] = 0
		}
		v.cur = 1
	}
	v.dirty = v.dirty[:0]
}

// Send routes a packet like Network.Send, but against this view:
// canonical busy-until state plus the view's own reservations from the
// current window. Reservations made by other views in the same window
// are not visible until the next window — the bounded staleness the
// region engine's determinism contract documents.
func (v *ShardView) Send(src, dst topology.NodeID, start int64, class PacketClass) int64 {
	n := v.net
	if n.cfg.Ideal || src == dst {
		return start
	}
	route := n.routes.Route(src, dst)
	t := start
	perHop := n.cfg.RouterCycles + n.cfg.LinkCycles
	occupy := class.flits() * n.cfg.LinkCycles
	for _, l := range route {
		arrive := t + perHop
		var b int64
		if v.epoch[l] == v.cur {
			b = v.val[l]
		} else {
			b = n.busyUntil[l]
			v.epoch[l] = v.cur
			v.occ[l] = 0
			v.dirty = append(v.dirty, l)
		}
		if b > arrive {
			v.totalQueued += uint64(b - arrive)
			arrive = b
		}
		v.val[l] = arrive + occupy
		v.occ[l] += occupy
		v.linkLoad[l]++
		t = arrive
	}
	v.packets++
	v.totalHops += uint64(len(route))
	v.totalLatency += uint64(t - start)
	return t
}

// Fold merges the view's window reservations into the canonical
// busy-until state of every link the view touched this window, as
// C[l] = max(val[l], C[l] + occ[l]): when the link was quiet, the
// view's own timeline stands exactly (for a single view this
// reproduces Network.Send's bookkeeping bit-for-bit); when another
// view's fold already pushed C past it, this view's packets queue
// behind — its occupancy is appended. A plain max would let same-window
// traffic from different regions overlap for free, while folding the
// raw val-C delta would double-count the idle gap before the window's
// first packet.
//
// The merge order over views matters for the exact result, so the
// region engine folds its views in region order.
func (v *ShardView) Fold() {
	for _, l := range v.dirty {
		c := v.net.busyUntil[l] + v.occ[l]
		if v.val[l] > c {
			c = v.val[l]
		}
		v.net.busyUntil[l] = c
	}
}

// FlushStats adds the view's accumulated packet statistics into the
// network and zeroes them. The region engine calls it once per run.
func (v *ShardView) FlushStats() {
	n := v.net
	n.packets += v.packets
	n.totalLatency += v.totalLatency
	n.totalHops += v.totalHops
	n.totalQueued += v.totalQueued
	v.packets, v.totalLatency, v.totalHops, v.totalQueued = 0, 0, 0, 0
	for l, c := range v.linkLoad {
		if c != 0 {
			n.linkLoad[l] += c
			v.linkLoad[l] = 0
		}
	}
}
