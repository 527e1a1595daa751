package noc

import (
	"math/rand"
	"reflect"
	"testing"

	"locmap/internal/topology"
)

// TestShardViewMatchesSend: one view alone, folded at arbitrary window
// boundaries, must reproduce Network.Send bit for bit — every arrival
// time (so later sends queue behind earlier windows' reservations
// exactly as on the network), and the statistics and per-link loads
// once its counters are flushed.
func TestShardViewMatchesSend(t *testing.T) {
	mesh := topology.Default6x6()
	ref := New(mesh, DefaultConfig())
	sub := New(mesh, DefaultConfig())
	v := sub.NewShardView()
	rng := rand.New(rand.NewSource(1))
	nodes := mesh.NumNodes()
	for i := 0; i < 5000; i++ {
		// Cluster the traffic in one corner and in time so routes share
		// links and packets queue; starts jitter, so they are not sorted.
		src := topology.NodeID(rng.Intn(nodes / 3))
		dst := topology.NodeID(rng.Intn(nodes))
		start := int64(i/4 + rng.Intn(8))
		class := PacketClass(rng.Intn(2))
		want := ref.Send(src, dst, start, class)
		if got := v.Send(src, dst, start, class); got != want {
			t.Fatalf("send %d (%d->%d at %d): view arrival %d, network %d", i, src, dst, start, got, want)
		}
		if rng.Intn(7) == 0 {
			v.Fold()
			v.BeginWindow()
		}
	}
	v.Fold()
	v.FlushStats()
	if got, want := sub.Stats(), ref.Stats(); got != want {
		t.Errorf("stats after flush:\n got %+v\nwant %+v", got, want)
	}
	if ref.Stats().QueuedCycles == 0 {
		t.Error("no packet queued: the sequence does not exercise contention")
	}
	if got, want := sub.LinkLoads(), ref.LinkLoads(); !reflect.DeepEqual(got, want) {
		t.Error("link loads after flush differ from the network's")
	}
}

// TestShardViewsSerializeOnFold: two views that use one link in the
// same window each see it idle, but folding them (C = max(val, C+occ))
// queues the second view's occupancy behind the first's instead of
// letting the packets overlap, while a view whose packet came after the
// link freed keeps its own timeline.
func TestShardViewsSerializeOnFold(t *testing.T) {
	mesh := topology.Default6x6()
	n := New(mesh, DefaultConfig())
	src, dst := topology.NodeID(0), topology.NodeID(1)
	link := n.routes.Route(src, dst)[0]
	perHop := n.cfg.RouterCycles + n.cfg.LinkCycles
	occupy := Data.flits() * n.cfg.LinkCycles

	a, b := n.NewShardView(), n.NewShardView()
	ta := a.Send(src, dst, 0, Data)
	tb := b.Send(src, dst, 0, Data)
	if ta != perHop || tb != perHop {
		t.Fatalf("same-window sends should each see the link idle: arrivals %d, %d, want %d", ta, tb, perHop)
	}
	a.Fold()
	b.Fold()
	if got, want := n.busyUntil[link], perHop+2*occupy; got != want {
		t.Errorf("busy-until after folding two overlapping views = %d, want %d (serialized)", got, want)
	}

	// A later packet in the next window finds the link still busy.
	a.BeginWindow()
	if got, want := a.Send(src, dst, 0, Data), perHop+2*occupy; got != want {
		t.Errorf("next-window arrival = %d, want %d (queued behind both views)", got, want)
	}
	a.Fold()

	// A view whose packet reaches the link after it frees keeps its own
	// timeline: no idle gap is double-counted.
	b.BeginWindow()
	late := int64(1000)
	if got := b.Send(src, dst, late, Data); got != late+perHop {
		t.Fatalf("late send arrival = %d, want %d", got, late+perHop)
	}
	b.Fold()
	if got, want := n.busyUntil[link], late+perHop+occupy; got != want {
		t.Errorf("busy-until after a late view's fold = %d, want %d", got, want)
	}
}
