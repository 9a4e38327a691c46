package telemetry

import "sync"

// Federation folds N per-shard hubs into one coherent fleet: a single
// global Folder attached (as a synchronous consumer) to every member
// hub, plus subscription and accounting surfaces that span the members.
// It is the seam the hub was built for and the only place rows are
// folded — shard engines keep their own hubs (and no folder) and know
// nothing of each other, while the fleet endpoint, hwctl and the soak
// gate read one fleet regardless of shard count.
//
// Invariants (see docs/ARCHITECTURE.md "Fleet control plane"):
//
//   - Exact accounting composes: Stats sums the members, so
//     Delivered+Lost still equals total inserts across every table any
//     member hub ever watched — including drained and migrated homes,
//     whose final drain retires into their shard hub's books.
//   - Home IDs are fleet-unique (the coordinator allocates them), so
//     folding per-shard streams never merges two homes' rows.
//   - Fan-out is deterministic when the members are flushed in a fixed
//     order (the coordinator syncs engines in shard order): within one
//     hub's flush, sources drain in (Home, Table) order.
type Federation struct {
	folder *Folder

	mu      sync.Mutex
	members []Member
	// fns are the SubscribeFunc handlers registered so far; a hub
	// attached later gets every one of them, so fleet-level consumers
	// (the health monitor, the flight recorder) see replacement shards'
	// streams without re-subscribing.
	fns []func(Delta)
}

// NewFederation builds a federation with an empty member set and its
// global folder; AttachMember wires members in as shards come up.
func NewFederation(cfg FolderConfig) *Federation {
	return &Federation{folder: NewFolder(cfg)}
}

// AttachMember adds any telemetry member — an in-process shard hub or a
// Relay mirroring a remote worker's hub — to the federation. Every delta
// the member fans out from here on is folded into the global view, so
// attach before the member's first flush, or earlier rows will be
// visible only in the member's own accounting.
func (fd *Federation) AttachMember(m Member) {
	fd.mu.Lock()
	fd.members = append(fd.members, m)
	fns := append([]func(Delta){}, fd.fns...)
	fd.mu.Unlock()
	m.SubscribeFunc(fd.folder.consume)
	for _, fn := range fns {
		m.SubscribeFunc(fn)
	}
}

// Members returns how many hubs are federated.
func (fd *Federation) Members() int {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	return len(fd.members)
}

// Folder returns the global folder: fleet-wide totals, per-home and
// per-device rates, and the federated FleetStats view.
func (fd *Federation) Folder() *Folder { return fd.folder }

// AddHome starts tracking a home in the global folder (hosts may be
// nil). The coordinator calls it when a home is assigned to any shard.
func (fd *Federation) AddHome(id uint64, hosts func() int) { fd.folder.AddHome(id, hosts) }

// RemoveHome drops a home's per-home state from the global folder after
// its shard drained it. Its contribution to the fleet cumulative totals
// and its committed view rows remain.
func (fd *Federation) RemoveHome(id uint64) { fd.folder.RemoveHome(id) }

// Commit appends one federated FleetStats view row per home with
// activity since the previous Commit. The coordinator calls it once per
// fleet tick, after syncing every member.
func (fd *Federation) Commit() int { return fd.folder.Commit() }

// Stats sums the members' cumulative accounting (including retired
// sources). Delivered+Lost equals the total inserts across every table
// any member has finished draining.
func (fd *Federation) Stats() HubStats {
	fd.mu.Lock()
	members := append([]Member(nil), fd.members...)
	fd.mu.Unlock()
	var st HubStats
	for _, h := range members {
		hs := h.Stats()
		st.Sources += hs.Sources
		st.Delivered += hs.Delivered
		st.Lost += hs.Lost
	}
	return st
}

// Subscribe registers one channel consumer across every member hub: one
// channel, one loss book, deltas from all shards interleaved in each
// shard's drain order. Deltas the consumer cannot accept are dropped
// with their row count accounted and folded into the Lost field of the
// next delivered delta, exactly as with a single hub.
func (fd *Federation) Subscribe(buf int) *Subscription {
	if buf <= 0 {
		buf = 64
	}
	fd.mu.Lock()
	members := append([]Member(nil), fd.members...)
	fd.mu.Unlock()
	sub := &Subscription{members: members, ch: make(chan Delta, buf)}
	for _, m := range members {
		m.addSub(sub)
	}
	return sub
}

// SubscribeFunc registers a synchronous handler on every member —
// current and future (members attached later are subscribed in
// AttachMember). It runs inside each member's drain pass. Source home IDs
// are fleet-unique so the handler needs no shard disambiguation.
func (fd *Federation) SubscribeFunc(fn func(Delta)) {
	fd.mu.Lock()
	members := append([]Member(nil), fd.members...)
	fd.fns = append(fd.fns, fn)
	fd.mu.Unlock()
	for _, m := range members {
		m.SubscribeFunc(fn)
	}
}
