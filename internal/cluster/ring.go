// Package cluster turns qsmd from a single binary into a sharded,
// replicated service: a consistent-hash ring places every result key on an
// owning node (plus R−1 successor replicas), a static membership layer with
// health-checked peer clients tracks which nodes are reachable, and a
// request router in front of each node's local scheduler forwards
// submissions and polls to the key's owner, replicates freshly computed
// entries to the successors, and read-repairs replica misses.
//
// Placement is deterministic: the ring hashes (seed, member, vnode) points
// with SHA-256, so every node configured with the same member list, seed,
// and vnode count computes the identical ring without any coordination —
// membership is configuration (-peers), not consensus. Because submissions
// for a key always route to its primary owner, the owner's admission queue
// runs concurrent identical submissions one at a time cluster-wide, so one
// simulation serves them all; because the store is content-addressed and
// the simulator deterministic, any node can fall back to computing any key
// locally when the owners are unreachable and still produce byte-identical
// results. The cluster layer therefore moves latency and placement around,
// never results — which is what the cluster chaos harness (internal/faults)
// asserts under peer_down and peer_slow schedules.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultVNodes is the per-member virtual-node count when a Ring is built
// without one. More vnodes smooth ownership shares and shrink the key range
// that moves on a membership change, at linear ring-size cost.
const DefaultVNodes = 64

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash   uint64
	member int // index into Ring.members
}

// Ring is an immutable consistent-hash ring over a member set. Placement is
// a pure function of (seed, members, vnodes): every node building a ring
// from the same configuration agrees on every key's owners. Build one with
// NewRing; all methods are safe for concurrent use.
type Ring struct {
	seed    int64
	vnodes  int
	members []string // sorted unique
	points  []ringPoint
}

// NewRing builds a ring over the given members (deduplicated and sorted,
// so member order does not affect placement) with vnodes virtual nodes per
// member (<= 0 means DefaultVNodes). The seed perturbs every point hash,
// letting tests build differently shaped rings from the same member names.
func NewRing(seed int64, vnodes int, members []string) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := map[string]bool{}
	uniq := make([]string, 0, len(members))
	for _, m := range members {
		if m == "" {
			return nil, fmt.Errorf("cluster: empty ring member")
		}
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	sort.Strings(uniq)
	r := &Ring{seed: seed, vnodes: vnodes, members: uniq}
	r.points = make([]ringPoint, 0, len(uniq)*vnodes)
	for mi, m := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(seed, m, v), member: mi})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// A full 64-bit hash collision between two members' points is
		// vanishingly rare but must still order deterministically.
		return r.points[a].member < r.points[b].member
	})
	return r, nil
}

// pointHash positions virtual node v of member m on the circle.
func pointHash(seed int64, member string, v int) uint64 {
	var buf [8]byte
	h := sha256.New()
	binary.BigEndian.PutUint64(buf[:], uint64(seed))
	h.Write(buf[:])
	h.Write([]byte(member))
	binary.BigEndian.PutUint64(buf[:], uint64(v))
	h.Write(buf[:])
	return binary.BigEndian.Uint64(h.Sum(nil)[:8])
}

// KeyHash positions a result key on the circle.
func KeyHash(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// Members returns the ring's member set in sorted order. The slice is
// shared; callers must not mutate it.
func (r *Ring) Members() []string { return r.members }

// VNodes returns the per-member virtual-node count.
func (r *Ring) VNodes() int { return r.vnodes }

// Seed returns the ring's placement seed.
func (r *Ring) Seed() int64 { return r.seed }

// owner returns the index of the first ring point at or clockwise of h.
func (r *Ring) ownerIndex(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point to the lowest
	}
	return i
}

// Owner returns the member owning key: the member of the first virtual node
// at or clockwise of the key's hash.
func (r *Ring) Owner(key string) string {
	return r.members[r.points[r.ownerIndex(KeyHash(key))].member]
}

// Owners returns the key's owner followed by its distinct successor members
// in ring order — the replica set for replication factor n. Fewer members
// than n returns all of them.
func (r *Ring) Owners(key string, n int) []string {
	if n < 1 {
		n = 1
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	out := make([]string, 0, n)
	seen := make(map[int]bool, n)
	start := r.ownerIndex(KeyHash(key))
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, r.members[p.member])
		}
	}
	return out
}

// Shares returns each member's ownership fraction of the hash circle — the
// summed arc length preceding its virtual nodes over 2^64. Shares sum to 1
// and concentrate toward 1/len(members) as vnodes grows; /statusz exposes
// them so ring imbalance is observable rather than assumed.
func (r *Ring) Shares() map[string]float64 {
	out := make(map[string]float64, len(r.members))
	if len(r.members) == 1 {
		out[r.members[0]] = 1
		return out
	}
	for i, p := range r.points {
		// Unsigned subtraction wraps, so the first point's arc from the
		// last point around zero comes out right.
		prev := r.points[(i+len(r.points)-1)%len(r.points)].hash
		arc := p.hash - prev
		out[r.members[p.member]] += float64(arc) / (1 << 64)
	}
	return out
}
