// Package cluster turns a set of efficsensed processes into a peer
// group: a consistent-hash ring assigns each node a segment of the
// evaluation keyspace, and a groupcache-style peering client fetches a
// missing result from the key's owner before computing it locally.
//
// The ring hashes with FNV-1a 64 — a fixed, platform-independent
// function — so every node derives the same placement from the same
// membership list, with no coordination. Placement must survive process
// restarts and mixed architectures; a seeded or per-process hash
// (maphash) would silently partition the fleet.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node count per member when the
// configuration leaves it zero. More virtual nodes smooth the keyspace
// split (the coefficient of variation of segment sizes falls roughly
// with 1/sqrt(vnodes)) at the cost of a larger sorted ring.
const DefaultVNodes = 64

// Member identifies one node of the group: Name is its stable identity
// (ring placement and job-ID routing hash the name, so a node keeps its
// keyspace segment across address changes), Addr its reachable base URL
// ("http://host:port").
type Member struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
}

func (m Member) String() string { return m.Name + "=" + m.Addr }

// hashString is FNV-1a 64 of s, finalised with the SplitMix64 mixer.
// FNV alone has weak avalanche on short, nearly-identical inputs — the
// vnode labels "a#0", "a#1", … cluster on the ring badly enough to skew
// a 3-node split past 50/10 — and the mixer restores a uniform spread.
// Both stages are fixed functions of the bytes, so placement stays
// identical across processes and platforms.
func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

type ringPoint struct {
	hash   uint64
	member int // index into Ring.members
}

// Ring is an immutable consistent-hash ring over a member set. Build a
// new one on every membership change; lookups are lock-free.
type Ring struct {
	members []Member // sorted by name, deduplicated
	points  []ringPoint
	vnodes  int
}

// NewRing places each member at vnodes positions derived from its name
// (hash of "name#i"). Members with duplicate names collapse to the
// first occurrence; vnodes <= 0 selects DefaultVNodes. Placement
// depends only on the name set and vnode count — never on the order
// members were listed, their addresses, or the process.
func NewRing(vnodes int, members []Member) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	sorted := make([]Member, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m.Name == "" || seen[m.Name] {
			continue
		}
		seen[m.Name] = true
		sorted = append(sorted, m)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	r := &Ring{members: sorted, vnodes: vnodes}
	r.points = make([]ringPoint, 0, len(sorted)*vnodes)
	for i, m := range sorted {
		label := m.Name + "#"
		for v := 0; v < vnodes; v++ {
			h := hashString(label + strconv.Itoa(v))
			r.points = append(r.points, ringPoint{hash: h, member: i})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Hash ties (vanishingly rare in a 64-bit space) break by member
		// name so placement stays deterministic across build orders.
		return r.members[a.member].Name < r.members[b.member].Name
	})
	return r
}

// Owner maps key to the member owning its ring segment: the first
// virtual node clockwise from the key's hash. ok is false only for an
// empty ring.
func (r *Ring) Owner(key string) (Member, bool) {
	if r == nil || len(r.points) == 0 {
		return Member{}, false
	}
	h := hashString(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.members[r.points[i].member], true
}

// Members returns the deduplicated member set in name order.
func (r *Ring) Members() []Member {
	if r == nil {
		return nil
	}
	return append([]Member(nil), r.members...)
}

// Size is the number of members on the ring.
func (r *Ring) Size() int {
	if r == nil {
		return 0
	}
	return len(r.members)
}

// VNodes is the per-member virtual-node count the ring was built with.
func (r *Ring) VNodes() int {
	if r == nil {
		return 0
	}
	return r.vnodes
}

// Shares reports the fraction of the 2^64 hash space each member owns.
// The fractions sum to 1 for a non-empty ring; /v1/cluster surfaces
// them so operators can see how even the split is.
func (r *Ring) Shares() map[string]float64 {
	shares := make(map[string]float64)
	if r == nil || len(r.points) == 0 {
		return shares
	}
	const span = float64(1<<63) * 2 // 2^64 as a float64
	for i, p := range r.points {
		prev := r.points[(i+len(r.points)-1)%len(r.points)].hash
		width := p.hash - prev // wraps correctly in uint64 arithmetic
		if len(r.points) == 1 {
			width = ^uint64(0)
		}
		shares[r.members[p.member].Name] += float64(width) / span
	}
	return shares
}

// checkName rejects member names that cannot embed in job IDs or metric
// labels: empty, or containing '/', '=', ',', '"', or whitespace.
func checkName(name string) error {
	if name == "" {
		return fmt.Errorf("cluster: member name must not be empty")
	}
	for _, c := range name {
		switch {
		case c == '/' || c == '=' || c == ',' || c == '"':
			return fmt.Errorf("cluster: member name %q contains reserved character %q", name, c)
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			return fmt.Errorf("cluster: member name %q contains whitespace", name)
		}
	}
	return nil
}
