package main

import (
	"fmt"
	"math/rand"
	"sort"

	"dynctrl/internal/controller"
	"dynctrl/internal/tree"
)

// group is one initial node a churn stream owns, plus the nodes the stream
// created around it: internal nodes inserted on the edge above it (chain,
// top to bottom, so the last element is the node's current parent) and
// leaves added under it. Only the owning stream touches a group, which is
// what keeps every request valid under any interleaving of streams.
type group struct {
	node   tree.NodeID
	parent tree.NodeID // parent in the initial tree
	chain  []tree.NodeID
	leaves []tree.NodeID
	// addedAbove marks a pending AddInternal in the chunk being built: the
	// node's parent is then a node whose id arrives only with the reply.
	addedAbove bool
}

func (g *group) currentParent() tree.NodeID {
	if n := len(g.chain); n > 0 {
		return g.chain[n-1]
	}
	return g.parent
}

// pendingOp remembers, per request of the chunk in flight, which group a
// topological addition belongs to, so the reply's NewNode lands there.
type pendingOp struct {
	g    *group
	kind tree.ChangeKind
}

// stream is one closed-loop client's request generator. With topoPct = 0
// it issues E13-style metered events at uniformly random initial nodes;
// with topoPct > 0 it also changes the topology, but only around the
// initial nodes it owns, and removes only nodes it created itself (known
// from Result.NewNode), holding at most maxLive of them. The generator
// never consults the server's tree: every choice comes from its own seeded
// RNG and the replies to its own requests.
type stream struct {
	rng     *rand.Rand
	nodes   []tree.NodeID // all initial nodes: event targets
	groups  []*group
	topoPct int
	maxLive int
	chunk   int

	live    int // created nodes known to exist
	pending int // additions in flight (ids not yet known)

	reqs []controller.Request
	ops  []pendingOp
}

// streamSpec fixes a workload's generator shape. None of it depends on run
// length.
type streamSpec struct {
	streams int
	chunk   int
	topoPct int // share of requests, in percent, that change the topology
	maxLive int // created nodes each stream may hold at once
}

// newStreams builds spec.streams generators over tr's initial nodes. The
// non-root initial nodes are dealt round-robin (in id order) to the
// streams, so ownership is disjoint. Stream i draws from its own RNG
// derived from seed, so the same seed yields the same requests.
func newStreams(tr *tree.Tree, spec streamSpec, seed int64) ([]*stream, error) {
	if spec.streams < 1 || spec.chunk < 1 {
		return nil, fmt.Errorf("streams: need at least one stream and a positive chunk, got %+v", spec)
	}
	nodes := tr.Nodes()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	out := make([]*stream, spec.streams)
	for i := range out {
		out[i] = &stream{
			rng:     rand.New(rand.NewSource(seed*1_000_003 + int64(i)*7919 + 1)),
			nodes:   nodes,
			topoPct: spec.topoPct,
			maxLive: spec.maxLive,
			chunk:   spec.chunk,
		}
	}
	if spec.topoPct == 0 {
		return out, nil
	}
	root := tr.Root()
	k := 0
	for _, id := range nodes {
		if id == root {
			continue
		}
		p, err := tr.Parent(id)
		if err != nil {
			return nil, err
		}
		s := out[k%len(out)]
		s.groups = append(s.groups, &group{node: id, parent: p})
		k++
	}
	for i, s := range out {
		if len(s.groups) == 0 {
			return nil, fmt.Errorf("streams: stream %d owns no node (tree of %d nodes, %d streams)", i, len(nodes), len(out))
		}
	}
	return out, nil
}

// next builds the stream's next chunk. The returned slice is reused by the
// following call; observe must see its results first.
func (s *stream) next() []controller.Request {
	s.reqs, s.ops = s.reqs[:0], s.ops[:0]
	for _, g := range s.groups {
		g.addedAbove = false
	}
	for len(s.reqs) < s.chunk {
		req, op := s.draw()
		s.reqs = append(s.reqs, req)
		s.ops = append(s.ops, op)
	}
	return s.reqs
}

// draw picks one request. A topological draw that has no valid target in
// the current chunk falls back to an event.
func (s *stream) draw() (controller.Request, pendingOp) {
	if s.topoPct > 0 && s.rng.Intn(100) < s.topoPct {
		add := s.rng.Intn(2) == 0
		switch {
		case s.live+s.pending >= s.maxLive:
			add = false
		case s.live == 0:
			add = true
		}
		if add {
			if req, op, ok := s.addition(); ok {
				return req, op
			}
		} else if req, ok := s.removal(); ok {
			return req, pendingOp{}
		}
	}
	return controller.Request{Node: s.nodes[s.rng.Intn(len(s.nodes))], Kind: tree.None}, pendingOp{}
}

func (s *stream) addition() (controller.Request, pendingOp, bool) {
	g := s.groups[s.rng.Intn(len(s.groups))]
	if s.rng.Intn(2) == 0 {
		s.pending++
		return controller.Request{Node: g.node, Kind: tree.AddLeaf}, pendingOp{g: g, kind: tree.AddLeaf}, true
	}
	if g.addedAbove {
		return controller.Request{}, pendingOp{}, false
	}
	g.addedAbove = true
	s.pending++
	return controller.Request{Node: g.currentParent(), Kind: tree.AddInternal, Child: g.node},
		pendingOp{g: g, kind: tree.AddInternal}, true
}

// removal picks a uniformly random live created node and removes it. A
// chain node stays internal until removed (the owned node hangs below
// it), and nothing is ever added under a created leaf, so the kind chosen
// here holds whenever the request executes.
func (s *stream) removal() (controller.Request, bool) {
	if s.live == 0 {
		return controller.Request{}, false
	}
	pick := s.rng.Intn(s.live)
	for _, g := range s.groups {
		if pick < len(g.leaves) {
			id := g.leaves[pick]
			g.leaves = append(g.leaves[:pick], g.leaves[pick+1:]...)
			s.live--
			return controller.Request{Node: id, Kind: tree.RemoveLeaf}, true
		}
		pick -= len(g.leaves)
		if pick < len(g.chain) {
			id := g.chain[pick]
			g.chain = append(g.chain[:pick], g.chain[pick+1:]...)
			s.live--
			return controller.Request{Node: id, Kind: tree.RemoveInternal}, true
		}
		pick -= len(g.chain)
	}
	panic("perfbench: live count out of step with the groups")
}

// observe learns the ids of the nodes the last chunk created. res must be
// the answers to the requests next returned, in order; it returns an error
// when an addition came back without a new node, since the generator would
// otherwise lose track of the tree.
func (s *stream) observe(res []controller.BatchResult) error {
	if len(res) != len(s.ops) {
		return fmt.Errorf("stream: %d results for %d requests", len(res), len(s.ops))
	}
	for i, op := range s.ops {
		if op.g == nil {
			continue
		}
		s.pending--
		r := res[i]
		if r.Err != nil || r.Grant.Outcome != controller.Granted || r.Grant.NewNode == tree.InvalidNode {
			return fmt.Errorf("stream: %v at %d not granted with a new node (outcome %v, err %v)",
				op.kind, s.reqs[i].Node, r.Grant.Outcome, r.Err)
		}
		if op.kind == tree.AddLeaf {
			op.g.leaves = append(op.g.leaves, r.Grant.NewNode)
		} else {
			op.g.chain = append(op.g.chain, r.Grant.NewNode)
		}
		s.live++
	}
	return nil
}
