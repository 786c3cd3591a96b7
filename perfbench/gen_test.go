package main

import (
	"fmt"
	"math/rand"
	"testing"

	"dynctrl/internal/controller"
	"dynctrl/internal/tree"
)

// churnSpec is the churn-wal workload's generator shape.
var churnSpec = func() streamSpec {
	for _, w := range workloads {
		if w.name == "churn-wal" {
			return w.spec
		}
	}
	panic("no churn-wal workload")
}()

// applyMirror executes one request on a local tree with the controller's
// validity rules and returns the answer the daemon would give.
func applyMirror(tr *tree.Tree, req controller.Request) (controller.BatchResult, error) {
	granted := controller.BatchResult{Grant: controller.Grant{Outcome: controller.Granted}}
	if !tr.Contains(req.Node) {
		return granted, fmt.Errorf("%v at missing node %d", req.Kind, req.Node)
	}
	switch req.Kind {
	case tree.None:
	case tree.AddLeaf:
		id, err := tr.ApplyAddLeaf(req.Node)
		granted.Grant.NewNode = id
		return granted, err
	case tree.AddInternal:
		p, err := tr.Parent(req.Child)
		if err != nil || p != req.Node {
			return granted, fmt.Errorf("add-internal at %d above %d: parent is %d (%v)", req.Node, req.Child, p, err)
		}
		id, err := tr.ApplyAddInternal(req.Child)
		granted.Grant.NewNode = id
		return granted, err
	case tree.RemoveLeaf:
		if req.Node == tr.Root() || !tr.IsLeaf(req.Node) {
			return granted, fmt.Errorf("remove-leaf at non-leaf %d", req.Node)
		}
		return granted, tr.ApplyRemoveLeaf(req.Node)
	case tree.RemoveInternal:
		if req.Node == tr.Root() || tr.IsLeaf(req.Node) {
			return granted, fmt.Errorf("remove-internal at leaf %d", req.Node)
		}
		return granted, tr.ApplyRemoveInternal(req.Node)
	default:
		return granted, fmt.Errorf("unknown kind %v", req.Kind)
	}
	return granted, nil
}

// TestChurnStaysValidUnderInterleaving replays the churn-wal generator
// against a local mirror of the daemon's tree, interleaving the streams at
// request granularity in a random order (each stream's chunks stay in
// order, and a stream sees its answers only once its whole chunk ran, as
// over the wire). Every request must be valid when it executes and the
// tree must stay within its band.
func TestChurnStaysValidUnderInterleaving(t *testing.T) {
	total := 1_000_000
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		total, seeds = 100_000, seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			tr, err := initialTree()
			if err != nil {
				t.Fatal(err)
			}
			streams, err := newStreams(tr, churnSpec, seed)
			if err != nil {
				t.Fatal(err)
			}
			type inflight struct {
				reqs []controller.Request
				res  []controller.BatchResult
			}
			cur := make([]inflight, len(streams))
			for i, s := range streams {
				cur[i].reqs = s.next()
			}
			lo, hi := treeNodes, treeNodes+churnSpec.streams*churnSpec.maxLive
			sched := rand.New(rand.NewSource(seed + 100))
			var topo int
			for n := 0; n < total; n++ {
				i := sched.Intn(len(streams))
				f := &cur[i]
				req := f.reqs[len(f.res)]
				if req.Kind != tree.None {
					topo++
				}
				res, err := applyMirror(tr, req)
				if err != nil {
					t.Fatalf("request %d (stream %d): %v", n, i, err)
				}
				f.res = append(f.res, res)
				if size := tr.Size(); size < lo || size > hi {
					t.Fatalf("request %d: tree size %d left the band %d..%d", n, size, lo, hi)
				}
				if len(f.res) == len(f.reqs) {
					if err := streams[i].observe(f.res); err != nil {
						t.Fatal(err)
					}
					f.res = f.res[:0]
					f.reqs = streams[i].next()
				}
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			if share := float64(topo) / float64(total); share < 0.15 || share > 0.21 {
				t.Errorf("topology share %.3f, want about 0.2", share)
			}
			t.Logf("final tree %d nodes, topology share %.3f", tr.Size(), float64(topo)/float64(total))
		})
	}
}

// TestEventStreamsAreEventsOnly checks the events workload's generator:
// only events, at initial nodes, and reproducible from the seed.
func TestEventStreamsAreEventsOnly(t *testing.T) {
	tr, err := initialTree()
	if err != nil {
		t.Fatal(err)
	}
	spec := streamSpec{streams: 4, chunk: 128}
	a, err := newStreams(tr, spec, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newStreams(tr, spec, 9)
	c, _ := newStreams(tr, spec, 10)
	same, differ := true, false
	for round := 0; round < 10; round++ {
		for i := range a {
			ra, rb, rc := a[i].next(), b[i].next(), c[i].next()
			for j, req := range ra {
				if req.Kind != tree.None || !tr.Contains(req.Node) {
					t.Fatalf("events stream issued %+v", req)
				}
				same = same && req == rb[j]
				differ = differ || req != rc[j]
			}
		}
	}
	if !same || !differ {
		t.Errorf("same seed reproduces: %v, another seed differs: %v", same, differ)
	}
}
