package main

import (
	"math"
	"testing"
	"time"

	"dynctrl/internal/controller"
	"dynctrl/internal/tree"
)

// stallSubmitter answers after a fixed service time, except that the
// request whose node is stallAt takes stall instead.
type stallSubmitter struct {
	service, stall time.Duration
	stallAt        int
}

func (s stallSubmitter) Submit(req controller.Request) (controller.Grant, error) {
	d := s.service
	if int(req.Node) == s.stallAt {
		d = s.stall
	}
	time.Sleep(d)
	return controller.Grant{Outcome: controller.Granted}, nil
}

func TestChargedStart(t *testing.T) {
	cases := []struct {
		a    arrival
		want int64
	}{
		{arrival{send: 150, reply: 160, slept: true}, 150},  // timer oversleep: not charged
		{arrival{send: 150, reply: 160, slept: false}, 100}, // waited for a slot: charged
		{arrival{send: 90, reply: 160, slept: true}, 100},   // woke early: from the due time
	}
	for _, c := range cases {
		if got := c.a.charged(100); got != c.want {
			t.Errorf("%+v: charged start %d, want %d", c.a, got, c.want)
		}
	}
}

// TestOpenLoopChargesBacklogNotOversleep drives the open loop with one
// slot against a fake submitter that stalls once. Arrivals before the
// stall find the slot free, sleep until due and are charged only their
// service time. Arrivals that fall due during the stall wait for the slot,
// and that wait is charged from their due time.
func TestOpenLoopChargesBacklogNotOversleep(t *testing.T) {
	const (
		gap     = 5 * time.Millisecond
		n       = 30
		stallAt = 4
		service = 200 * time.Microsecond
		stall   = 60 * time.Millisecond
	)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * gap
	}
	// Node ids double as request indexes for the fake submitter.
	req := func(i int) controller.Request { return controller.Request{Node: tree.NodeID(i)} }
	o := startOpenLoop(stallSubmitter{service: service, stall: stall, stallAt: stallAt}, req, due, 1,
		nil, nil, 0, time.Now().Add(5*time.Millisecond))
	o.wait()
	if err := o.err(); err != nil {
		t.Fatal(err)
	}
	if tl := o.total(); tl.attempted != n || tl.granted != n || tl.failed() != 0 {
		t.Fatalf("tally %+v", tl)
	}
	stallEnd := o.arr[stallAt].reply
	for i, a := range o.arr {
		d := int64(due[i])
		lat := time.Duration(a.reply - a.charged(d))
		switch {
		case i <= stallAt:
			if !a.slept {
				t.Errorf("arrival %d: slot was free, yet it did not sleep", i)
			}
			if i < stallAt && lat > 20*time.Millisecond {
				t.Errorf("arrival %d: charged %v for a %v service", i, lat, service)
			}
		case d < stallEnd:
			if a.slept {
				t.Errorf("arrival %d due during the stall slept", i)
			}
			if want := time.Duration(stallEnd - d); lat < want {
				t.Errorf("arrival %d: charged %v, less than its %v wait for the slot", i, lat, want)
			}
		}
	}
	lat, replies, lag := o.windows(0, 2*n*gap, 1)
	if replies[0] != n || lat[0].n != n || lag.n != n {
		t.Errorf("window stats: %d replies, %d latencies, %d lags for %d arrivals", replies[0], lat[0].n, lag.n, n)
	}
}

func TestHistQuantilesInterpolate(t *testing.T) {
	h := newHist()
	for v := int64(1); v <= 100_000; v++ {
		h.record(v * 1000) // 1 µs .. 100 ms
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 100_000 * 1000
		if got := h.quantile(q); math.Abs(got-want)/want > 0.005 {
			t.Errorf("q%.2f = %.0f, want %.0f", q, got, want)
		}
	}
	if a, b := h.quantile(0.5), h.quantile(0.5001); a == b {
		t.Errorf("quantiles inside one bucket do not interpolate: %v", a)
	}
}
