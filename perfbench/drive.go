package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dynctrl/internal/controller"
	"dynctrl/internal/workload"
)

// tally counts one stream's outcomes. An answered request is correct when
// it carries no error and is granted (no run nears M−W grants, so a
// reject is wrong), and a granted addition names its new node.
type tally struct {
	attempted int64 // requests handed to the submitter
	answered  int64 // requests that came back with a result
	granted   int64
	rejected  int64
	errs      int64 // per-request errors
	wrong     int64 // granted additions without a new node, unknown outcomes
}

func (t *tally) count(reqs []controller.Request, out []controller.BatchResult) {
	t.answered += int64(len(out))
	for i, r := range out {
		switch {
		case r.Err != nil:
			t.errs++
		case r.Grant.Outcome == controller.Granted:
			t.granted++
			if reqs[i].Kind.IsAddition() && r.Grant.NewNode == 0 {
				t.wrong++
			}
		case r.Grant.Outcome == controller.Rejected:
			t.rejected++
		default:
			t.wrong++
		}
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.answered += o.answered
	t.granted += o.granted
	t.rejected += o.rejected
	t.errs += o.errs
	t.wrong += o.wrong
}

// failed counts the requests that did not come back granted and correct.
// Rejects are judged separately, against the liveness bound.
func (t *tally) failed() int64 {
	return t.attempted - t.answered + t.errs + t.wrong
}

// recorder keeps each stream's first chunks, requests and answers, for the
// codec, replay and persist rungs of the layer ladder.
type recorder struct {
	perStream int
	chunks    [][]recorded
}

type recorded struct {
	reqs []controller.Request
	res  []controller.BatchResult
}

func newRecorder(streams, perStream int) *recorder {
	return &recorder{perStream: perStream, chunks: make([][]recorded, streams)}
}

// keep copies one answered chunk of stream i, until the stream's quota is
// full. Each stream calls it from its own goroutine.
func (r *recorder) keep(i int, reqs []controller.Request, res []controller.BatchResult) {
	if r == nil || len(r.chunks[i]) >= r.perStream {
		return
	}
	r.chunks[i] = append(r.chunks[i], recorded{
		reqs: append([]controller.Request(nil), reqs...),
		res:  append([]controller.BatchResult(nil), res...),
	})
}

func (r *recorder) all() []recorded {
	var out []recorded
	for _, c := range r.chunks {
		out = append(out, c...)
	}
	return out
}

// closedLoop drives streams against one submitter, one goroutine per
// stream, each sending its next chunk as soon as the previous one is
// answered. It serves client.Client and pipeline.Pipeline alike.
type closedLoop struct {
	sub      workload.ManySubmitter
	streams  []*stream
	stop     atomic.Bool
	answered []atomic.Int64
	base     time.Time // when the streams started
	// lat is the current sub-window's latency histogram, nil outside the
	// measured window. A call records its latency when its answer arrives.
	lat      atomic.Pointer[hist]
	tallies  []tally
	failures []error
	tr       *tracer
	rec      *recorder
	parent   int64
	wg       sync.WaitGroup
}

// startClosedLoop starts one goroutine per stream.
func startClosedLoop(sub workload.ManySubmitter, streams []*stream, tr *tracer, rec *recorder, parent int64) *closedLoop {
	c := &closedLoop{
		sub:      sub,
		streams:  streams,
		answered: make([]atomic.Int64, len(streams)),
		base:     time.Now(),
		tallies:  make([]tally, len(streams)),
		failures: make([]error, len(streams)),
		tr:       tr,
		rec:      rec,
		parent:   parent,
	}
	for i := range streams {
		c.wg.Add(1)
		go c.drive(i)
	}
	return c
}

func (c *closedLoop) drive(i int) {
	defer c.wg.Done()
	s, tl := c.streams[i], &c.tallies[i]
	sb := c.tr.buf()
	var sid, sStart int64
	if sb != nil {
		sid, sStart = sb.open(), c.tr.now()
	}
	var out []controller.BatchResult
	for !c.stop.Load() {
		reqs := s.next()
		t0 := time.Now()
		var err error
		out, err = c.sub.SubmitMany(reqs, out[:0])
		d := time.Since(t0)
		if h := c.lat.Load(); h != nil {
			h.record(int64(d))
		}
		if sb != nil {
			at := int64(t0.Sub(c.tr.base))
			sb.add(sid, "client.SubmitMany", at, at+int64(d))
		}
		tl.attempted += int64(len(reqs))
		if err != nil {
			c.failures[i] = fmt.Errorf("stream %d: %w", i, err)
			break
		}
		tl.count(reqs, out)
		c.rec.keep(i, reqs, out)
		if err := s.observe(out); err != nil {
			c.failures[i] = fmt.Errorf("stream %d: %w", i, err)
			break
		}
		c.answered[i].Add(int64(len(out)))
	}
	if sb != nil {
		sb.close(sid, c.parent, fmt.Sprintf("stream.%d", i), sStart, c.tr.now())
	}
}

// answeredNow sums the requests answered so far.
func (c *closedLoop) answeredNow() int64 {
	var n int64
	for i := range c.answered {
		n += c.answered[i].Load()
	}
	return n
}

// halt stops the streams after their calls in flight and waits for them.
func (c *closedLoop) halt() {
	c.stop.Store(true)
	c.wg.Wait()
}

func (c *closedLoop) total() tally {
	var t tally
	for _, tl := range c.tallies {
		t.add(tl)
	}
	return t
}

func (c *closedLoop) err() error { return errors.Join(c.failures...) }

// arrival is one open-loop request's send and reply times, in nanoseconds
// since the schedule's start; its due time sits in the schedule.
type arrival struct {
	send, reply int64
	// slept marks a slot that was free before the due time and slept
	// until it: lateness past the due time is then timer oversleep of the
	// generator, not a wait the daemon caused.
	slept bool
}

// charged is the start the request's latency is measured from: the due
// time, unless the slot slept until the due time and woke late.
func (a arrival) charged(due int64) int64 {
	if a.slept && a.send > due {
		return a.send
	}
	return due
}

// openLoop sends single-request frames on a precomputed arrival schedule
// from a fixed set of slots. A slot takes the next arrival as soon as it
// is free; if the arrival is not yet due it sleeps until it is, otherwise
// the arrival has been waiting for a slot and that wait is charged.
type openLoop struct {
	sub   workload.Submitter
	req   func(i int) controller.Request
	due   []time.Duration
	arr   []arrival
	base  time.Time
	next  atomic.Int64
	tally []tally
	errs  []error
	tr    *tracer
	rec   *recorder
	wg    sync.WaitGroup
}

// startOpenLoop sends req(i) at base+due[i] for every i.
func startOpenLoop(sub workload.Submitter, req func(i int) controller.Request, due []time.Duration, slots int,
	tr *tracer, rec *recorder, parent int64, base time.Time) *openLoop {
	o := &openLoop{
		sub:   sub,
		req:   req,
		due:   due,
		arr:   make([]arrival, len(due)),
		base:  base,
		tally: make([]tally, slots),
		errs:  make([]error, slots),
		tr:    tr,
		rec:   rec,
	}
	for i := 0; i < slots; i++ {
		o.wg.Add(1)
		go o.slot(i, parent)
	}
	return o
}

func (o *openLoop) slot(k int, parent int64) {
	defer o.wg.Done()
	sl, err := newSleeper()
	if err != nil {
		o.errs[k] = err
		return
	}
	defer sl.close()
	tl := &o.tally[k]
	sb := o.tr.buf()
	var sid, sStart int64
	if sb != nil {
		sid, sStart = sb.open(), o.tr.now()
	}
	var (
		one [1]controller.Request
		res [1]controller.BatchResult
	)
	for {
		i := int(o.next.Add(1)) - 1
		if i >= len(o.arr) {
			break
		}
		a := &o.arr[i]
		picked := time.Now()
		dueAt := o.base.Add(o.due[i])
		if picked.Before(dueAt) {
			if err := sl.until(dueAt); err != nil {
				o.errs[k] = err
				break
			}
			a.slept = true
		}
		one[0] = o.req(i)
		send := time.Now()
		g, err := o.sub.Submit(one[0])
		reply := time.Now()
		a.send, a.reply = int64(send.Sub(o.base)), int64(reply.Sub(o.base))
		if sb != nil {
			if a.slept {
				sb.add(sid, "gen.wait", int64(picked.Sub(o.base)), a.send)
			}
			sb.add(sid, "client.Submit", a.send, a.reply)
		}
		tl.attempted++
		res[0] = controller.BatchResult{Grant: g, Err: err}
		tl.count(one[:], res[:])
		o.rec.keep(k, one[:], res[:])
	}
	if sb != nil {
		sb.close(sid, parent, fmt.Sprintf("stream.%d", k), sStart, o.tr.now())
	}
}

func (o *openLoop) wait() { o.wg.Wait() }

func (o *openLoop) total() tally {
	var t tally
	for _, tl := range o.tally {
		t.add(tl)
	}
	return t
}

func (o *openLoop) err() error { return errors.Join(o.errs...) }

// windows splits the arrivals due in [from, from+n*width) into n
// sub-windows: per sub-window, the latency (reply minus charged start) of
// the arrivals due in it and the replies that landed in it. lag collects
// the generator's lateness (send minus due) over the whole span.
func (o *openLoop) windows(from int64, width time.Duration, n int) (lat []*hist, replies []int64, lag *hist) {
	lat, replies, lag = make([]*hist, n), make([]int64, n), newHist()
	for k := range lat {
		lat[k] = newHist()
	}
	w := int64(width)
	for i, a := range o.arr {
		if k := (a.reply - from) / w; a.reply >= from && k < int64(n) {
			replies[k]++
		}
		d := int64(o.due[i])
		if k := (d - from) / w; d >= from && k < int64(n) {
			lat[k].record(a.reply - a.charged(d))
			lag.record(a.send - d)
		}
	}
	return lat, replies, lag
}
