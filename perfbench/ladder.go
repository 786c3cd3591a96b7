package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dynctrl/internal/controller"
	"dynctrl/internal/dist"
	"dynctrl/internal/persist"
	"dynctrl/internal/pipeline"
	"dynctrl/internal/server"
	"dynctrl/internal/sim"
	"dynctrl/internal/wire"
	"dynctrl/internal/workload"
)

// The layer ladder runs each rung for rungTime, and the whole ladder
// ladderRounds times, interleaved, so slow drift of the machine hits every
// rung alike. Each rung reports nanoseconds per request; a rung's ratio is
// its cost over the cost of the rung below it on that workload (dist,
// pipeline, codec, then server_replay or persist), taken per round and
// reported as the median over rounds.
const (
	ladderRounds = 3
	rungTime     = 400 * time.Millisecond
	// headerLen is a wire frame's length prefix plus type byte.
	headerLen = 5
)

// serialBatcher adapts a controller that answers whole batches to
// workload.ManySubmitter, for a caller that drives it from one goroutine.
type serialBatcher struct{ b controller.BatchSubmitter }

func (s serialBatcher) SubmitMany(reqs []controller.Request, out []controller.BatchResult) ([]controller.BatchResult, error) {
	return s.b.SubmitBatch(reqs, out), nil
}

// driveSerial plays the streams round-robin against sub from the calling
// goroutine until dur has passed, checking every answer. It returns the
// requests answered.
func driveSerial(sub workload.ManySubmitter, streams []*stream, dur time.Duration) (int64, error) {
	var n int64
	var out []controller.BatchResult
	deadline := time.Now().Add(dur)
	for time.Now().Before(deadline) {
		for _, s := range streams {
			reqs := s.next()
			var err error
			if out, err = sub.SubmitMany(reqs, out[:0]); err != nil {
				return n, err
			}
			tl := tally{attempted: int64(len(reqs))}
			tl.count(reqs, out)
			if tl.failed() > 0 || tl.rejected > 0 {
				return n, fmt.Errorf("%d of %d requests not granted", tl.failed()+tl.rejected, len(reqs))
			}
			if err := s.observe(out); err != nil {
				return n, err
			}
			n += int64(len(reqs))
		}
	}
	return n, nil
}

// freshController builds the workload's initial tree, a controller over
// it and a fresh set of streams, exactly as the daemon would start.
func freshController(spec streamSpec, seed int64) (*dist.Dynamic, []*stream, error) {
	tr, err := initialTree()
	if err != nil {
		return nil, nil, err
	}
	rt, err := sim.NewRuntime("random", topoSeed)
	if err != nil {
		return nil, nil, err
	}
	streams, err := newStreams(tr, spec, seed)
	if err != nil {
		return nil, nil, err
	}
	return dist.NewDynamic(tr, rt, permitsM, permitsW, false, nil), streams, nil
}

// rungDist: Dynamic.SubmitBatch from one goroutine.
func rungDist(spec streamSpec, seed int64) (float64, error) {
	ctl, streams, err := freshController(spec, seed)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	n, err := driveSerial(serialBatcher{ctl}, streams, rungTime)
	if err != nil {
		return 0, fmt.Errorf("rung.dist: %w", err)
	}
	return float64(time.Since(start)) / float64(n), nil
}

// rungPipeline: pipeline.New(ctl).SubmitMany with the workload's streams,
// one goroutine each.
func rungPipeline(spec streamSpec, seed int64) (float64, error) {
	ctl, streams, err := freshController(spec, seed)
	if err != nil {
		return 0, err
	}
	pl := pipeline.New(ctl)
	defer pl.Close()
	start := time.Now()
	loop := startClosedLoop(pl, streams, nil, nil, 0)
	time.Sleep(rungTime)
	n, elapsed := loop.answeredNow(), time.Since(start)
	loop.halt()
	if err := loop.err(); err != nil {
		return 0, fmt.Errorf("rung.pipeline: %w", err)
	}
	if tl := loop.total(); tl.failed() > 0 || tl.rejected > 0 {
		return 0, fmt.Errorf("rung.pipeline: %d requests not granted", tl.failed()+tl.rejected)
	}
	return float64(elapsed) / float64(n), nil
}

// wireChunk is a recorded chunk in wire form.
type wireChunk struct {
	reqs []wire.Req
	res  []wire.Result
}

func toWire(chunks []recorded) []wireChunk {
	out := make([]wireChunk, len(chunks))
	for i, c := range chunks {
		w := wireChunk{reqs: make([]wire.Req, len(c.reqs)), res: make([]wire.Result, len(c.res))}
		for j, r := range c.reqs {
			w.reqs[j] = wire.Req{Node: r.Node, Kind: r.Kind, Child: r.Child}
		}
		for j, r := range c.res {
			w.res[j] = wire.Result{Outcome: uint8(r.Grant.Outcome), Code: wire.CodeOK, Serial: r.Grant.Serial, NewNode: r.Grant.NewNode}
		}
		out[i] = w
	}
	return out
}

// wireBytesPerReq is the Submit plus Results frame bytes per request over
// the recorded chunks.
func wireBytesPerReq(chunks []wireChunk) float64 {
	var bytes, n int
	var buf []byte
	for i, c := range chunks {
		buf = wire.AppendSubmit(buf[:0], uint64(i+1), c.reqs)
		bytes += len(buf)
		buf = wire.AppendResults(buf[:0], uint64(i+1), c.res)
		bytes += len(buf)
		n += len(c.reqs)
	}
	return float64(bytes) / float64(n)
}

// rungCodec: AppendSubmit + DecodeSubmit + AppendResults + DecodeResults
// over the recorded chunks.
func rungCodec(chunks []wireChunk) (float64, error) {
	var (
		sbuf, rbuf []byte
		sub        wire.Submit
		rs         wire.Results
		n          int64
	)
	start := time.Now()
	deadline := start.Add(rungTime)
	for time.Now().Before(deadline) {
		for i, c := range chunks {
			id := uint64(i + 1)
			sbuf = wire.AppendSubmit(sbuf[:0], id, c.reqs)
			if err := wire.DecodeSubmit(sbuf[headerLen:], &sub); err != nil || len(sub.Reqs) != len(c.reqs) {
				return 0, fmt.Errorf("rung.codec: submit round trip: %v", err)
			}
			rbuf = wire.AppendResults(rbuf[:0], id, c.res)
			if err := wire.DecodeResults(rbuf[headerLen:], &rs); err != nil || len(rs.Results) != len(c.res) {
				return 0, fmt.Errorf("rung.codec: results round trip: %v", err)
			}
			n += int64(len(c.reqs))
		}
	}
	return float64(time.Since(start)) / float64(n), nil
}

// replayer is the server-alone rung: a daemon fed pre-encoded Submit
// frames over raw TCP connections, with Results read by wire.ReadFrame and
// no internal/client in the path. Each connection keeps up to window
// frames in flight. Only event traffic can be replayed this way: events
// stay valid in any order and any number of times.
type replayer struct {
	srv    *server.Server
	frames [][]byte
	window int
	conns  int
}

func newReplayer(chunks []wireChunk, conns, window int) (*replayer, error) {
	srv, err := server.New(serverConfig(""))
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		srv.Shutdown(context.Background()) //nolint:errcheck // start already failed
		return nil, err
	}
	r := &replayer{srv: srv, window: window, conns: conns}
	for i, c := range chunks {
		r.frames = append(r.frames, wire.AppendSubmit(nil, uint64(i+1), c.reqs))
	}
	return r, nil
}

func (r *replayer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r.srv.Shutdown(ctx) //nolint:errcheck // rung teardown; the daemon is discarded
}

func dialRaw(addr string) (net.Conn, *bufio.Reader, error) {
	nc, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, nil, err
	}
	if _, err := nc.Write(wire.AppendHello(nil, wire.Hello{Version: wire.Version, Tenant: tenant})); err != nil {
		nc.Close()
		return nil, nil, err
	}
	br := bufio.NewReaderSize(nc, 64<<10)
	var buf []byte
	ft, _, err := wire.ReadFrame(br, &buf)
	if err == nil && ft != wire.FrameWelcome {
		err = fmt.Errorf("expected welcome, got %v", ft)
	}
	if err != nil {
		nc.Close()
		return nil, nil, err
	}
	return nc, br, nil
}

// run replays for rungTime and returns decisions per second.
func (r *replayer) run() (float64, error) {
	var (
		answered atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	type conn struct {
		nc  net.Conn
		br  *bufio.Reader
		sem chan struct{}
	}
	cs := make([]conn, r.conns)
	for i := range cs {
		nc, br, err := dialRaw(r.srv.Addr())
		if err != nil {
			for _, c := range cs[:i] {
				c.nc.Close()
			}
			return 0, fmt.Errorf("rung.server_replay: dial: %w", err)
		}
		cs[i] = conn{nc: nc, br: br, sem: make(chan struct{}, r.window)}
	}
	start := time.Now()
	var writers sync.WaitGroup
	for i := range cs {
		c := cs[i]
		writers.Add(1)
		go func(off int) {
			defer writers.Done()
			for j := off; !stop.Load(); j++ {
				c.sem <- struct{}{}
				if _, err := c.nc.Write(r.frames[j%len(r.frames)]); err != nil {
					fail(err)
					return
				}
			}
		}(i * len(r.frames) / len(cs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			var rs wire.Results
			for {
				ft, p, err := wire.ReadFrame(c.br, &buf)
				if err != nil {
					if !stop.Load() {
						fail(err)
					}
					return
				}
				if ft != wire.FrameResults {
					continue
				}
				if err := wire.DecodeResults(p, &rs); err != nil {
					fail(err)
					return
				}
				for _, res := range rs.Results {
					if res.Code != wire.CodeOK || res.Outcome != uint8(controller.Granted) {
						fail(fmt.Errorf("replayed request answered code %d outcome %d", res.Code, res.Outcome))
						break
					}
				}
				answered.Add(int64(len(rs.Results)))
				<-c.sem
			}
		}()
	}
	time.Sleep(rungTime)
	stop.Store(true)
	n, elapsed := answered.Load(), time.Since(start)
	writers.Wait()
	// Let the frames in flight come back before hanging up.
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		idle := true
		for _, c := range cs {
			if len(c.sem) > 0 {
				idle = false
			}
		}
		if idle {
			break
		}
	}
	for _, c := range cs {
		c.nc.Close()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, fmt.Errorf("rung.server_replay: %w", firstErr)
	}
	return float64(n) / elapsed.Seconds(), nil
}

// rungPersist: Engine.CommitEffects on the recorded batches in a fresh
// directory, one committer per stream so group commit sees the workload's
// concurrency.
func rungPersist(dir string, perStream [][]recorded) (float64, error) {
	eng, _, err := persist.Open(dir, persist.Options{CommitWindow: server.DefaultCommitWindow})
	if err != nil {
		return 0, fmt.Errorf("rung.persist: %w", err)
	}
	defer os.RemoveAll(dir)
	var (
		n    atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
		errs = make([]error, len(perStream))
	)
	start := time.Now()
	for i, chunks := range perStream {
		if len(chunks) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, chunks []recorded) {
			defer wg.Done()
			for j := 0; !stop.Load(); j++ {
				c := chunks[j%len(chunks)]
				if err := eng.CommitEffects(c.reqs, c.res); err != nil {
					errs[i] = err
					return
				}
				n.Add(int64(len(c.reqs)))
			}
		}(i, chunks)
	}
	time.Sleep(rungTime)
	stop.Store(true)
	done, elapsed := n.Load(), time.Since(start)
	wg.Wait()
	cerr := eng.Close()
	for _, err := range append(errs, cerr) {
		if err != nil {
			return 0, fmt.Errorf("rung.persist: %w", err)
		}
	}
	return float64(elapsed) / float64(done), nil
}

// ladderResult holds the rungs' medians over the rounds.
type ladderResult struct {
	ns     map[string]float64 // rung -> ns per request
	ratio  map[string]float64 // rung -> cost over the rung below
	bytes  float64            // wire bytes per request
	replay float64            // server_replay decisions per second
}

// runLadder runs the rungs that apply to the workload, interleaved over
// ladderRounds rounds, recording one span per rung run under parent.
func (r *run) runLadder(rec *recorder, parent int64) (*ladderResult, error) {
	chunks := toWire(rec.all())
	if len(chunks) == 0 {
		return nil, fmt.Errorf("ladder: the traced run recorded no chunks")
	}
	rungs := []string{"rung.dist", "rung.pipeline", "rung.codec"}
	var rep *replayer
	if r.wl.replay {
		var err error
		if rep, err = newReplayer(chunks, r.wl.conns, r.wl.spec.streams/r.wl.conns); err != nil {
			return nil, fmt.Errorf("rung.server_replay: %w", err)
		}
		defer rep.close()
		rungs = append(rungs, "rung.server_replay")
	}
	if r.wl.wal {
		rungs = append(rungs, "rung.persist")
	}
	samples := map[string][]float64{}
	ratios := map[string][]float64{}
	var replayDPS []float64
	for round := 0; round < ladderRounds; round++ {
		cur := map[string]float64{}
		for _, name := range rungs {
			r.setStage(fmt.Sprintf("ladder round %d %s", round, name))
			t0 := r.tr.now()
			var ns float64
			var err error
			switch name {
			case "rung.dist":
				ns, err = rungDist(r.wl.spec, r.seed)
			case "rung.pipeline":
				ns, err = rungPipeline(r.wl.spec, r.seed)
			case "rung.codec":
				ns, err = rungCodec(chunks)
			case "rung.server_replay":
				var dps float64
				if dps, err = rep.run(); err == nil {
					replayDPS = append(replayDPS, dps)
					ns = 1e9 / dps
				}
			case "rung.persist":
				ns, err = rungPersist(filepath.Join(r.tmp, fmt.Sprintf("rung-persist-%d", round)), rec.chunks)
			}
			if err != nil {
				return nil, err
			}
			r.sb.add(parent, name, t0, r.tr.now())
			samples[name] = append(samples[name], ns)
			cur[name] = ns
		}
		for i := 1; i < len(rungs); i++ {
			ratios[rungs[i]] = append(ratios[rungs[i]], cur[rungs[i]]/cur[rungs[i-1]])
		}
	}
	res := &ladderResult{ns: map[string]float64{}, ratio: map[string]float64{}, bytes: wireBytesPerReq(chunks), replay: median(replayDPS)}
	for name, xs := range samples {
		res.ns[name] = median(xs)
	}
	for name, xs := range ratios {
		res.ratio[name] = median(xs)
	}
	return res, nil
}
