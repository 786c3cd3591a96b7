package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"

	"dynctrl/internal/controller"
	"dynctrl/internal/obs"
	"dynctrl/internal/persist"
	"dynctrl/internal/server"
	"dynctrl/internal/tree"
	"dynctrl/internal/workload"
)

// check is one output check; a failed check fails every request of the run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// runInfo is the run's context line, printed before the result.
type runInfo struct {
	Workload       string    `json:"workload"`
	Seed           int64     `json:"seed"`
	Seconds        int       `json:"seconds"`
	Traced         bool      `json:"traced"`
	GoVersion      string    `json:"go_version"`
	NumCPU         int       `json:"nproc"`
	GOMAXPROCS     int       `json:"gomaxprocs"`
	Conns          int       `json:"conns"`
	Streams        int       `json:"streams"`
	Chunk          int       `json:"chunk"`
	Rate           float64   `json:"rate,omitempty"`
	Boots          int       `json:"boots"`
	Lifetimes      int       `json:"lifetimes"`
	LatencySamples int64     `json:"latency_samples"`
	TreeNodesMin   float64   `json:"tree_nodes_min"`
	TreeNodesMax   float64   `json:"tree_nodes_max"`
	WindowRates    []float64 `json:"window_decisions_per_s"`
	WindowP99      []float64 `json:"window_latency_p99_us"`
	SpanHeap       []float64 `json:"span_peak_heap_mb"`
	Checks         []check   `json:"checks"`
}

// run is one invocation of the benchmark: one workload, one seed.
type run struct {
	wl      workloadDef
	seed    int64
	seconds int
	traced  bool
	tmp     string
	stage   atomic.Value

	tr      *tracer  // nil on untraced runs
	sb      *spanBuf // the coordinating goroutine's spans
	runSpan int64
	checks  []check
}

func (r *run) setStage(s string) { r.stage.Store(s) }

// check records an output check. Lifetimes repeat the checks, so a name
// seen before is folded into its first entry, which keeps the first
// failure's detail.
func (r *run) check(name string, ok bool, format string, args ...any) {
	for i := range r.checks {
		if r.checks[i].Name == name {
			if r.checks[i].OK && !ok {
				r.checks[i] = check{Name: name, Detail: fmt.Sprintf(format, args...)}
			}
			return
		}
	}
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.checks = append(r.checks, c)
}

// tick is what the coordinator samples at each sub-window boundary.
type tick struct {
	at       time.Time
	answered int64
	cpu      time.Duration
}

// window is what the coordinator samples at both ends of a lifetime's
// measured window.
type window struct {
	at       time.Time
	answered int64
	cpu      time.Duration
	syscr    int64
	syscw    int64
	allocs   uint64
	m        map[string]float64
}

func sample(srv *server.Server, answered int64) window {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	cr, cw := procIO()
	return window{at: time.Now(), answered: answered, cpu: cpuTime(), syscr: cr, syscw: cw,
		allocs: s[0].Value.Uint64(), m: scrape(srv)}
}

// bandSampler polls the daemon's tree size during the measured window of
// a workload that changes the topology. Each poll renders /metricsz, so
// workloads whose tree cannot change skip it.
type bandSampler struct {
	stop chan struct{}
	done chan struct{}
	vals []float64
}

func startBandSampler(srv *server.Server) *bandSampler {
	b := &bandSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(b.done)
		t := time.NewTicker(bandEvery)
		defer t.Stop()
		for {
			b.vals = append(b.vals, scrape(srv)["dynctrld_tenant_tree_nodes"])
			select {
			case <-b.stop:
				return
			case <-t.C:
			}
		}
	}()
	return b
}

func (b *bandSampler) finish() []float64 {
	close(b.stop)
	<-b.done
	return b.vals
}

// life is what one daemon lifetime measured.
type life struct {
	rate, cpu, p50, p99 []float64 // per sub-window
	heap                []float64 // peak live heap per heapSpan, MiB
	samples             int64     // latency samples
	tl                  tally
	nodes               []float64 // tree sizes seen
	lag                 *hist     // open loop: send minus due
	w0, w1              window
	stages              []obs.StageStats
}

func (r *run) execute() (*result, *runInfo, error) {
	if r.traced {
		r.tr = newTracer(time.Now())
		r.sb = r.tr.buf()
	}
	r.runSpan = r.sb.open()
	info := &runInfo{
		Workload: r.wl.name, Seed: r.seed, Seconds: r.seconds, Traced: r.traced,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Streams: r.wl.spec.streams, Chunk: r.wl.spec.chunk, Rate: r.wl.rate,
	}
	// Load comes from at most nproc connections and GOMAXPROCS.
	if info.GOMAXPROCS > info.NumCPU {
		runtime.GOMAXPROCS(info.NumCPU)
		info.GOMAXPROCS = info.NumCPU
	}
	r.wl.conns = min(r.wl.conns, info.NumCPU)
	info.Conns = r.wl.conns

	// The measured window is whole sub-windows, dealt out evenly over the
	// lifetimes. Every lifetime boots the daemon; extra boots before them
	// only time set-up.
	windows := int(time.Duration(r.seconds) * time.Second / r.wl.window)
	lifetimes := 1
	if r.wl.slice > 0 {
		lifetimes = min(windows, int(math.Ceil(float64(time.Duration(r.seconds)*time.Second)/float64(r.wl.slice))))
	}
	boots := max(r.wl.setups, lifetimes)
	info.Boots, info.Lifetimes = boots, lifetimes

	var fixture string
	if r.wl.wal {
		r.setStage("fixture")
		var err error
		if fixture, err = buildFixture(r.tmp); err != nil {
			return nil, nil, err
		}
	}
	tr0, err := initialTree()
	if err != nil {
		return nil, nil, err
	}
	var rec *recorder
	if r.traced {
		perStream := 64
		if r.wl.open {
			perStream = 512
		}
		rec = newRecorder(r.wl.spec.streams, perStream)
	}

	var (
		setups, news []float64
		lives        []life
	)
	for i := 0; i < boots; i++ {
		r.setStage(fmt.Sprintf("boot %d", i))
		var walDir string
		if r.wl.wal {
			walDir = filepath.Join(r.tmp, fmt.Sprintf("wal-%d", i))
			if err := copyTree(fixture, walDir); err != nil {
				return nil, nil, err
			}
		}
		d, bt, err := boot(serverConfig(walDir), r.wl.conns, r.sb, r.runSpan)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, bt.total.Seconds())
		news = append(news, bt.new.Seconds())
		if l := i - (boots - lifetimes); l >= 0 {
			n := windows / lifetimes
			if l < windows%lifetimes {
				n++
			}
			keep := rec // the ladder replays the first lifetime's traffic
			if l > 0 {
				keep = nil
			}
			r.setStage(fmt.Sprintf("lifetime %d", l))
			lf, err := r.lifetime(d, walDir, tr0, n, keep)
			if err != nil {
				return nil, nil, err
			}
			lives = append(lives, lf)
		} else if err := d.close(); err != nil {
			return nil, nil, fmt.Errorf("boot %d teardown: %w", i, err)
		}
		os.RemoveAll(walDir)
	}

	// Each end-to-end figure is the median over all sub-windows, so a
	// burst of interference on the shared machine moves one sub-window,
	// not the run's result.
	var (
		rate, cpu, p50, p99, heap, nodes []float64
		tl                               tally
	)
	for _, lf := range lives {
		rate, cpu = append(rate, lf.rate...), append(cpu, lf.cpu...)
		p50, p99 = append(p50, lf.p50...), append(p99, lf.p99...)
		heap = append(heap, lf.heap...)
		nodes = append(nodes, lf.nodes...)
		tl.add(lf.tl)
		info.LatencySamples += lf.samples
	}
	info.WindowRates, info.WindowP99, info.SpanHeap = rate, p99, heap
	info.TreeNodesMin, info.TreeNodesMax = minMax(nodes)
	e2e := map[string]float64{
		"decisions_per_s":     median(rate),
		"latency_p50_us":      median(p50),
		"latency_p99_us":      median(p99),
		"cpu_us_per_decision": median(cpu),
		"setup_s":             median(setups),
		"peak_heap_mb":        median(heap),
	}

	vals, defs := e2e, endToEnd
	if r.traced {
		r.setStage("ladder")
		lad, err := r.runLadder(rec, r.runSpan)
		if err != nil {
			return nil, nil, err
		}
		vals, defs = r.layerMetrics(lives, nodes, news, lad, e2e), perLayer
	}
	r.sb.close(r.runSpan, 0, "run", 0, r.tr.now())

	out, problems := fill(defs, vals)
	for _, p := range problems {
		r.check("metrics", false, "%s", p)
	}
	for name, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.check("metrics", false, "%s is %v", name, v)
		}
	}
	info.Checks = r.checks
	res := &result{Attempted: tl.attempted, Failed: tl.failed() + tl.rejected, Metrics: out}
	for _, c := range r.checks {
		if !c.OK {
			res.Failed = tl.attempted
		}
	}
	if res.Attempted < 1 {
		res.Attempted, res.Failed = 1, 1
	}
	res.Correct = res.Failed == 0
	return res, info, nil
}

// lifetime drives one booted daemon: warm up, measure n sub-windows, check
// every answer and the daemon's accounting, shut down, and on a WAL
// workload audit and reboot the WAL.
func (r *run) lifetime(d *daemon, walDir string, tr0 *tree.Tree, n int, rec *recorder) (life, error) {
	var lf life
	closed := false
	defer func() {
		if !closed {
			d.close() //nolint:errcheck // error path; the run already failed
		}
	}()
	bootGrants := scrape(d.srv)["dynctrld_tenant_ctl_grants_total"]
	// The live-heap reading only moves when the collector runs: collect
	// now, so the window starts from what the booted daemon holds rather
	// than the garbage its WAL recovery left behind.
	runtime.GC()
	r.check("topology", d.cl.TopologySignature() == workload.TopologySignature(tr0),
		"daemon's initial tree differs from the generator's")

	measure := time.Duration(n) * r.wl.window
	var (
		loop  *closedLoop
		ol    *openLoop
		start time.Time
	)
	if r.wl.open {
		due, err := openLoopSchedule(r.wl.rate, r.wl.warmup+measure, r.seed)
		if err != nil {
			return lf, err
		}
		start = time.Now().Add(10 * time.Millisecond)
		ol = startOpenLoop(d.cl, openLoopRequest(tr0, r.seed), due, r.wl.spec.streams, r.tr, rec, r.runSpan, start)
	} else {
		streams, err := newStreams(tr0, r.wl.spec, r.seed)
		if err != nil {
			return lf, err
		}
		loop = startClosedLoop(d.cl, streams, r.tr, rec, r.runSpan)
		start = loop.base
	}
	answered := func() int64 {
		if loop != nil {
			return loop.answeredNow()
		}
		return 0
	}
	// A closed loop's calls record into the current sub-window's
	// histogram. Three take turns: the current one, the one just closed
	// (a call may still hold it for the instant it takes to record), and
	// the one closed before that, which is read and cleared.
	ring := [3]*hist{newHist(), newHist(), newHist()}
	done := func(h *hist) {
		lf.p50 = append(lf.p50, h.quantile(0.50)/1e3)
		lf.p99 = append(lf.p99, h.quantile(0.99)/1e3)
		lf.samples += h.n
		h.reset()
	}

	time.Sleep(time.Until(start.Add(r.wl.warmup)))
	if loop != nil {
		loop.lat.Store(ring[0])
	}
	lf.w0 = sample(d.srv, answered())
	var heapDone func() bool
	if loop != nil && r.wl.heapReqs > 0 {
		heapDone = func() bool { return loop.answeredNow() >= r.wl.heapReqs }
	}
	heap := startHeapSampler(heapEvery, heapDone)
	var band *bandSampler
	if r.wl.spec.topoPct > 0 {
		band = startBandSampler(d.srv)
	}
	ticks := []tick{{at: lf.w0.at, answered: lf.w0.answered, cpu: lf.w0.cpu}}
	for k := 1; k <= n; k++ {
		time.Sleep(time.Until(start.Add(r.wl.warmup + time.Duration(k)*r.wl.window)))
		if k == n || time.Duration(k)*r.wl.window/heapSpan > time.Duration(k-1)*r.wl.window/heapSpan {
			lf.heap = append(lf.heap, float64(heap.cut())/(1<<20))
		}
		if k == n {
			lf.w1 = sample(d.srv, answered())
			ticks = append(ticks, tick{at: lf.w1.at, answered: lf.w1.answered, cpu: lf.w1.cpu})
		} else {
			ticks = append(ticks, tick{at: time.Now(), answered: answered(), cpu: cpuTime()})
		}
		if loop == nil {
			continue
		}
		if k < n {
			loop.lat.Store(ring[k%3])
		} else {
			loop.lat.Store(nil)
		}
		if k >= 2 {
			done(ring[(k-2)%3])
		}
	}
	heap.finish()
	if band != nil {
		lf.nodes = band.finish()
	}
	lf.stages = d.srv.TenantStageStats(tenant)

	decided := make([]int64, n)
	var driveErr error
	if loop != nil {
		loop.halt()
		done(ring[(n-1)%3])
		lf.tl, driveErr = loop.total(), loop.err()
		for k := range decided {
			decided[k] = ticks[k+1].answered - ticks[k].answered
		}
	} else {
		ol.wait()
		lf.tl, driveErr = ol.total(), ol.err()
		var lat []*hist
		lat, decided, lf.lag = ol.windows(int64(r.wl.warmup), r.wl.window, n)
		for _, h := range lat {
			done(h)
		}
		var replies int64
		for _, x := range decided {
			replies += x
		}
		r.check("backlog", float64(replies) >= 0.98*float64(lf.lag.n),
			"%d replies in the window for %d arrivals due in it: the daemon fell behind the offered rate", replies, lf.lag.n)
	}
	for k := range decided {
		secs := ticks[k+1].at.Sub(ticks[k].at).Seconds()
		lf.rate = append(lf.rate, float64(decided[k])/secs)
		lf.cpu = append(lf.cpu, float64(ticks[k+1].cpu-ticks[k].cpu)/1e3/float64(decided[k]))
	}

	tl := lf.tl
	r.check("answered", driveErr == nil && tl.answered == tl.attempted,
		"%d of %d requests unanswered (%v)", tl.attempted-tl.answered, tl.attempted, driveErr)
	r.check("results", tl.errs == 0 && tl.wrong == 0, "%d request errors, %d wrong answers", tl.errs, tl.wrong)
	ops, grants, rejects, errs := d.srv.TenantAccounting(tenant)
	r.check("accounting", ops == tl.answered && grants == tl.granted && rejects == tl.rejected && errs == tl.errs,
		"client answered/granted/rejected/errors %d/%d/%d/%d, server %d/%d/%d/%d",
		tl.answered, tl.granted, tl.rejected, tl.errs, ops, grants, rejects, errs)
	final := scrape(d.srv)
	ctlGrants := final["dynctrld_tenant_ctl_grants_total"]
	r.check("safety", ctlGrants <= float64(permitsM), "%v grants exceed M=%d", ctlGrants, permitsM)
	r.check("liveness", tl.rejected == 0 || ctlGrants >= float64(permitsM-permitsW),
		"%d rejects after only %v grants (M-W=%d)", tl.rejected, ctlGrants, permitsM-permitsW)
	lf.nodes = append(lf.nodes, final["dynctrld_tenant_tree_nodes"])
	lo, hi := minMax(lf.nodes)
	band0, band1 := float64(treeNodes), float64(treeNodes+r.wl.spec.streams*r.wl.spec.maxLive)
	r.check("tree-band", lo >= band0 && hi <= band1, "tree size ranged %v..%v, band is %v..%v", lo, hi, band0, band1)

	closed = true
	if err := d.close(); err != nil {
		r.check("shutdown", false, "%v", err)
	}
	if r.wl.wal {
		r.verifyWAL(walDir, bootGrants+float64(tl.granted))
	}
	return lf, nil
}

// verifyWAL audits a lifetime's WAL after shutdown and reboots a daemon on
// it, which must recover exactly the grants acknowledged to the client
// (plus the fixture's). Both read the whole history into memory, about
// 72 bytes a record and more while it is gathered, so the collector runs
// tighter meanwhile and the heap is returned between the two.
func (r *run) verifyWAL(walDir string, wantGrants float64) {
	defer debug.SetGCPercent(debug.SetGCPercent(20))
	_, violations, err := persist.VerifyDir(filepath.Join(walDir, tenant), permitsM)
	r.check("wal-verify", err == nil && len(violations) == 0, "err %v, violations %v", err, violations)
	debug.FreeOSMemory()
	srv, err := server.New(serverConfig(walDir))
	if err != nil {
		r.check("recovery", false, "reboot: %v", err)
		return
	}
	got := scrape(srv)["dynctrld_tenant_ctl_grants_total"]
	r.check("recovery", got == wantGrants, "reboot recovered %v grants, %v were acknowledged", got, wantGrants)
	if err := (&daemon{srv: srv}).close(); err != nil {
		r.check("recovery", false, "reboot shutdown: %v", err)
	}
	debug.FreeOSMemory()
}

// layerMetrics derives the per-layer metrics of the traced run. Counters
// are summed over the lifetimes' measured windows; quantiles the daemon
// reports are the median over lifetimes.
func (r *run) layerMetrics(lives []life, nodes, news []float64, lad *ladderResult, e2e map[string]float64) map[string]float64 {
	delta := func(k string) float64 {
		var sum float64
		for _, lf := range lives {
			sum += lf.w1.m[k] - lf.w0.m[k]
		}
		return sum
	}
	level := func(k string) float64 {
		var xs []float64
		for _, lf := range lives {
			xs = append(xs, lf.w1.m[k])
		}
		return median(xs)
	}
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	var syscr, syscw, allocs float64
	lag := newHist()
	for _, lf := range lives {
		syscr += float64(lf.w1.syscr - lf.w0.syscr)
		syscw += float64(lf.w1.syscw - lf.w0.syscw)
		allocs += float64(lf.w1.allocs - lf.w0.allocs)
		if lf.lag != nil {
			lag.merge(lf.lag)
		}
	}
	ops := delta("dynctrld_tenant_ops_total")
	msgs := delta("dynctrld_tenant_transport_messages_total")
	v := map[string]float64{
		"gen.lag_p50_us":                lag.quantile(0.50) / 1e3,
		"gen.lag_p99_us":                lag.quantile(0.99) / 1e3,
		"wire.bytes_per_req":            lad.bytes,
		"wire.codec_ns_per_req":         lad.ns["rung.codec"],
		"server.replay_decisions_per_s": lad.replay,
		"server.read_batch_reqs":        per(delta("dynctrld_tenant_read_batch_requests_total"), delta("dynctrld_tenant_read_batches_total")),
		"pipeline.ns_per_req":           lad.ns["rung.pipeline"],
		"pipeline.reqs_per_batch":       per(delta("dynctrld_tenant_pipeline_requests_total"), delta("dynctrld_tenant_pipeline_batches_total")),
		"pipeline.combine_p99_us":       level(`dynctrld_tenant_combine_seconds{quantile="p99"}`) * 1e6,
		"dist.ns_per_req":               lad.ns["rung.dist"],
		"dist.msgs_per_req":             per(msgs, ops),
		"dist.msgs_per_change":          per(msgs, delta("dynctrld_tenant_topo_changes_total")),
		"tree.nodes":                    median(nodes),
		"persist.commit_ns_per_req":     lad.ns["rung.persist"],
		"persist.reqs_per_fsync":        per(delta("dynctrld_tenant_wal_appended_records"), delta("dynctrld_tenant_wal_fsyncs_total")),
		"persist.fsync_p99_us":          level(`dynctrld_tenant_fsync_seconds{quantile="p99"}`) * 1e6,
		"persist.bytes_per_req":         per(delta("dynctrld_tenant_wal_bytes_written"), ops),
		"persist.snapshots":             delta("dynctrld_tenant_wal_snapshots_total"),
		"persist.recover_s":             0,
		"proc.read_syscalls_per_req":    per(syscr, ops),
		"proc.write_syscalls_per_req":   per(syscw, ops),
		"proc.allocs_per_req":           per(allocs, ops),
		"rung.pipeline.ratio":           lad.ratio["rung.pipeline"],
		"rung.codec.ratio":              lad.ratio["rung.codec"],
		"rung.server_replay.ratio":      lad.ratio["rung.server_replay"],
		"rung.persist.ratio":            lad.ratio["rung.persist"],
		"trace.decisions_per_s":         e2e["decisions_per_s"],
		"trace.latency_p99_us":          e2e["latency_p99_us"],
	}
	if r.wl.wal {
		v["persist.recover_s"] = median(news)
	}
	rtt := newHist()
	for _, name := range []string{"client.SubmitMany", "client.Submit"} {
		for _, d := range r.tr.durations(name) {
			rtt.record(d)
		}
	}
	v["client.rtt_p50_us"] = rtt.quantile(0.50) / 1e3
	v["client.rtt_p99_us"] = rtt.quantile(0.99) / 1e3
	for _, stage := range []string{"decode", "queue", "execute", "write"} {
		var xs []float64
		for _, lf := range lives {
			for _, st := range lf.stages {
				if st.Stage == stage {
					xs = append(xs, float64(st.P99)/1e3)
				}
			}
		}
		v["server.stage_"+stage+"_p99_us"] = median(xs)
	}
	return v
}

// openLoopSchedule draws the open loop's Poisson due times over span from
// seed.
func openLoopSchedule(rate float64, span time.Duration, seed int64) ([]time.Duration, error) {
	total := int(rate*span.Seconds()*1.1) + 64
	due, err := workload.ArrivalSchedule(workload.OpenLoopSpec{Rate: rate, Arrival: workload.ArrivalPoisson, Total: total, Seed: seed})
	if err != nil {
		return nil, err
	}
	n := sort.Search(len(due), func(i int) bool { return due[i] >= span })
	if n == len(due) {
		return nil, fmt.Errorf("open loop: schedule of %d arrivals ends before %v", total, span)
	}
	return due[:n], nil
}

// openLoopRequest returns the open loop's i-th request: an event at an
// initial node drawn by hashing the seed and i, so requests need no
// stored trace.
func openLoopRequest(tr *tree.Tree, seed int64) func(i int) controller.Request {
	nodes := tr.Nodes()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	return func(i int) controller.Request {
		x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
		return controller.Request{Node: nodes[x%uint64(len(nodes))], Kind: tree.None}
	}
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}
