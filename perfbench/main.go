// Command perfbench is the repository's benchmark: it runs one workload
// against an in-process dynctrld over loopback TCP, checks every answer,
// and prints the workload's metrics as one JSON object on the last line of
// standard output.
//
//	go run . --workload events --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that records spans around each call into a layer, runs the
// layer ladder and reports the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// workloadDef is one workload. Its parameters do not depend on run length.
type workloadDef struct {
	name   string
	why    string
	open   bool // open loop: Poisson arrivals at rate, one request per frame
	wal    bool // daemon logs to a WAL recovered from the fixture at boot
	replay bool // traffic is events only, so the server_replay rung applies
	conns  int
	spec   streamSpec // closed loop: streams x chunk; open loop: slots x 1
	rate   float64
	setups int // boots per run, at least; setup_s is their median
	// warmup runs before each lifetime's measured window, so caches fill
	// and lazy set-up finishes.
	warmup time.Duration
	// window is the sub-window length: long enough for 1,000 latency
	// samples, so each sub-window's p99 has ten samples beyond it.
	window time.Duration
	// slice, when set, splits the measured window over several daemon
	// lifetimes of at most slice each. A WAL check reads the whole history
	// into memory, so this bounds what one lifetime leaves to check.
	slice time.Duration
	// heapReqs, when set, ends a lifetime's heap peak once its traffic
	// has answered that many requests. The daemon's live heap grows with
	// the history it logs, so a peak over a fixed time would follow
	// throughput instead of memory use.
	heapReqs int64
}

var workloads = []workloadDef{
	{
		name:   "events",
		why:    "closed-loop metered events in chunks of 128: near-zero controller work, so per-request wire/client/server/pipeline overhead dominates",
		replay: true,
		conns:  2,
		spec:   streamSpec{streams: 16, chunk: 128},
		setups: 25,
		warmup: time.Second,
		window: 100 * time.Millisecond,
	},
	{
		name:  "churn-wal",
		why:   "closed loop with 20% topology changes in a stable tree size, WAL on: dist, tree, pkgstore and persist do most of the work",
		wal:   true,
		conns: 2,
		// A WAL stall holds one call of every stream. With 8 streams the
		// stalled calls stay well under 1% of a sub-window's calls, so its
		// p99 is the normal tail instead of flipping to the stalls.
		spec:     streamSpec{streams: 8, chunk: 128, topoPct: 20, maxLive: 32},
		setups:   7,
		warmup:   500 * time.Millisecond,
		window:   500 * time.Millisecond,
		slice:    2 * time.Second,
		heapReqs: 750_000,
	},
	{
		name:   "openloop",
		why:    "Poisson arrivals at 20k req/s in single-request frames: no combining or read batching, so per-message wakeup and flush costs set latency",
		open:   true,
		replay: true,
		conns:  2,
		spec:   streamSpec{streams: 16, chunk: 1},
		rate:   20000,
		setups: 25,
		warmup: time.Second,
		window: 60 * time.Millisecond,
	},
}

// heapEvery and bandEvery pace the samplers. heapSpan is the span of the
// measured window each heap peak covers: the live heap grows over a
// churn-wal lifetime (2 s), so a shorter span would alternate between a
// low and a high peak.
const (
	heapEvery = 10 * time.Millisecond
	bandEvery = 100 * time.Millisecond
	heapSpan  = 2 * time.Second
)

func main() {
	name := flag.String("workload", "", "workload to run: events, churn-wal or openloop")
	seed := flag.Int64("seed", 1, "seed of every random choice of the generators")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	spans := flag.String("spans-dir", "", "directory the traced run writes its spans to (none when empty)")
	flag.Parse()

	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (events|churn-wal|openloop), --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}

	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	r := &run{wl: *wl, seed: *seed, seconds: *seconds, traced: *traced == 1, tmp: tmp}
	r.setStage("start")
	exit := func(code int) {
		os.RemoveAll(tmp)
		os.Exit(code)
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		fmt.Fprintf(os.Stderr, "perfbench: %v during %s\n", s, r.stage.Load())
		exit(1)
	}()
	// The watchdog fails a stuck run, naming the stage it is stuck in.
	limit := 60*time.Second + 6*time.Duration(*seconds)*time.Second
	if limit > 170*time.Second {
		limit = 170 * time.Second
	}
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: watchdog: run exceeded %v, stuck in %s\n", limit, r.stage.Load())
		exit(3)
	})

	res, info, err := r.execute()
	if err == nil && r.traced && *spans != "" {
		err = r.tr.write(filepath.Join(*spans, fmt.Sprintf("%s-seed%d.spans.jsonl.gz", wl.name, *seed)))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.stage.Load(), err)
		exit(1)
	}
	for _, c := range info.Checks {
		if !c.OK {
			fmt.Fprintf(os.Stderr, "perfbench: check %s failed: %s\n", c.Name, c.Detail)
		}
	}
	infoLine, _ := json.Marshal(map[string]any{"info": info})
	resLine, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		exit(1)
	}
	fmt.Println(string(infoLine))
	fmt.Println(string(resLine))
	exit(0)
}
