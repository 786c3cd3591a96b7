package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"dynctrl/internal/client"
	"dynctrl/internal/controller"
	"dynctrl/internal/server"
	"dynctrl/internal/tree"
	"dynctrl/internal/wire"
	"dynctrl/internal/workload"
)

// Fixed workload parameters. None depends on run length: M is far beyond
// what any run can grant, so no run nears exhaustion and every request is
// owed a grant.
const (
	treeNodes = 256
	topoSeed  = 1 // initial tree and transport schedule, as in cmd/benchjson
	permitsM  = int64(1) << 40
	permitsW  = permitsM / 2
	tenant    = wire.DefaultTenant

	// fixtureEvents is the length of the events-only WAL history every
	// churn-wal run recovers at boot; fixtureSeed draws its events.
	fixtureEvents = 1 << 18
	fixtureSeed   = 7
)

func initialTree() (*tree.Tree, error) {
	tr, _ := tree.New()
	if err := workload.BuildTopology(tr, workload.TopologySpec{Kind: "balanced", Nodes: treeNodes}, topoSeed); err != nil {
		return nil, err
	}
	return tr, nil
}

func serverConfig(walDir string) server.Config {
	return server.Config{
		Addr:     "127.0.0.1:0",
		Topology: workload.TopologySpec{Kind: "balanced", Nodes: treeNodes},
		Seed:     topoSeed,
		M:        permitsM,
		W:        permitsW,
		WALDir:   walDir,
	}
}

// daemon is an in-process dynctrld plus the benchmark's pooled client.
type daemon struct {
	srv *server.Server
	cl  *client.Client
}

// bootTimes splits a boot: server.New (WAL recovery included) and the
// whole of New, Start and Dial.
type bootTimes struct{ new, total time.Duration }

// boot builds, starts and dials a daemon, timing the three steps up to
// the last completed handshake. Spans go to sb under parent.
func boot(cfg server.Config, conns int, sb *spanBuf, parent int64) (*daemon, bootTimes, error) {
	t0 := time.Now()
	srv, err := server.New(cfg)
	t1 := time.Now()
	if err != nil {
		return nil, bootTimes{}, fmt.Errorf("server.New: %w", err)
	}
	if err := srv.Start(); err != nil {
		srv.Shutdown(context.Background()) //nolint:errcheck // boot already failed
		return nil, bootTimes{}, fmt.Errorf("server start: %w", err)
	}
	t2 := time.Now()
	cl, err := client.Dial(srv.Addr(), client.Options{Conns: conns})
	t3 := time.Now()
	if err != nil {
		srv.Shutdown(context.Background()) //nolint:errcheck // boot already failed
		return nil, bootTimes{}, fmt.Errorf("dial: %w", err)
	}
	if sb != nil {
		at := func(t time.Time) int64 { return int64(t.Sub(sb.t.base)) }
		sb.add(parent, "setup.new", at(t0), at(t1))
		sb.add(parent, "setup.start", at(t1), at(t2))
		sb.add(parent, "setup.dial", at(t2), at(t3))
	}
	return &daemon{srv: srv, cl: cl}, bootTimes{new: t1.Sub(t0), total: t3.Sub(t0)}, nil
}

// close drops the client, if any, and drains the daemon (which writes its
// final checkpoint when it runs a WAL).
func (d *daemon) close() error {
	if d.cl != nil {
		d.cl.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	return d.srv.Shutdown(ctx)
}

// scrape reads the daemon's /metricsz document in process and returns its
// samples keyed by family name plus labels, with the default tenant's
// label dropped: dynctrld_tenant_ops_total, or
// dynctrld_tenant_stage_seconds{stage="write",quantile="p99"}.
func scrape(srv *server.Server) map[string]float64 {
	var buf bytes.Buffer
	srv.WriteMetrics(&buf)
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		key := strings.Replace(line[:i], `tenant="`+tenant+`"`, "", 1)
		key = strings.Replace(key, "{,", "{", 1)
		key = strings.TrimSuffix(key, "{}")
		out[key] = v
	}
	return out
}

// buildFixture makes the churn-wal boot image under tmp: an events-only
// daemon with a WAL logs fixtureEvents grants, and its WAL directory is
// copied while the daemon sits idle — a crash image taken before the final
// checkpoint a graceful shutdown would write, so every boot replays the
// whole history. Periodic checkpoints are off while it is made, so no
// background snapshot can race the copy. Replaying only events leaves the
// initial tree unchanged.
func buildFixture(tmp string) (string, error) {
	live := filepath.Join(tmp, "fixture-live")
	img := filepath.Join(tmp, "fixture")
	cfg := serverConfig(live)
	cfg.SnapshotEvery = -1
	d, _, err := boot(cfg, 2, nil, 0)
	if err != nil {
		return "", fmt.Errorf("fixture: %w", err)
	}
	tr, err := initialTree()
	if err != nil {
		d.close() //nolint:errcheck // already failing
		return "", err
	}
	streams, err := newStreams(tr, streamSpec{streams: 4, chunk: 1024}, fixtureSeed)
	if err != nil {
		d.close() //nolint:errcheck // already failing
		return "", err
	}
	per := fixtureEvents / len(streams)
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for i, s := range streams {
		wg.Add(1)
		go func(i int, s *stream) {
			defer wg.Done()
			var out []controller.BatchResult
			for n := 0; n < per; n += s.chunk {
				var err error
				out, err = d.cl.SubmitMany(s.next(), out[:0])
				if err == nil {
					var tl tally
					tl.count(s.reqs, out)
					if tl.granted != int64(len(out)) {
						err = fmt.Errorf("%d of %d fixture events not granted", int64(len(out))-tl.granted, len(out))
					}
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			d.close() //nolint:errcheck // already failing
			return "", fmt.Errorf("fixture: %w", err)
		}
	}
	// Every answered request is durable (the daemon holds Results until
	// its records are fsynced), so the idle directory is a complete image.
	err = copyTree(live, img)
	if cerr := d.close(); err == nil && cerr != nil {
		err = fmt.Errorf("fixture: shutdown: %w", cerr)
	}
	os.RemoveAll(live)
	if err != nil {
		return "", err
	}
	return img, nil
}

// copyTree copies the regular files under src to dst, skipping the
// temporary files of an in-progress atomic write.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !info.Mode().IsRegular() || strings.Contains(info.Name(), ".tmp-") {
			return nil
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
