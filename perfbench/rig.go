package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/wire"
	"repro/internal/wal"
)

// syncPolicy is fednumd's default -wal-fsync, the production policy every
// ingest workload runs under.
const syncPolicy = wal.SyncAlways

// sessionConfig is every ingest workload's session: 8-bit values with the
// geometric γ=1 bit allocation and no local randomizer, so the estimate
// can be recomputed exactly from the reports the generator saw accepted.
var sessionConfig = wire.SessionConfig{Feature: "age", Bits: 8, Gamma: 1}

var quietLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// rig is one in-process transport.Server with a write-ahead log in its
// own directory, served over a loopback listener.
type rig struct {
	dir     string
	walReg  *obs.Registry
	log     *wal.WAL
	srv     *transport.Server
	hs      *http.Server
	served  sync.WaitGroup
	base    string
	session string
}

// openRig starts a server on a fresh WAL in dir and creates the session.
// A non-nil rec wraps the handler in a span tap.
func openRig(dir string, seed uint64, rec *recorder) (*rig, error) {
	r := &rig{dir: dir, walReg: obs.NewRegistry()}
	log, err := wal.Open(wal.Options{Dir: dir, Policy: syncPolicy, Registry: r.walReg})
	if err != nil {
		return nil, err
	}
	r.log = log
	r.srv = transport.NewServer(seed)
	r.srv.Logger = quietLogger
	r.srv.AttachWAL(log)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Close()
		return nil, err
	}
	var h http.Handler = r.srv
	if rec != nil {
		h = handlerTap{next: r.srv, rec: rec}
	}
	r.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, ErrorLog: slog.NewLogLogger(quietLogger.Handler(), slog.LevelError)}
	r.base = "http://" + ln.Addr().String()
	r.served.Add(1)
	go func() {
		defer r.served.Done()
		_ = r.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	if r.session, err = r.srv.CreateSession(context.Background(), sessionConfig); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// stopServing shuts the listener down and waits for it, leaving the
// server and its WAL usable for direct calls.
func (r *rig) stopServing() {
	if r.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.hs.Shutdown(ctx); err != nil {
		r.hs.Close()
	}
	r.served.Wait()
	r.hs = nil
}

// close stops serving and closes the WAL. The directory stays until the
// run ends: deleting tens of megabytes of log frees blocks, which on a
// filesystem mounted with discard stalls the fsyncs of whatever phase
// runs next.
func (r *rig) close() error {
	r.stopServing()
	if r.log == nil {
		return nil
	}
	err := r.log.Close()
	r.log = nil
	return err
}

// removeRun deletes the run's directory and fsyncs its parent, so the
// deletes, and any discard they cause, finish before the process exits
// instead of inside the next run's measurement.
func removeRun(root string) error {
	if err := os.RemoveAll(root); err != nil {
		return err
	}
	d, err := os.Open(filepath.Dir(root))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// replay opens the rig's closed WAL directory in a fresh server and
// replays it, returning the server, the records applied and the time
// ReplayWAL took.
func replay(dir string, seed uint64) (*transport.Server, *wal.WAL, int, time.Duration, error) {
	log, err := wal.Open(wal.Options{Dir: dir, Policy: syncPolicy})
	if err != nil {
		return nil, nil, 0, 0, err
	}
	srv := transport.NewServer(seed)
	srv.Logger = quietLogger
	srv.AttachWAL(log)
	start := time.Now()
	n, err := srv.ReplayWAL()
	d := time.Since(start)
	if err != nil {
		log.Close()
		return nil, nil, n, d, fmt.Errorf("replaying %s: %w", dir, err)
	}
	return srv, log, n, d, nil
}

// newHTTPClient returns a client holding at most conns connections to
// the rig.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}, Timeout: 30 * time.Second}
}
