package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/frand"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/wire"
	"repro/internal/workload"
)

// ingestMode selects how one unit of load reaches the server.
type ingestMode int

const (
	// modeFreshBatch: new clients fetch tasks over JSON, reports travel
	// in binary batches.
	modeFreshBatch ingestMode = iota
	// modeFreshJSON: new clients fetch and report over JSON, with
	// deliberate retransmissions and conflicts.
	modeFreshJSON
	// modeStorm: a pre-assigned pool re-sends binary batches.
	modeStorm
)

// ingestSpec fixes one ingest workload's traffic.
type ingestSpec struct {
	mode ingestMode
	// batch is the reports per binary frame; unused on the JSON route.
	batch int
	// retryShare and conflictShare are the shares of fresh JSON clients
	// that re-send their accepted report unchanged (a lost-ack
	// retransmission) or with the other value (a conflict).
	retryShare, conflictShare float64
	// pool is the number of pre-assigned clients a storm re-sends.
	pool int
	// rate is the open-loop offered rate, in new clients per second, or
	// batches per second on a storm. It is a constant, set once from the
	// saturation rate this workload reached when the benchmark was
	// defined (see workloads), so every later commit is offered the same
	// load.
	rate float64
	// openUnits is the open-loop item count: clients, or batches on a
	// storm. It is fixed so the tail percentile is the same on every
	// commit.
	openUnits int
	// setups is how many times a run sets its server up; setup_s is the
	// median. A fresh set-up takes about a millisecond, most of it the
	// session's WAL commit and its fsync, so many repeats are cheap and
	// keep a few slow fsyncs from moving the median.
	setups int
}

// valuePool is how many census ages are drawn per run; client i holds
// value i mod valuePool.
const valuePool = 1 << 16

// submitters is the number of load goroutines and connections: at most
// the host's CPU count, so the numbers measure the server, not the
// scheduler.
func submitters() int {
	return max(1, min(runtime.NumCPU(), runtime.GOMAXPROCS(0)))
}

// inputs is everything a run generates from its seed.
type inputs struct {
	seed   uint64
	values []uint64
}

func newInputs(seed uint64) *inputs {
	ages := workload.CensusAges{}.Sample(frand.New(seed), valuePool)
	in := &inputs{seed: seed, values: make([]uint64, len(ages))}
	for i, a := range ages {
		in.values[i] = uint64(a)
	}
	return in
}

func (in *inputs) value(i int) uint64 { return in.values[i%len(in.values)] }

// draw is a uniform [0, 1) variate fixed by the seed and i.
func (in *inputs) draw(i int) float64 {
	x := in.seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

func clientID(prefix string, i int) string { return prefix + strconv.Itoa(i) }

// poolClient is one pre-assigned storm client and the report it re-sends.
type poolClient struct {
	id    string
	bit   int
	value uint64
}

// setupRig opens a rig and, on a storm, assigns the pool and accepts its
// first reports; it returns the reports accepted so far.
func setupRig(spec ingestSpec, in *inputs, dir string, rec *recorder) (*rig, []poolClient, []core.Report, error) {
	r, err := openRig(dir, in.seed, rec)
	if err != nil || spec.mode != modeStorm {
		return r, nil, nil, err
	}
	pool, accepted, err := preparePool(r, spec, in)
	if err != nil {
		r.close()
		return nil, nil, nil, err
	}
	return r, pool, accepted, nil
}

func preparePool(r *rig, spec ingestSpec, in *inputs) ([]poolClient, []core.Report, error) {
	ctx := context.Background()
	pool := make([]poolClient, spec.pool)
	for i := range pool {
		id := clientID("pool-", i)
		task, err := r.srv.AssignTask(ctx, r.session, id)
		if err != nil {
			return nil, nil, err
		}
		pool[i] = poolClient{id: id, bit: task.Bit, value: in.value(i) >> uint(task.Bit) & 1}
	}
	accepted := make([]core.Report, 0, len(pool))
	reps := make([]wire.Report, 0, spec.batch)
	for lo := 0; lo < len(pool); lo += spec.batch {
		reps = reps[:0]
		for _, c := range pool[lo:min(lo+spec.batch, len(pool))] {
			reps = append(reps, wire.Report{ClientID: c.id, Bit: c.bit, Value: c.value})
		}
		sts, err := r.srv.SubmitReportBatch(ctx, r.session, reps)
		if err != nil {
			return nil, nil, err
		}
		for k, st := range sts {
			if st != wire.AckAccepted {
				return nil, nil, fmt.Errorf("pool client %s acked %v, want %v", reps[k].ClientID, st, wire.AckAccepted)
			}
			accepted = append(accepted, core.Report{Bit: reps[k].Bit, Value: reps[k].Value})
		}
	}
	return pool, accepted, nil
}

// load drives one phase of one workload against one rig.
type load struct {
	spec   ingestSpec
	in     *inputs
	r      *rig
	prefix string
	pool   []poolClient
	hc     *http.Client
	eps    *transport.EndpointList
	retry  *transport.RetryPolicy
	rec    *recorder
	next   atomic.Int64
	// The open-loop samples, in milliseconds and due order. lat holds one
	// per unit (a client on the JSON route, a batch otherwise), timed from
	// when the unit was due or, on fresh-batch, complete, to its ack. late
	// holds one per scheduled item (a client, or a storm batch): due to
	// send. fetchLat holds one per fresh-batch client: due to task reply.
	// Each entry is written by the one submitter that ran it; -1 marks one
	// never acked.
	lat, late, fetchLat []float64
}

// newSamples allocates an open-loop sample array.
func newSamples(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

func newLoad(spec ingestSpec, in *inputs, r *rig, prefix string, pool []poolClient, clientReg *obs.Registry, rec *recorder) *load {
	return &load{
		spec: spec, in: in, r: r, prefix: prefix, pool: pool, rec: rec,
		hc:  newHTTPClient(submitters()),
		eps: transport.NewEndpointList(r.base),
		retry: &transport.RetryPolicy{
			MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 200 * time.Millisecond,
			Jitter: 0.5, PerTryTimeout: 10 * time.Second, Seed: in.seed | 1, Metrics: clientReg,
		},
	}
}

func (l *load) reporter() transport.BinaryReporter {
	return transport.BinaryReporter{HTTPClient: l.hc, Endpoints: l.eps, Retry: l.retry}
}

// dueAt is when open-loop item i is due; the zero time in a closed loop.
func (l *load) dueAt(start time.Time, i int) time.Time {
	if start.IsZero() {
		return time.Time{}
	}
	return start.Add(time.Duration(float64(i) / l.spec.rate * float64(time.Second)))
}

// submitter is one load goroutine's state.
type submitter struct {
	l   *load
	rep transport.BinaryReporter
	t   tally
	// ledger holds every report the server acked as accepted, the
	// reference the correctness gate aggregates.
	ledger []core.Report
	// acked counts reports answered with the status the generator
	// expected (accepted, duplicate or a deliberate conflict).
	acked int
	// units counts completed units of work.
	units int
	// work and reports count the work units and reports acked within a
	// saturation window.
	work, reports float64

	pending []wire.Report
	// frames, jsonSent and tasks record what went over the wire, for the
	// codec replay.
	record   bool
	frames   [][]wire.Report
	jsonSent []wire.Report
	tasks    []wire.Task
}

const recordLimit = 256

// newSubmitter allocates a submitter's ledger; its load is set before it
// runs.
func newSubmitter(ledgerCap int) *submitter {
	return &submitter{ledger: make([]core.Report, 0, ledgerCap)}
}

// waitDue sleeps until open-loop item i is due and records how late the
// generator sends it.
func (s *submitter) waitDue(i int, due time.Time) {
	if due.IsZero() {
		return
	}
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	s.l.late[i] = ms(time.Since(due))
}

// unit runs unit u of the workload and returns when it was acked and how
// many units of work it completed. A zero start runs it closed-loop.
func (s *submitter) unit(ctx context.Context, u int, start time.Time) (time.Time, int) {
	switch s.l.spec.mode {
	case modeFreshJSON:
		return s.jsonClient(ctx, u, s.l.dueAt(start, u))
	case modeFreshBatch:
		return s.freshBlock(ctx, u, start)
	case modeStorm:
		return s.stormBatch(ctx, u, s.l.dueAt(start, u))
	}
	return time.Time{}, 0
}

func (s *submitter) participant(i int) transport.Participant {
	l := s.l
	return transport.Participant{ClientID: clientID(l.prefix, i), HTTPClient: l.hc, Endpoints: l.eps, Retry: l.retry}
}

// fetch requests client i's task and derives the report it will send.
func (s *submitter) fetch(ctx context.Context, p *transport.Participant, i int) (wire.Report, bool) {
	id := s.l.rec.begin("client.fetch_task")
	task, err := p.FetchTask(ctx, s.l.r.session)
	s.l.rec.end(id)
	if !s.t.fetched(err) {
		return wire.Report{}, false
	}
	if s.record && len(s.tasks) < recordLimit {
		s.tasks = append(s.tasks, task)
	}
	return wire.Report{ClientID: p.ClientID, Bit: task.Bit, Value: s.l.in.value(i) >> uint(task.Bit) & 1}, true
}

func (s *submitter) submit(ctx context.Context, p *transport.Participant, rep wire.Report, want wire.AckStatus) bool {
	if s.record && len(s.jsonSent) < recordLimit {
		s.jsonSent = append(s.jsonSent, rep)
	}
	id := s.l.rec.begin("client.submit_report")
	ack, err := p.SubmitReport(ctx, s.l.r.session, rep)
	s.l.rec.end(id)
	if !s.t.reported(err, want, jsonStatus(ack)) {
		return false
	}
	s.acked++
	return true
}

// jsonClient is one new client on the JSON route: task, report, and for
// a fixed share of clients a retransmission or a conflicting value.
func (s *submitter) jsonClient(ctx context.Context, i int, due time.Time) (time.Time, int) {
	l := s.l
	s.waitDue(i, due)
	p := s.participant(i)
	rep, ok := s.fetch(ctx, &p, i)
	if !ok || !s.submit(ctx, &p, rep, wire.AckAccepted) {
		return time.Time{}, 0
	}
	at := time.Now()
	s.ledger = append(s.ledger, core.Report{Bit: rep.Bit, Value: rep.Value})
	if !due.IsZero() {
		l.lat[i] = ms(at.Sub(due))
	}
	switch u := l.in.draw(i); {
	case u < l.spec.conflictShare:
		bad := rep
		bad.Value ^= 1
		s.submit(ctx, &p, bad, wire.AckConflict)
	case u < l.spec.conflictShare+l.spec.retryShare:
		s.submit(ctx, &p, rep, wire.AckDuplicate)
	}
	return at, 1
}

// freshBlock is batch u of new clients: each fetches its task over
// JSON, then their reports travel in one binary frame. The batch's
// latency sample is timed from when it was complete, the due time of its
// last client, so it holds the server's work (the last task fetch and the
// flush) and not the generator's fill time; each task fetch is timed
// from its own client's due time.
func (s *submitter) freshBlock(ctx context.Context, u int, start time.Time) (time.Time, int) {
	l := s.l
	s.pending = s.pending[:0]
	base := u * l.spec.batch
	var due time.Time
	for i := base; i < base+l.spec.batch; i++ {
		due = l.dueAt(start, i)
		s.waitDue(i, due)
		p := s.participant(i)
		rep, ok := s.fetch(ctx, &p, i)
		if !ok {
			continue
		}
		if !due.IsZero() {
			l.fetchLat[i] = ms(time.Since(due))
		}
		if err := s.rep.Add(rep.ClientID, rep.Bit, rep.Value); err != nil {
			s.t.reported(err, wire.AckAccepted, ackOther)
			continue
		}
		s.pending = append(s.pending, rep)
	}
	acks, ok := s.flush(ctx)
	if !ok {
		return time.Time{}, 0
	}
	at := time.Now()
	n := 0
	for k, st := range acks {
		if !s.t.reported(nil, wire.AckAccepted, st) {
			continue
		}
		s.acked++
		n++
		s.ledger = append(s.ledger, core.Report{Bit: s.pending[k].Bit, Value: s.pending[k].Value})
	}
	if !due.IsZero() && n == len(acks) {
		l.lat[u] = ms(at.Sub(due))
	}
	return at, n
}

// stormBatch re-sends one batch of the pre-assigned pool; every record
// must come back a duplicate.
func (s *submitter) stormBatch(ctx context.Context, u int, due time.Time) (time.Time, int) {
	l := s.l
	s.waitDue(u, due)
	s.pending = s.pending[:0]
	off := u * l.spec.batch
	for k := 0; k < l.spec.batch; k++ {
		c := l.pool[(off+k)%len(l.pool)]
		if err := s.rep.Add(c.id, c.bit, c.value); err != nil {
			s.t.reported(err, wire.AckDuplicate, ackOther)
			continue
		}
		s.pending = append(s.pending, wire.Report{ClientID: c.id, Bit: c.bit, Value: c.value})
	}
	acks, ok := s.flush(ctx)
	if !ok {
		return time.Time{}, 0
	}
	at := time.Now()
	n := 0
	for _, st := range acks {
		if s.t.reported(nil, wire.AckDuplicate, st) {
			s.acked++
			n++
		}
	}
	if !due.IsZero() && n == len(acks) {
		l.lat[u] = ms(at.Sub(due))
	}
	return at, n
}

// flush posts the pending binary batch. A failed flush counts every
// record as failed and starts a fresh reporter, so stale records are
// never re-sent.
func (s *submitter) flush(ctx context.Context) ([]wire.AckStatus, bool) {
	if s.record && len(s.frames) < recordLimit {
		s.frames = append(s.frames, append([]wire.Report(nil), s.pending...))
	}
	id := s.l.rec.begin("client.flush")
	acks, err := s.rep.Flush(ctx, s.l.r.session)
	s.l.rec.end(id)
	if err != nil {
		for range s.pending {
			s.t.reported(err, wire.AckAccepted, ackOther)
		}
		s.rep = s.l.reporter()
		return nil, false
	}
	return acks, true
}

// phase is what one load phase measured.
type phase struct {
	subs []*submitter
	wall time.Duration
	// workPerS and reportsPerS are the work units and reports acked per
	// second of a saturation window (closed loop only).
	workPerS, reportsPerS float64
}

func (p *phase) units() (n int) {
	for _, s := range p.subs {
		n += s.units
	}
	return n
}

func (p *phase) acked() (n int) {
	for _, s := range p.subs {
		n += s.acked
	}
	return n
}

func (p *phase) tally() (t tally) {
	for _, s := range p.subs {
		t.add(s.t)
	}
	return t
}

func (p *phase) ledger(seed []core.Report) []core.Report {
	out := append([]core.Report(nil), seed...)
	for _, s := range p.subs {
		out = append(out, s.ledger...)
	}
	return out
}

// closedLoop runs every submitter back to back for window: each waits for
// its reply before sending the next unit. Its rates count the work acked
// within the window over the whole window, so every stall inside it, the
// program's own included, lowers them in proportion.
func (l *load) closedLoop(subs []*submitter, window time.Duration) *phase {
	ctx := context.Background()
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for _, s := range subs {
		wg.Add(1)
		go func(s *submitter) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				acked := s.acked
				at, n := s.unit(ctx, int(l.next.Add(1)-1), time.Time{})
				s.units += n
				if n > 0 && at.Before(deadline) {
					s.work += float64(n)
					s.reports += float64(s.acked - acked)
				}
			}
		}(s)
	}
	wg.Wait()
	p := &phase{subs: subs, wall: time.Since(start)}
	for _, s := range subs {
		p.workPerS += s.work / window.Seconds()
		p.reportsPerS += s.reports / window.Seconds()
	}
	l.hc.CloseIdleConnections()
	return p
}

// openLoop offers the fixed rate until openUnits are done: item i is due
// at start + i/rate whether or not earlier items have been answered, and
// every sample is timed from when it was due.
func (l *load) openLoop(subs []*submitter) *phase {
	ctx := context.Background()
	units := l.spec.openUnits
	if l.spec.mode == modeFreshBatch {
		units /= l.spec.batch
	}
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for _, s := range subs {
		wg.Add(1)
		go func(s *submitter) {
			defer wg.Done()
			for {
				u := int(l.next.Add(1) - 1)
				if u >= units {
					return
				}
				_, n := s.unit(ctx, u, start)
				s.units += n
			}
		}(s)
	}
	wg.Wait()
	l.hc.CloseIdleConnections()
	return &phase{subs: subs, wall: time.Since(start)}
}
