package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/transport/wire"
)

// ingestWorkload runs one ingest traffic mix against in-process servers.
type ingestWorkload struct{ spec ingestSpec }

// directClients is the client count of the traced run's direct-call
// phase.
const directClients = 2000

func (w ingestWorkload) run(cfg runConfig) (*outcome, error) {
	spec := w.spec
	in := newInputs(cfg.seed)
	out := newOutcome()

	// Set-up, repeated; the last rig carries the saturation phase.
	var setups []float64
	var rigA *rig
	var poolA []poolClient
	var seedA []core.Report
	for k := 0; k < spec.setups; k++ {
		start := time.Now()
		r, pool, acc, err := setupRig(spec, in, cfg.newDir(), nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if rigA != nil {
			rigA.close()
		}
		rigA, poolA, seedA = r, pool, acc
	}

	// Saturation, closed loop. The traced run measures half the window
	// untraced and half traced, on a fresh rig.
	window := cfg.window
	if cfg.traced {
		window /= 2
	}
	clientReg := obs.NewRegistry()
	lA := newLoad(spec, in, rigA, "sat-", poolA, clientReg, nil)
	rt0 := readRuntime()
	satA := lA.closedLoop(lA.submitters(), window)
	rtA := readRuntime().sub(rt0)
	out.t.add(satA.tally())
	if _, _, err := gateRig(rigA, satA.ledger(seedA), in.seed); err != nil {
		return out.fail(err), nil
	}
	out.set("work_per_s", satA.workPerS)

	var layers map[string]float64
	if cfg.traced {
		var err error
		if layers, err = w.traced(cfg, in, satA, rtA, out); err != nil || out.err != nil {
			return out, err
		}
	}

	// Fixed-rate open loop on a fresh rig; heap and recovery follow it.
	// Its submitters' buffers are allocated before the baseline heap
	// reading, so the heap delta is the server's.
	subs := make([]*submitter, submitters())
	for k := range subs {
		subs[k] = newSubmitter(spec.openUnits/len(subs) + spec.batch + 1)
	}
	items := spec.openUnits
	if spec.mode == modeFreshBatch {
		items = items / spec.batch * spec.batch
	}
	units := spec.openUnits
	if spec.mode == modeFreshBatch {
		units /= spec.batch
	}
	latBuf, lateBuf, fetchBuf := newSamples(units), newSamples(items), newSamples(items)
	heap0 := liveHeap()
	start := time.Now()
	rigB, poolB, seedB, err := setupRig(spec, in, cfg.newDir(), nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setups = append(setups, time.Since(start).Seconds())
	defer rigB.close()
	lB := newLoad(spec, in, rigB, "open-", poolB, clientReg, nil)
	lB.lat, lB.late, lB.fetchLat = latBuf, lateBuf, fetchBuf
	for _, s := range subs {
		s.l, s.rep = lB, lB.reporter()
	}
	open := lB.openLoop(subs)
	held := spec.openUnits
	if spec.mode == modeStorm {
		held = spec.pool
	}
	heapPerClient := (liveHeap() - heap0) / float64(held)
	out.t.add(open.tally())
	lat, err := summarize(latBuf, latencySegment)
	if err != nil {
		return nil, fmt.Errorf("open loop: %w", err)
	}
	// Lateness is read over the whole phase as one segment: it must show
	// the worst of the generator, not its typical stretch.
	late, err := summarize(lateBuf, 0)
	if err != nil {
		return nil, fmt.Errorf("open loop lateness: %w", err)
	}
	recovery, records, err := gateRig(rigB, open.ledger(seedB), in.seed)
	if err != nil {
		return out.fail(err), nil
	}
	openDetail := map[string]any{
		"rate_per_s": spec.rate, "samples": lat.N, "segment_tails_ms": lat.SegmentTails, "tail_percentile": lat.TailP,
		"late_p50_ms": late.P50, "late_tail_ms": late.Tail, "wall_s": open.wall.Seconds(),
	}
	if spec.mode == modeFreshBatch {
		fetch, err := summarize(fetchBuf, 0)
		if err != nil {
			return nil, fmt.Errorf("open loop task fetches: %w", err)
		}
		openDetail["task_fetch_p50_ms"], openDetail["task_fetch_tail_ms"] = fetch.P50, fetch.Tail
	}
	out.detail("open_loop", openDetail)
	out.detail("saturation", map[string]any{
		"work_per_s": satA.workPerS, "acked_reports_per_s": satA.reportsPerS, "units": satA.units(),
	})
	out.detail("recovery", map[string]any{"records": records, "seconds": recovery.Seconds()})

	if layers == nil {
		out.set("latency_p50_ms", lat.P50)
		out.set("latency_tail_ms", lat.Tail)
		out.set("heap_per_unit_b", heapPerClient)
		out.set("setup_s", median(setups))
		return out, nil
	}
	out.metrics = layers
	out.set("loadgen.late_p99_ms", late.Tail)
	out.set("wal.recovery_s", recovery.Seconds())
	out.set("wal.replay_records_per_s", ratio(float64(records), recovery.Seconds()))
	out.set("loadgen.acked_reports_per_s", satA.reportsPerS)
	return out, nil
}

// submitters makes the phase's load goroutines.
func (l *load) submitters() []*submitter {
	subs := make([]*submitter, submitters())
	for k := range subs {
		subs[k] = newSubmitter(0)
		subs[k].l, subs[k].rep = l, l.reporter()
	}
	return subs
}

// gateRig finalizes the rig's session and checks it against the
// reference, closes the rig, replays its WAL into a fresh server and
// checks the replayed result again. It returns the replay's duration and
// record count.
func gateRig(r *rig, accepted []core.Report, seed uint64) (time.Duration, int, error) {
	want, err := gateLive(r.srv, r.session, accepted)
	if err != nil {
		return 0, 0, err
	}
	if err := r.close(); err != nil {
		return 0, 0, err
	}
	srv, log, n, d, err := replay(r.dir, seed)
	if err != nil {
		return 0, 0, err
	}
	defer log.Close()
	return d, n, gateReplayed(srv, r.session, want)
}

// traced runs the traced half of the saturation window on a rig whose
// handler is tapped, then the direct-call and codec phases, and returns
// the per-layer table. untraced is the untraced half's phase and rt its
// runtime counters.
func (w ingestWorkload) traced(cfg runConfig, in *inputs, untraced *phase, rt rtSnap, out *outcome) (map[string]float64, error) {
	spec := w.spec
	rec := newRecorder()
	r, pool, seed, err := setupRig(spec, in, cfg.newDir(), rec)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer r.close()
	clientReg := obs.NewRegistry()
	l := newLoad(spec, in, r, "trace-", pool, clientReg, rec)
	subs := l.submitters()
	for _, s := range subs {
		s.record = true
	}
	wal0 := readWAL(r.walReg)
	sat := l.closedLoop(subs, cfg.window/2)
	walD := readWAL(r.walReg).sub(wal0)
	attempts := clientAttempts(clientReg)
	out.t.add(sat.tally())
	if _, _, err := gateRig(r, sat.ledger(seed), in.seed); err != nil {
		out.fail(err)
		return nil, nil
	}
	spans := rec.aggregate()
	writeTable(cfg.stderr, spans)

	direct, err := directPhase(spec, in, cfg.newDir())
	if err != nil {
		return nil, fmt.Errorf("direct phase: %w", err)
	}
	var frames, jsonSent [][]wire.Report
	var tasks []wire.Task
	for _, s := range subs {
		frames = append(frames, s.frames...)
		jsonSent = append(jsonSent, s.jsonSent)
		tasks = append(tasks, s.tasks...)
	}
	codec, err := codecPhase(frames, jsonSent, tasks)
	if err != nil {
		return nil, fmt.Errorf("codec phase: %w", err)
	}

	m := layerTemplate()
	units := float64(sat.units())
	reports := float64(sat.acked())
	// Every handler span serves exactly one client call, so the client
	// calls' time minus the handlers' is what happens outside the handler.
	clientCalls, clientTotal := total(spans, "client.fetch_task", "client.submit_report", "client.flush")
	handlerCalls, handlerTotal := total(spans, "http.task", "http.report", "http.batch", "http.other")
	outside := clientTotal - handlerTotal
	m["http.task_handler_us"] = spans["http.task"].meanUS()
	m["http.report_handler_us"] = spans["http.report"].meanUS()
	m["http.batch_handler_us"] = spans["http.batch"].meanUS()
	m["http.client_overhead_us"] = ratio(float64(outside)/float64(time.Microsecond), float64(clientCalls))
	m["http.requests_per_report"] = ratio(float64(handlerCalls), reports)
	for k, v := range codec {
		m[k] = v
	}
	for k, v := range direct {
		m[k] = v
	}
	m["wal.records_per_report"] = ratio(float64(walD.appends), reports)
	m["wal.bytes_per_report"] = ratio(float64(walD.bytes), reports)
	m["wal.fsyncs_per_report"] = ratio(float64(walD.fsyncs), reports)
	m["wal.append_us"] = ratio(walD.appendSec*1e6, float64(walD.appendN))
	m["wal.flush_us"] = ratio(walD.flushSec*1e6, float64(walD.flushN))
	m["wal.flush_busy_share"] = ratio(walD.flushSec, sat.wall.Seconds())
	m["client.attempts_per_op"] = ratio(float64(attempts), float64(clientCalls))
	m["runtime.gc_cpu_share"] = ratio(rt.gcCPU, rt.totalCPU)
	m["runtime.alloc_bytes_per_report"] = ratio(float64(rt.allocBytes), float64(untraced.acked()))
	m["trace.overhead_share"] = 1 - ratio(sat.workPerS, untraced.workPerS)

	// Per unit of work: the wall cost a submitter pays, and the handler
	// time that the independently measured layers below HTTP explain.
	wall := float64(len(subs)) * sat.wall.Seconds() * 1e6 / units
	handler := float64(handlerTotal) / float64(time.Microsecond) / units
	perUnit := float64(sat.acked()) / units
	var serverUS, codecUS float64
	switch spec.mode {
	case modeFreshJSON:
		extra := spec.retryShare + spec.conflictShare
		serverUS = m["server.assign_us"] + m["server.accept_us"] + extra*m["server.duplicate_us"]
		codecUS = (m["wire.task_json_ns"] + perUnit*m["wire.json_ns_per_report"]) / 1e3
	case modeFreshBatch:
		serverUS = m["server.assign_us"] + m["server.accept_us"]
		codecUS = (m["wire.task_json_ns"] + m["wire.batch_decode_ns_per_report"] + m["wire.ack_encode_ns_per_report"]) / 1e3
	case modeStorm:
		serverUS = m["server.duplicate_us"]
		codecUS = (m["wire.batch_decode_ns_per_report"] + m["wire.ack_encode_ns_per_report"]) / 1e3
	}
	walUS := walD.seconds() * 1e6 / units
	m["trace.unattributed_share"] = ratio(handler-serverUS-codecUS-walUS, wall)
	out.detail("per_unit_us", map[string]any{
		"wall": wall, "handler": handler, "server_self": serverUS, "codec": codecUS, "wal": walUS,
		"client_and_network": float64(outside) / float64(time.Microsecond) / units,
	})
	return m, nil
}

// directPhase calls the server's public functions in-process, with the
// same WAL policy and the same generated inputs, and reports each call's
// mean self time: the call's duration minus the WAL's own append and
// fsync time during it.
func directPhase(spec ingestSpec, in *inputs, dir string) (map[string]float64, error) {
	r, err := openRig(dir, in.seed, nil)
	if err != nil {
		return nil, err
	}
	defer r.close()
	r.stopServing()
	ctx := context.Background()
	n := directClients
	reps := make([]wire.Report, n)
	heap0 := liveHeap()

	w0 := readWAL(r.walReg)
	start := time.Now()
	for i := range reps {
		id := clientID("direct-", i)
		task, err := r.srv.AssignTask(ctx, r.session, id)
		if err != nil {
			return nil, err
		}
		reps[i] = wire.Report{ClientID: id, Bit: task.Bit, Value: in.value(i) >> uint(task.Bit) & 1}
	}
	assign := time.Since(start).Seconds()
	w1 := readWAL(r.walReg)

	submit := func(want wire.AckStatus) (float64, error) {
		start := time.Now()
		if spec.mode == modeFreshJSON {
			for _, rep := range reps {
				ack, err := r.srv.SubmitReport(ctx, r.session, rep)
				if err != nil {
					return 0, err
				}
				if got := jsonStatus(ack); got != want {
					return 0, fmt.Errorf("direct report acked %v, want %v", got, want)
				}
			}
			return time.Since(start).Seconds(), nil
		}
		for lo := 0; lo < n; lo += spec.batch {
			sts, err := r.srv.SubmitReportBatch(ctx, r.session, reps[lo:min(lo+spec.batch, n)])
			if err != nil {
				return 0, err
			}
			for _, st := range sts {
				if st != want {
					return 0, fmt.Errorf("direct batch record acked %v, want %v", st, want)
				}
			}
		}
		return time.Since(start).Seconds(), nil
	}
	accept, err := submit(wire.AckAccepted)
	if err != nil {
		return nil, err
	}
	w2 := readWAL(r.walReg)
	heap1 := liveHeap()
	dup, err := submit(wire.AckDuplicate)
	if err != nil {
		return nil, err
	}
	w3 := readWAL(r.walReg)
	start = time.Now()
	if _, err := r.srv.Finalize(ctx, r.session); err != nil {
		return nil, err
	}
	final := time.Since(start).Seconds()
	w4 := readWAL(r.walReg)
	per := 1e6 / float64(n)
	return map[string]float64{
		"server.assign_us":             (assign - w1.sub(w0).seconds()) * per,
		"server.accept_us":             (accept - w2.sub(w1).seconds()) * per,
		"server.duplicate_us":          (dup - w3.sub(w2).seconds()) * per,
		"server.finalize_ms":           (final - w4.sub(w3).seconds()) * 1e3,
		"server.heap_bytes_per_client": (heap1 - heap0) / float64(n),
	}, nil
}

// codecPhase replays the traced run's recorded reports through the
// public codec: batch frames through BatchReader and AppendAckFrame,
// JSON reports through the server's half of the JSON exchange (decode the
// report, encode the ack), and task replies through their encoding.
func codecPhase(frames, jsonSent [][]wire.Report, tasks []wire.Task) (map[string]float64, error) {
	m := map[string]float64{}
	const budget = 200 * time.Millisecond
	if len(frames) > 0 {
		var bufs [][]byte
		var recs int
		for _, f := range frames {
			b, err := wire.AppendReportBatch(nil, f)
			if err != nil {
				return nil, err
			}
			bufs = append(bufs, b)
			recs += len(f)
		}
		var rd wire.BatchReader
		var v wire.ReportView
		decode := func() error {
			for _, b := range bufs {
				if err := rd.Reset(b); err != nil {
					return err
				}
				for {
					ok, err := rd.Next(&v)
					if err != nil {
						return err
					}
					if !ok {
						break
					}
				}
			}
			return nil
		}
		d, rounds, err := timeRounds(budget, decode)
		if err != nil {
			return nil, err
		}
		m["wire.batch_decode_ns_per_report"] = float64(d.Nanoseconds()) / float64(rounds*recs)
		sts := make([]wire.AckStatus, wire.MaxBatchReports)
		var ackBuf []byte
		d, rounds, _ = timeRounds(budget, func() error {
			for _, f := range frames {
				ackBuf = wire.AppendAckFrame(ackBuf[:0], sts[:len(f)])
			}
			return nil
		})
		m["wire.ack_encode_ns_per_report"] = float64(d.Nanoseconds()) / float64(rounds*recs)
	}
	var bodies [][]byte
	for _, reps := range jsonSent {
		for _, rep := range reps {
			b, err := json.Marshal(rep)
			if err != nil {
				return nil, err
			}
			bodies = append(bodies, b)
		}
	}
	if len(bodies) > 0 {
		var rep wire.Report
		d, rounds, err := timeRounds(budget, func() error {
			for _, b := range bodies {
				if err := json.Unmarshal(b, &rep); err != nil {
					return err
				}
				if _, err := json.Marshal(wire.ReportAck{Accepted: true}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		m["wire.json_ns_per_report"] = float64(d.Nanoseconds()) / float64(rounds*len(bodies))
	}
	if len(tasks) > 0 {
		d, rounds, err := timeRounds(budget, func() error {
			for _, task := range tasks {
				if _, err := json.Marshal(task); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		m["wire.task_json_ns"] = float64(d.Nanoseconds()) / float64(rounds*len(tasks))
	}
	return m, nil
}

// timeRounds repeats fn until budget has passed and returns the elapsed
// time and the round count.
func timeRounds(budget time.Duration, fn func() error) (time.Duration, int, error) {
	start := time.Now()
	rounds := 0
	for time.Since(start) < budget {
		if err := fn(); err != nil {
			return 0, 0, err
		}
		rounds++
	}
	return time.Since(start), rounds, nil
}
