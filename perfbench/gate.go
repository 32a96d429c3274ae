package main

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// conflictReason is the JSON ack's reason for a report whose value
// differs from the one the server already accepted from that client.
const conflictReason = "conflicting report"

// ackOther stands for a JSON rejection that is not a conflict; it matches
// no expected status.
const ackOther wire.AckStatus = 0xff

// jsonStatus maps a JSON ack onto the binary ack vocabulary, so one
// check serves both codecs.
func jsonStatus(ack wire.ReportAck) wire.AckStatus {
	switch {
	case ack.Accepted && ack.Duplicate:
		return wire.AckDuplicate
	case ack.Accepted:
		return wire.AckAccepted
	case ack.Reason == conflictReason:
		return wire.AckConflict
	}
	return ackOther
}

// tally counts the generator's operations (task fetches and reports) and
// the failed ones: a transport error, a non-2xx reply, or an ack status
// other than the one the generator expected. A conflicting value the
// generator sent on purpose and saw answered with AckConflict is a
// correct outcome and counted apart, never as a failure.
type tally struct {
	attempted, failed, conflicts int
}

// fetched records a task fetch.
func (t *tally) fetched(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		return false
	}
	return true
}

// reported records one report whose reply was err or status got.
func (t *tally) reported(err error, want, got wire.AckStatus) bool {
	t.attempted++
	if err != nil || got != want {
		t.failed++
		return false
	}
	if want == wire.AckConflict {
		t.conflicts++
	}
	return true
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.conflicts += o.conflicts
}

// referenceConfig is the paper's estimator configured exactly as the
// server configures sessionConfig.
func referenceConfig() (core.Config, error) {
	probs, err := core.GeometricProbs(sessionConfig.Bits, sessionConfig.Gamma)
	return core.Config{Bits: sessionConfig.Bits, Probs: probs}, err
}

// checkResult fails unless res is bit-identical to want: report count,
// per-bit counts and sums, and the estimate.
func checkResult(res *wire.Result, want *core.Result) error {
	if res.Reports != want.Reports {
		return fmt.Errorf("reports %d, reference %d", res.Reports, want.Reports)
	}
	if len(res.Counts) != len(want.Counts) || len(res.Sums) != len(want.Sums) {
		return fmt.Errorf("result has %d counts and %d sums, reference %d bits", len(res.Counts), len(res.Sums), len(want.Counts))
	}
	for j := range want.Counts {
		if res.Counts[j] != want.Counts[j] {
			return fmt.Errorf("bit %d count %d, reference %d", j, res.Counts[j], want.Counts[j])
		}
		if math.Float64bits(res.Sums[j]) != math.Float64bits(want.Sums[j]) {
			return fmt.Errorf("bit %d sum %v, reference %v", j, res.Sums[j], want.Sums[j])
		}
	}
	if math.Float64bits(res.Estimate) != math.Float64bits(want.Estimate) {
		return fmt.Errorf("estimate %v, reference %v", res.Estimate, want.Estimate)
	}
	return nil
}

// gateLive finalizes the session and checks the result against
// core.Aggregate over the reports the generator saw accepted.
func gateLive(srv *transport.Server, session string, accepted []core.Report) (*core.Result, error) {
	cfg, err := referenceConfig()
	if err != nil {
		return nil, err
	}
	want, err := core.Aggregate(cfg, accepted)
	if err != nil {
		return nil, err
	}
	res, err := srv.Finalize(context.Background(), session)
	if err != nil {
		return nil, fmt.Errorf("finalizing %s: %w", session, err)
	}
	if err := checkResult(res, want); err != nil {
		return nil, fmt.Errorf("live result of %s: %w", session, err)
	}
	return want, nil
}

// gateReplayed checks a WAL-replayed server's result for the session
// against the same reference.
func gateReplayed(srv *transport.Server, session string, want *core.Result) error {
	res, err := srv.Result(session)
	if err != nil {
		return fmt.Errorf("replayed result of %s: %w", session, err)
	}
	if !res.Done {
		return errors.New("replayed session is not finalized")
	}
	if err := checkResult(res, want); err != nil {
		return fmt.Errorf("replayed result of %s: %w", session, err)
	}
	return nil
}
