package main

import (
	"runtime"
	"runtime/metrics"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wal"
)

// walSnap reads the WAL's own counters and histograms from the registry
// passed in through wal.Options.Registry.
type walSnap struct {
	appends, bytes, fsyncs uint64
	appendN, flushN        uint64
	appendSec, flushSec    float64
}

func readWAL(reg *obs.Registry) walSnap {
	app := reg.Histogram(wal.MetricAppendSeconds, "", obs.LatencyBuckets)
	fl := reg.Histogram(wal.MetricFlushSeconds, "", obs.LatencyBuckets)
	return walSnap{
		appends:   reg.Counter(wal.MetricAppends, "").Value(),
		bytes:     reg.Counter(wal.MetricAppendBytes, "").Value(),
		fsyncs:    reg.Counter(wal.MetricFsyncs, "").Value(),
		appendN:   app.Count(),
		flushN:    fl.Count(),
		appendSec: app.Sum(),
		flushSec:  fl.Sum(),
	}
}

func (a walSnap) sub(b walSnap) walSnap {
	return walSnap{
		appends: a.appends - b.appends, bytes: a.bytes - b.bytes, fsyncs: a.fsyncs - b.fsyncs,
		appendN: a.appendN - b.appendN, flushN: a.flushN - b.flushN,
		appendSec: a.appendSec - b.appendSec, flushSec: a.flushSec - b.flushSec,
	}
}

// seconds is the WAL's own time: appending plus fsyncing.
func (a walSnap) seconds() float64 { return a.appendSec + a.flushSec }

func clientAttempts(reg *obs.Registry) uint64 {
	return reg.Counter(transport.MetricClientAttempts, "").Value()
}

// rtSnap reads the Go runtime's cumulative CPU and allocation counters.
type rtSnap struct {
	gcCPU, totalCPU    float64
	allocBytes, allocs uint64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSnap{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		allocBytes: s[2].Value.Uint64(),
		allocs:     s[3].Value.Uint64(),
	}
}

func (a rtSnap) sub(b rtSnap) rtSnap {
	return rtSnap{
		gcCPU: a.gcCPU - b.gcCPU, totalCPU: a.totalCPU - b.totalCPU,
		allocBytes: a.allocBytes - b.allocBytes, allocs: a.allocs - b.allocs,
	}
}

// liveHeap is the heap in use after forced collections.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}
