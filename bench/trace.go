package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"scout/internal/engine"
	"scout/internal/geom"
	"scout/internal/pagestore"
	"scout/internal/prefetch"
)

// Limits on what a traced run keeps for the replay probes: enough to time a
// layer for tens of milliseconds, small enough not to disturb the run.
const (
	maxReplayPages = 200_000
	maxReplayObs   = 256
)

// obsSample is one recorded observation: what a prefetcher was shown.
type obsSample struct {
	// who and seq tie an observation to its predecessor in the same walk
	// (PlanSessions interleaves sessions), for the graph-advance replay.
	who    *tracedPrefetcher
	seq    int
	region geom.Region
	center geom.Vec3
	result []pagestore.ObjectID
}

// recorder keeps a traced run's spans and replay streams in memory; they are
// written out (spans) or replayed (streams) after the timed passes. A nil
// recorder records nothing, which is how the untraced run is built from the
// same code. Safe for concurrent use: PlanSessions calls the decorators
// from its worker goroutines.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	op    int // index of the current operation's root span
	ops   int

	// Replay streams: the page lists demand lookups saw, the page lists
	// index probes returned (what prefetch would insert), and observations.
	lookups   [][]pagestore.PageID
	inserts   [][]pagestore.PageID
	pagesKept int
	obs       []obsSample

	// indexPages sums the pages index probes returned, by span name.
	indexPages map[string]int64

	// Plan totals, summed by the prefetcher decorator.
	plans, requests        int64
	graphBuild, prediction time.Duration
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), op: -1, indexPages: map[string]int64{}}
}

// beginOp opens an operation's root span; endOp closes it.
func (r *recorder) beginOp(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Op: r.ops, Name: name, Start: int64(time.Since(r.t0)), Parent: -1})
	r.op = len(r.spans) - 1
	r.mu.Unlock()
}

func (r *recorder) endOp() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[r.op].End = int64(time.Since(r.t0))
	r.op = -1
	r.ops++
	r.mu.Unlock()
}

// child records a finished span under the current operation.
func (r *recorder) child(name string, start time.Time) {
	end := time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, span{
		Op: r.ops, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0)), Parent: r.op,
	})
	r.mu.Unlock()
}

// keepPages stores a copy of a page list in one of the replay streams.
func (r *recorder) keepPages(stream *[][]pagestore.PageID, pages []pagestore.PageID) {
	if len(pages) == 0 {
		return
	}
	r.mu.Lock()
	if r.pagesKept < maxReplayPages {
		*stream = append(*stream, append([]pagestore.PageID(nil), pages...))
		r.pagesKept += len(pages)
	}
	r.mu.Unlock()
}

// spanTotals sums span durations and counts by name.
func (r *recorder) spanTotals() map[string]spanTotal {
	out := make(map[string]spanTotal)
	for _, s := range r.spans {
		t := out[s.Name]
		t.n++
		t.d += time.Duration(s.End - s.Start)
		out[s.Name] = t
	}
	return out
}

type spanTotal struct {
	n int64
	d time.Duration
}

// rootSelf sums, over root spans of the given name, wall time and self time.
func (r *recorder) rootSelf(name string) (wall, self time.Duration) {
	for i, s := range r.spans {
		if s.Parent == -1 && s.Name == name {
			wall += time.Duration(s.End - s.Start)
			self += selfTime(r.spans, i)
		}
	}
	return wall, self
}

// writeSpans writes the span file, one JSON object per line.
func (r *recorder) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedIndex is the timing engine.Index: every probe becomes a child span
// of the current operation and its result joins the insert replay stream.
type tracedIndex struct {
	inner engine.Index
	name  string
	rec   *recorder
}

// traceIndex wraps idx when rec is non-nil.
func traceIndex(idx engine.Index, name string, rec *recorder) engine.Index {
	if rec == nil {
		return idx
	}
	return &tracedIndex{inner: idx, name: name, rec: rec}
}

func (t *tracedIndex) QueryPages(r geom.Region, dst []pagestore.PageID) []pagestore.PageID {
	start := time.Now()
	n := len(dst)
	out := t.inner.QueryPages(r, dst)
	t.rec.child(t.name, start)
	t.rec.mu.Lock()
	t.rec.indexPages[t.name] += int64(len(out) - n)
	t.rec.mu.Unlock()
	t.rec.keepPages(&t.rec.inserts, out[n:])
	return out
}

// tracedPrefetcher is the timing prefetch.Prefetcher (and Cloner): Observe
// becomes a child span named after the wrapped approach, observations and
// demand page lists join the replay streams, and plan sizes are summed.
type tracedPrefetcher struct {
	inner prefetch.Prefetcher
	name  string
	rec   *recorder
}

// tracePrefetcher wraps p when rec is non-nil. name is the span name of its
// Observe calls ("core.scout.observe", ...).
func tracePrefetcher(p prefetch.Prefetcher, name string, rec *recorder) prefetch.Prefetcher {
	if rec == nil {
		return p
	}
	return &tracedPrefetcher{inner: p, name: name, rec: rec}
}

func (t *tracedPrefetcher) Name() string { return t.inner.Name() }
func (t *tracedPrefetcher) Reset()       { t.inner.Reset() }

func (t *tracedPrefetcher) Observe(obs prefetch.Observation) {
	start := time.Now()
	t.inner.Observe(obs)
	t.rec.child(t.name, start)
	t.rec.keepPages(&t.rec.lookups, obs.Pages)
	t.rec.mu.Lock()
	if len(t.rec.obs) < maxReplayObs {
		t.rec.obs = append(t.rec.obs, obsSample{
			who: t, seq: obs.Seq, region: obs.Region, center: obs.Center,
			result: append([]pagestore.ObjectID(nil), obs.Result...),
		})
	}
	t.rec.mu.Unlock()
}

func (t *tracedPrefetcher) Plan() prefetch.Plan {
	plan := t.inner.Plan()
	t.rec.mu.Lock()
	t.rec.plans++
	t.rec.requests += int64(len(plan.Requests))
	t.rec.graphBuild += plan.GraphBuild
	t.rec.prediction += plan.Prediction
	t.rec.mu.Unlock()
	return plan
}

func (t *tracedPrefetcher) Clone() prefetch.Prefetcher {
	return &tracedPrefetcher{inner: t.inner.(prefetch.Cloner).Clone(), name: t.name, rec: t.rec}
}
