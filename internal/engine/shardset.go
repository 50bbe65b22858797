package engine

// ShardSet holds one state entry per shard and visits them in shard order.
// It is a single-coordinator object, like Engine, cache.Cache and
// pagestore.Disk: the shard fleet is a cost model — parallel heads are
// max-over-shards arithmetic on the coordinator's virtual clock — and a
// shard's turn is a few hundred nanoseconds of work, so the turn runs on the
// goroutine that called Do. Nothing here synchronises; concurrent callers
// need one set each. The fleet ranges over its shard slice directly; the
// type stays for bench/probes.go, which times Do, and for measured-mode
// shard workers (ROADMAP item 9) to come back to.
type ShardSet[T any] struct {
	state []T
}

// NewShardSet wraps one state entry per shard.
func NewShardSet[T any](state []T) *ShardSet[T] {
	return &ShardSet[T]{state: state}
}

// Shards returns the shard count.
func (ss *ShardSet[T]) Shards() int { return len(ss.state) }

// State returns shard i's state.
func (ss *ShardSet[T]) State(i int) T { return ss.state[i] }

// Do calls fn(i, state[i]) for i = 0..S-1, in shard order, on the calling
// goroutine. fn must confine its writes to shard i's state and any result
// slot dedicated to shard i, so that a turn's outcome does not depend on the
// visiting order. A panic in fn propagates from the shard that raised it:
// earlier shards have run, later ones have not.
func (ss *ShardSet[T]) Do(fn func(i int, st T)) {
	for i, st := range ss.state {
		fn(i, st)
	}
}

// Close does nothing: a ShardSet owns no goroutines. It remains for callers
// written against the worker-per-shard set.
func (ss *ShardSet[T]) Close() {}
