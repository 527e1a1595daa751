// Package store is locmapd's durability layer: the Journal interface,
// an append-only record log with replay and snapshot compaction, and
// FileJournal, its fsync'd JSONL implementation. The batch queue
// (internal/jobqueue) journals every job transition through it; the
// record schema and the lifecycle replay live in the consumer, so the
// store never interprets what it persists.
//
// Implementations must be safe for concurrent use.
package store

// Journal is an append-only record log with replay and snapshot
// compaction. Records are opaque byte slices, one per line; the
// consumer owns their schema.
//
// Durable implementations guarantee a successful Append survives a
// crash at any instant (fsync before return), that Replay streams
// every durable record — the compacted snapshot first, then live
// appends, each in original order — and that Compact atomically
// replaces all previously written records with the emitted snapshot.
type Journal interface {
	// Append durably appends one record.
	Append(rec []byte) error

	// Replay streams every durable record through apply, snapshot
	// records first, then live appends. An apply error aborts the
	// replay and is returned — except for a provably torn final live
	// record (a crash mid-append), which tolerant implementations
	// discard instead.
	Replay(apply func(rec []byte) error) error

	// Compact atomically replaces the journal's whole durable state:
	// write is called once with an emit function and every emitted
	// record becomes the new snapshot; on success the live log is
	// empty. A crash mid-compaction must leave either the old state or
	// the new snapshot plus (possibly) stale live records — consumers
	// replay those idempotently.
	Compact(write func(emit func(rec []byte) error) error) error

	// Size reports the live (not yet compacted) log's byte size — the
	// consumer's compaction trigger.
	Size() int64

	// Close releases the journal's resources.
	Close() error
}
