// Package store is the durability layer under streamfetchd: a job
// journal plus a content-addressed blob store for terminal results.
//
// The journal is an append-only sequence of JournalRecords, one per job
// state transition that matters for recovery: a record with a
// non-terminal state ("queued") carries the original request body, and a
// terminal record ("done", "failed", "cancelled") carries the job's final
// envelope. Replaying the journal — latest record per job id wins —
// reconstructs a daemon's job registry after a restart: terminal jobs are
// served from their envelopes, and jobs journaled as accepted but never
// finished are re-enqueued from their requests.
//
// The blob store holds results keyed by content hash (see Key): runs are
// deterministic for a fixed configuration and seed, so a blob written
// under the canonical hash of a request's semantic fields turns every
// repeat of that request into an O(1) lookup, shareable across daemons
// pointed at the same directory.
//
// Two backends implement the Store interface: Mem (process-local, for
// tests and the default daemon configuration) and FS (an atomic-rename
// filesystem layout with an fsync'd journal, crash-safe; see Open).
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"
)

// JournalRecord is one journaled job state transition.
type JournalRecord struct {
	ID   string `json:"id"`
	Kind string `json:"kind"` // "run" or "sweep"
	// Key is the content hash of the job's request (see Key); terminal
	// "done" records have a result blob stored under it.
	Key   string    `json:"key,omitempty"`
	State string    `json:"state"` // "queued", "done", "failed", "cancelled"
	Time  time.Time `json:"time"`
	// Request is the submitted job body, carried by non-terminal records
	// so recovery can re-enqueue the job.
	Request json.RawMessage `json:"request,omitempty"`
	// Envelope is the job's terminal resource representation, carried by
	// terminal records so a restarted daemon keeps serving it.
	Envelope json.RawMessage `json:"envelope,omitempty"`
}

// Terminal reports whether a journaled state is final. Anything
// non-terminal at recovery time is owed a re-run.
func Terminal(state string) bool {
	switch state {
	case "queued", "running":
		return false
	}
	return true
}

// Stats is a point-in-time view of a store's contents, surfaced through
// the daemon's /healthz.
type Stats struct {
	// JournalRecords is the total record count; JournalDepth the number
	// of journaled jobs with no terminal record yet (the recovery debt a
	// restart would re-enqueue).
	JournalRecords int `json:"journal_records"`
	JournalDepth   int `json:"journal_depth"`
	// Blobs and Bytes size the stored state: blob count, and bytes on
	// disk (FS) or resident (Mem) across journal and blobs.
	Blobs int   `json:"blobs"`
	Bytes int64 `json:"bytes"`
}

// Store is the pluggable durability backend. Implementations are safe
// for concurrent use.
type Store interface {
	// Name identifies the backend ("mem", "fs") for health reporting.
	Name() string

	// Journal appends one record. For durable backends the record has
	// reached stable storage when Journal returns.
	Journal(rec JournalRecord) error

	// Recover returns the latest journaled record per job id, ordered by
	// each job's first appearance in the journal (enqueue order).
	Recover() ([]JournalRecord, error)

	// PutBlob stores a result under its content key. Blobs are
	// immutable: writing an existing key is a no-op, never corruption.
	PutBlob(key string, data []byte) error

	// GetBlob fetches a blob; ok is false when the key is absent.
	GetBlob(key string) (data []byte, ok bool, err error)

	Stats() (Stats, error)
	Close() error
}

// Key derives the canonical content hash of a request's semantic fields:
// the SHA-256 of the spec's JSON encoding, hex-encoded. Callers pass a
// fully normalized spec struct (defaults resolved, order-insensitive
// fields canonicalized) so that every spelling of one configuration maps
// to one key; struct field order is fixed at compile time, so the
// encoding — and the key — is deterministic.
func Key(spec any) string {
	b, err := json.Marshal(spec)
	if err != nil {
		// Key specs are plain data structs; an unmarshalable one is a
		// programming error, not a runtime condition.
		panic(fmt.Sprintf("store: unencodable key spec %T: %v", spec, err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// replay folds records into latest-per-id in first-seen order; shared by
// backends implementing Recover.
func replay(recs []JournalRecord) []JournalRecord {
	latest := make(map[string]int, len(recs))
	var order []string
	for _, rec := range recs {
		if _, seen := latest[rec.ID]; !seen {
			order = append(order, rec.ID)
		}
		latest[rec.ID] = -1
	}
	for i, rec := range recs {
		latest[rec.ID] = i
	}
	out := make([]JournalRecord, 0, len(order))
	for _, id := range order {
		out = append(out, recs[latest[id]])
	}
	return out
}
