package store

import (
	"slices"
	"sync"
)

// Mem is the in-memory Store: the default backend, and the test double
// for the durable ones. It provides the same journal/blob semantics with
// process lifetime — a daemon on Mem keeps the full caching and
// coalescing behaviour but starts empty after a restart.
//
// The journal keeps only what Recover returns, the latest record per job
// id in first-seen order, plus the counts Stats reports, so a long-lived
// daemon's journal is bounded by its jobs and Stats costs O(1).
type Mem struct {
	mu sync.Mutex
	// recs holds the latest record per job id, in first-seen order; at
	// maps a job id to its position in recs.
	recs []JournalRecord
	at   map[string]int
	// records counts every record journaled; pending holds the job ids
	// whose latest record is not terminal.
	records int
	pending map[string]struct{}
	blobs   map[string][]byte
	bytes   int64
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{at: map[string]int{}, pending: map[string]struct{}{}, blobs: map[string][]byte{}}
}

func (s *Mem) Name() string { return "mem" }

func (s *Mem) Journal(rec JournalRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Clone the raw payloads so a caller reusing its buffers cannot
	// mutate journaled history.
	rec.Request = slices.Clone(rec.Request)
	rec.Envelope = slices.Clone(rec.Envelope)
	s.records++
	if Terminal(rec.State) {
		delete(s.pending, rec.ID)
	} else {
		s.pending[rec.ID] = struct{}{}
	}
	s.bytes += recBytes(rec)
	if i, ok := s.at[rec.ID]; ok {
		s.bytes -= recBytes(s.recs[i])
		s.recs[i] = rec
		return nil
	}
	s.at[rec.ID] = len(s.recs)
	s.recs = append(s.recs, rec)
	return nil
}

// recBytes is the resident payload size of a journal record.
func recBytes(rec JournalRecord) int64 { return int64(len(rec.Request) + len(rec.Envelope)) }

func (s *Mem) Recover() ([]JournalRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append(make([]JournalRecord, 0, len(s.recs)), s.recs...), nil
}

func (s *Mem) PutBlob(key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.blobs[key]; ok {
		return nil // content-addressed: same key, same bytes
	}
	s.blobs[key] = slices.Clone(data)
	s.bytes += int64(len(data))
	return nil
}

func (s *Mem) GetBlob(key string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blobs[key]
	if !ok {
		return nil, false, nil
	}
	return slices.Clone(b), true, nil
}

func (s *Mem) Stats() (Stats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		JournalRecords: s.records,
		JournalDepth:   len(s.pending),
		Blobs:          len(s.blobs),
		Bytes:          s.bytes,
	}, nil
}

func (s *Mem) Close() error { return nil }
