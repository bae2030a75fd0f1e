package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"mdacache/internal/experiments"
)

// jobRecord is the durable form of a job: everything needed to answer status
// queries and — for a non-terminal job — to re-admit and resume it after a
// restart. The resolved RunSpecs (not the client's request) are persisted so
// the resumed sweep derives exactly the same checkpoint keys as the
// interrupted one.
type jobRecord struct {
	ID     string                `json:"id"`
	Key    string                `json:"key"` // dedup key over specs+budget
	State  State                 `json:"state"`
	Error  *APIError             `json:"error,omitempty"`
	Budget Budget                `json:"budget"`
	Specs  []experiments.RunSpec `json:"specs"`

	CreatedMS  int64 `json:"created_ms"`
	StartedMS  int64 `json:"started_ms,omitempty"`
	FinishedMS int64 `json:"finished_ms,omitempty"`

	// Lease: the node that owns the job, the instant its ownership lapses,
	// and the fencing epoch that is bumped on every claim. Absent only on
	// records never claimed since being written. See lease.go.
	NodeID       string `json:"node_id,omitempty"`
	LeaseUntilMS int64  `json:"lease_until_ms,omitempty"`
	Epoch        uint64 `json:"epoch,omitempty"`

	// Runs holds the final per-run outcomes once the job is terminal.
	Runs []experiments.SweepRun `json:"runs,omitempty"`
}

// store owns the on-disk layout under the state directory:
//
//	<dir>/jobs/<id>/job.json        — the jobRecord, atomically rewritten
//	<dir>/jobs/<id>/checkpoint.json — the sweep checkpoint (RunSweep owns it)
//	<dir>/jobs/<id>/events.jsonl    — append-only event log (best-effort)
//
// All job.json writes go through experiments.WriteFileAtomic with bounded
// retry: a transient write failure must not take down a job whose simulation
// state is fine.
type store struct {
	dir     string
	retries int
	backoff time.Duration

	// terminal holds the IDs of jobs a scan has seen terminal. A terminal
	// record never changes again (claimJob refuses it and every later write
	// is fenced), so a live-only scan never re-reads one.
	terminal sync.Map
}

func newStore(dir string) (*store, error) {
	s := &store{dir: dir, retries: 3, backoff: 50 * time.Millisecond}
	if err := os.MkdirAll(s.jobsDir(), 0o755); err != nil {
		return nil, fmt.Errorf("serve: state dir: %w", err)
	}
	return s, nil
}

func (s *store) jobsDir() string          { return filepath.Join(s.dir, "jobs") }
func (s *store) jobDir(id string) string  { return filepath.Join(s.jobsDir(), id) }
func (s *store) jobPath(id string) string { return filepath.Join(s.jobDir(id), "job.json") }

// checkpointPath is handed to SweepOptions.StatePath; the sweep layer owns
// the file's lifecycle and atomicity.
func (s *store) checkpointPath(id string) string {
	return filepath.Join(s.jobDir(id), "checkpoint.json")
}

func (s *store) eventsPath(id string) string {
	return filepath.Join(s.jobDir(id), "events.jsonl")
}

// saveJob persists rec atomically, retrying transient failures with
// exponential backoff.
func (s *store) saveJob(rec jobRecord) error {
	if err := os.MkdirAll(s.jobDir(rec.ID), 0o755); err != nil {
		return fmt.Errorf("serve: job dir: %w", err)
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return fmt.Errorf("serve: encode job %s: %w", rec.ID, err)
	}
	backoff := s.backoff
	for attempt := 0; ; attempt++ {
		err = experiments.WriteFileAtomic(s.jobPath(rec.ID), data)
		if err == nil || attempt >= s.retries {
			break
		}
		time.Sleep(backoff)
		backoff *= 2
	}
	if err != nil {
		return fmt.Errorf("serve: persist job %s: %w", rec.ID, err)
	}
	return nil
}

// loadJobs reads every persisted job, oldest first (so re-admission preserves
// submission order). A job directory with a corrupt or missing job.json is
// skipped with a note rather than failing the whole daemon: one damaged job
// must not hold the rest of the state dir hostage.
//
// liveOnly restricts the scan to non-terminal records, the ones a node may
// claim or dedup onto. Jobs already seen terminal are then not re-read, so an
// idle steal scan or a submit's dedup scan costs one directory listing plus
// the live records, however long the history.
func (s *store) loadJobs(liveOnly bool) (recs []jobRecord, skipped []string, err error) {
	entries, err := os.ReadDir(s.jobsDir())
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil, nil
		}
		return nil, nil, fmt.Errorf("serve: scan state dir: %w", err)
	}
	for _, e := range entries {
		id := e.Name()
		if _, known := s.terminal.Load(id); !e.IsDir() || liveOnly && known {
			continue
		}
		rec, rerr := s.loadJob(id)
		if rerr != nil {
			skipped = append(skipped, id)
			continue
		}
		if rec.State.Terminal() {
			s.terminal.Store(id, true)
			if liveOnly {
				continue
			}
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].CreatedMS != recs[j].CreatedMS {
			return recs[i].CreatedMS < recs[j].CreatedMS
		}
		return recs[i].ID < recs[j].ID
	})
	return recs, skipped, nil
}

// loadJob reads one job's durable record. A missing file surfaces as
// os.ErrNotExist; a record that is empty or names another job is corruption
// (saving it back would write outside its own directory).
func (s *store) loadJob(id string) (jobRecord, error) {
	var rec jobRecord
	path := s.jobPath(id)
	data, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("serve: decode %s: %w", path, err)
	}
	if rec.ID != id {
		return rec, fmt.Errorf("serve: %s: record has id %q", path, rec.ID)
	}
	return rec, nil
}

// loadEvents replays a job's persisted event log (for re-admission and
// steals: the new owner continues the sequence instead of restarting it).
// Torn or corrupt lines — a crash mid-append — are skipped.
func (s *store) loadEvents(id string) []JobEvent {
	data, err := os.ReadFile(s.eventsPath(id))
	if err != nil {
		return nil
	}
	var evs []JobEvent
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var ev JobEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			continue
		}
		evs = append(evs, ev)
	}
	return evs
}

// Membership registry: each fleet node heartbeats a small JSON file under
// <dir>/nodes/<id>.json naming its advertised address. Peers and clients use
// it to resolve a job's owning node to something dialable.

type nodeRecord struct {
	NodeID    string `json:"node_id"`
	Addr      string `json:"addr"`
	PID       int    `json:"pid"`
	UpdatedMS int64  `json:"updated_ms"`
}

func (s *store) nodesDir() string { return filepath.Join(s.dir, "nodes") }

func (s *store) saveNode(rec nodeRecord) error {
	if err := os.MkdirAll(s.nodesDir(), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return experiments.WriteFileAtomic(filepath.Join(s.nodesDir(), rec.NodeID+".json"), data)
}

// loadNodes reads every registered fleet node, sorted by ID.
func (s *store) loadNodes() []nodeRecord {
	entries, err := os.ReadDir(s.nodesDir())
	if err != nil {
		return nil
	}
	var recs []nodeRecord
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(s.nodesDir(), e.Name()))
		if err != nil {
			continue
		}
		var rec nodeRecord
		if json.Unmarshal(data, &rec) == nil && rec.NodeID != "" {
			recs = append(recs, rec)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].NodeID < recs[j].NodeID })
	return recs
}

// nodeAddr resolves a node ID to its advertised address ("" when unknown).
func (s *store) nodeAddr(id string) string {
	if id == "" {
		return ""
	}
	data, err := os.ReadFile(filepath.Join(s.nodesDir(), id+".json"))
	if err != nil {
		return ""
	}
	var rec nodeRecord
	if json.Unmarshal(data, &rec) != nil {
		return ""
	}
	return rec.Addr
}

// appendEvent appends one event to the job's NDJSON log. The log is
// observability (and the CI failure artifact), not state: append failures are
// reported to the caller for logging but never fail the job.
func (s *store) appendEvent(id string, ev JobEvent) error {
	f, err := os.OpenFile(s.eventsPath(id), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	return enc.Encode(ev)
}
