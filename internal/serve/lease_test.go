package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"testing"
	"time"

	"mdacache/internal/experiments"
)

// leaseStore builds a store with one claimable queued job on disk.
func leaseStore(t *testing.T) (*store, string) {
	t.Helper()
	st, err := newStore(t.TempDir())
	if err != nil {
		t.Fatalf("newStore: %v", err)
	}
	rec := jobRecord{ID: "j1", Key: "k1", State: StateQueued, CreatedMS: 1}
	if err := st.saveJob(rec); err != nil {
		t.Fatalf("saveJob: %v", err)
	}
	return st, rec.ID
}

// expireLease force-lapses the job's lease on disk (a stand-in for waiting
// out the wall clock).
func expireLease(t *testing.T, st *store, id string) {
	t.Helper()
	err := st.withJobLock(id, func() error {
		rec, err := st.loadJob(id)
		if err != nil {
			return err
		}
		rec.LeaseUntilMS = 1
		return st.saveJob(rec)
	})
	if err != nil {
		t.Fatalf("expire lease: %v", err)
	}
}

// TestLeaseClaimProtocol pins the claim state machine: first claim, held
// lease, same-node re-claim, expired-lease steal, terminal job.
func TestLeaseClaimProtocol(t *testing.T) {
	st, id := leaseStore(t)

	rec, err := st.claimJob(id, "a", time.Hour)
	if err != nil || rec.NodeID != "a" || rec.Epoch != 1 {
		t.Fatalf("first claim: %+v, %v", rec, err)
	}
	if _, err := st.claimJob(id, "b", time.Hour); !errors.Is(err, errLeaseHeld) {
		t.Fatalf("claim on live lease: %v, want errLeaseHeld", err)
	}
	// A restart under the same identity re-claims its own live lease and
	// bumps the epoch, fencing the previous incarnation's writes.
	rec, err = st.claimJob(id, "a", time.Hour)
	if err != nil || rec.Epoch != 2 {
		t.Fatalf("same-node re-claim: %+v, %v", rec, err)
	}

	expireLease(t, st, id)
	rec, err = st.claimJob(id, "b", time.Hour)
	if err != nil || rec.NodeID != "b" || rec.Epoch != 3 {
		t.Fatalf("steal of expired lease: %+v, %v", rec, err)
	}

	rec.State = StateDone
	if err := st.saveJob(rec); err != nil {
		t.Fatalf("saveJob: %v", err)
	}
	if _, err := st.claimJob(id, "c", time.Hour); !errors.Is(err, errJobTerminal) {
		t.Fatalf("claim on terminal job: %v, want errJobTerminal", err)
	}
}

// TestLeaseFencesLateWrites is the table-driven half of the steal guarantee:
// after a peer claims the job, every write path the expired owner can attempt
// — renewal, job.json updates, the sweep checkpoint, lease release — must be
// rejected by the epoch check, leaving the thief's state untouched.
func TestLeaseFencesLateWrites(t *testing.T) {
	cases := []struct {
		name string
		op   func(t *testing.T, st *store, id string, stale jobRecord) error
	}{
		{"renew", func(t *testing.T, st *store, id string, stale jobRecord) error {
			return st.renewJob(id, stale.NodeID, stale.Epoch, time.Hour)
		}},
		{"save job record", func(t *testing.T, st *store, id string, stale jobRecord) error {
			stale.State = StateRunning
			return st.saveJobFenced(stale)
		}},
		{"save keeping lease", func(t *testing.T, st *store, id string, stale jobRecord) error {
			stale.State = StateDone
			stale.FinishedMS = 42
			return st.saveJobKeepLease(stale, time.Hour)
		}},
		{"release lease", func(t *testing.T, st *store, id string, stale jobRecord) error {
			return st.releaseLease(stale)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st, id := leaseStore(t)
			stale, err := st.claimJob(id, "a", time.Hour)
			if err != nil {
				t.Fatalf("claim: %v", err)
			}
			expireLease(t, st, id)
			if _, err := st.claimJob(id, "b", time.Hour); err != nil {
				t.Fatalf("steal: %v", err)
			}

			if err := c.op(t, st, id, stale); !errors.Is(err, errFenced) {
				t.Fatalf("late %s by expired owner: %v, want errFenced", c.name, err)
			}
			disk, err := st.loadJob(id)
			if err != nil {
				t.Fatalf("loadJob: %v", err)
			}
			if disk.NodeID != "b" || disk.Epoch != 2 || disk.State != StateQueued {
				t.Fatalf("thief's record disturbed by late %s: %+v", c.name, disk)
			}
		})
	}
}

// TestLeaseFencesLateCheckpoint: the expired owner's checkpoint flush is
// refused before it touches the file, and the refusal wraps
// experiments.ErrStateConflict so the sweep layer aborts instead of retrying.
func TestLeaseFencesLateCheckpoint(t *testing.T) {
	st, id := leaseStore(t)
	if _, err := st.claimJob(id, "a", time.Hour); err != nil {
		t.Fatalf("claim: %v", err)
	}
	expireLease(t, st, id)
	if _, err := st.claimJob(id, "b", time.Hour); err != nil {
		t.Fatalf("steal: %v", err)
	}

	path := st.checkpointPath(id)
	err := st.writeJobFileFenced(id, "a", 1, path, []byte(`{"stale":true}`))
	if !errors.Is(err, experiments.ErrStateConflict) {
		t.Fatalf("late checkpoint write: %v, want ErrStateConflict", err)
	}
	if _, serr := os.Stat(path); !errors.Is(serr, os.ErrNotExist) {
		t.Fatalf("fenced checkpoint write still landed bytes: %v", serr)
	}

	// The epoch holder's write goes through.
	if err := st.writeJobFileFenced(id, "b", 2, path, []byte(`{"ok":true}`)); err != nil {
		t.Fatalf("owner checkpoint write: %v", err)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != `{"ok":true}` {
		t.Fatalf("owner checkpoint content: %q, %v", data, err)
	}
}

// TestStealDuringFinalFlush drives the steal race through the server itself:
// a peer claims the job while its sweep is finishing, so the owner's terminal
// record is fenced off, the local job becomes stolen, and the disk never holds
// the loser's terminal record — exactly one terminal record can ever exist.
func TestStealDuringFinalFlush(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{})
	// The sweep is entered only after runJob has persisted the running
	// record (with a fresh lease), so once entered signals, no owner write
	// can land on job.json before the sweep returns.
	entered := make(chan struct{}, 1)
	sweep := blockingSweep(release)
	// Lease of an hour: the fleet loop ticks every Lease/3, so neither
	// renewal nor stealing interferes with the manually-staged race.
	s, ts := testServer(t, Options{
		StateDir: dir, NodeID: "a", Advertise: "http://a", Lease: time.Hour,
		runSweep: func(ctx context.Context, specs []experiments.RunSpec, opt experiments.SweepOptions) ([]experiments.SweepRun, error) {
			select {
			case entered <- struct{}{}:
			default:
			}
			return sweep(ctx, specs, opt)
		},
	})

	var resp SubmitResponse
	doJSON(t, "POST", ts.URL+"/jobs", SubmitRequest{Specs: []SpecRequest{smallSpec(16, 0)}}, &resp)
	select {
	case <-entered:
	case <-time.After(60 * time.Second):
		t.Fatal("sweep not entered within 60s")
	}

	// The steal lands while the sweep is still in flight: epoch moves 1 -> 2.
	st2, err := newStore(dir)
	if err != nil {
		t.Fatalf("newStore: %v", err)
	}
	expireLease(t, st2, resp.ID)
	stolen, err := st2.claimJob(resp.ID, "b", time.Hour)
	if err != nil || stolen.Epoch != 2 {
		t.Fatalf("steal: %+v, %v", stolen, err)
	}

	// Now the sweep completes; finishJob's fenced terminal write must be
	// refused and the job withdrawn as stolen.
	close(release)
	waitFor(t, func() bool {
		st, ok := s.Status(resp.ID, false)
		return ok && st.State == StateStolen
	})

	st, _ := s.Status(resp.ID, false)
	if st.Node != "b" {
		t.Fatalf("stolen status names node %q, want the thief b", st.Node)
	}
	disk, err := st2.loadJob(resp.ID)
	if err != nil {
		t.Fatalf("loadJob: %v", err)
	}
	if disk.State.Terminal() || disk.NodeID != "b" || disk.Epoch != 2 {
		t.Fatalf("loser's terminal record reached disk: %+v", disk)
	}

	// The loser refuses to serve what it no longer owns: cancel and events
	// answer 409/not_owner pointing at the thief.
	var aerr APIError
	if code := doJSON(t, "DELETE", ts.URL+"/jobs/"+resp.ID, nil, &aerr); code != http.StatusConflict || aerr.Code != CodeNotOwner {
		t.Fatalf("cancel of stolen job: HTTP %d code %q, want 409 not_owner", code, aerr.Code)
	}
	if aerr.Node != "b" {
		t.Fatalf("not_owner names %q, want b", aerr.Node)
	}
}

// TestFleetReadmitSkipsHeldLeases: a restarting node must not re-admit jobs a
// live peer owns, but must pick up expired ones (bumping the epoch).
func TestFleetReadmitSkipsHeldLeases(t *testing.T) {
	dir := t.TempDir()
	st, err := newStore(dir)
	if err != nil {
		t.Fatalf("newStore: %v", err)
	}
	held := jobRecord{ID: "held", Key: "kh", State: StateQueued, CreatedMS: 1,
		NodeID: "peer", Epoch: 3, LeaseUntilMS: time.Now().Add(time.Hour).UnixMilli()}
	expired := jobRecord{ID: "expired", Key: "ke", State: StateCheckpointed, CreatedMS: 2,
		NodeID: "peer", Epoch: 5, LeaseUntilMS: 1,
		Specs: []experiments.RunSpec{mustSpec(t, smallSpec(16, 0))}}
	for _, rec := range []jobRecord{held, expired} {
		if err := st.saveJob(rec); err != nil {
			t.Fatalf("saveJob: %v", err)
		}
	}

	s, ts := testServer(t, Options{StateDir: dir, NodeID: "a", Advertise: "http://a", Lease: time.Hour})
	if _, ok := s.Job("held"); ok {
		t.Fatal("re-admitted a job whose lease a live peer holds")
	}
	j, ok := s.Job("expired")
	if !ok {
		t.Fatal("expired-lease job not re-admitted")
	}
	j.mu.Lock()
	node, epoch := j.node, j.epoch
	j.mu.Unlock()
	if node != "a" || epoch != 6 {
		t.Fatalf("re-admitted job claimed as %s@%d, want a@6", node, epoch)
	}

	// The held job is still visible through the fleet store — any node
	// answers status for any job.
	var held2 JobStatus
	if code := doJSON(t, "GET", ts.URL+"/jobs/held", nil, &held2); code != http.StatusOK {
		t.Fatalf("status of peer-held job: HTTP %d", code)
	}
	if held2.Node != "peer" || held2.State != StateQueued {
		t.Fatalf("peer-held status: %+v", held2)
	}
	if st := waitDone(t, ts, "expired"); st.State != StateDone {
		t.Fatalf("re-admitted job: %s (err %v)", st.State, st.Error)
	}
}

func mustSpec(t *testing.T, sr SpecRequest) experiments.RunSpec {
	t.Helper()
	sp, err := sr.Spec()
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	sp.Timeout = 30 * time.Minute
	return sp
}

// TestLeaseRestartSameIdentity: a durable server with no NodeID runs under
// DefaultNodeID, so a second incarnation started on the same state dir while
// the first is still alive re-claims the first's jobs at once (same-node
// rule, epoch 1 -> 2). The first incarnation's late terminal write is then
// fenced: it reports the job stolen, and the disk ends up with exactly one
// terminal record — the second's, with the results of a fresh run.
func TestLeaseRestartSameIdentity(t *testing.T) {
	dir := t.TempDir()
	spec := mustSpec(t, smallSpec(16, 0))
	golden, err := experiments.RunSweep(context.Background(), []experiments.RunSpec{spec}, experiments.SweepOptions{Workers: 1})
	if err != nil {
		t.Fatalf("golden sweep: %v", err)
	}

	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	sweep := blockingSweep(release)
	s1, ts1 := testServer(t, Options{
		StateDir: dir, Lease: time.Hour, CacheSpecs: -1,
		runSweep: func(ctx context.Context, specs []experiments.RunSpec, opt experiments.SweepOptions) ([]experiments.SweepRun, error) {
			select {
			case entered <- struct{}{}:
			default:
			}
			return sweep(ctx, specs, opt)
		},
	})
	var resp SubmitResponse
	doJSON(t, "POST", ts1.URL+"/jobs", SubmitRequest{Specs: []SpecRequest{smallSpec(16, 0)}}, &resp)
	select {
	case <-entered:
	case <-time.After(60 * time.Second):
		t.Fatal("sweep not entered within 60s")
	}

	s2, ts2 := testServer(t, Options{StateDir: dir, Lease: time.Hour, CacheSpecs: -1})
	j, ok := s2.Job(resp.ID)
	if !ok {
		t.Fatalf("job %s not re-admitted by the second incarnation", resp.ID)
	}
	j.mu.Lock()
	node, epoch := j.node, j.epoch
	j.mu.Unlock()
	if node != DefaultNodeID || epoch != 2 {
		t.Fatalf("re-admitted job claimed as %s@%d, want %s@2", node, epoch, DefaultNodeID)
	}

	close(release)
	waitFor(t, func() bool {
		st, ok := s1.Status(resp.ID, false)
		return ok && st.State == StateStolen
	})
	st := waitDone(t, ts2, resp.ID)
	if st.State != StateDone {
		t.Fatalf("second incarnation: %s (err %v), want done", st.State, st.Error)
	}
	if err := experiments.DiffRunResults(golden, st.Runs); err != nil {
		t.Fatalf("results differ from a fresh run: %v", err)
	}

	disk, err := s2.store.loadJob(resp.ID)
	if err != nil {
		t.Fatalf("loadJob: %v", err)
	}
	if disk.State != StateDone || disk.NodeID != DefaultNodeID || disk.Epoch != 2 {
		t.Fatalf("terminal record: state %s by %s@%d, want done by %s@2", disk.State, disk.NodeID, disk.Epoch, DefaultNodeID)
	}
	if err := experiments.DiffRunResults(golden, disk.Runs); err != nil {
		t.Fatalf("on-disk results differ from a fresh run: %v", err)
	}
	terminal := 0
	for _, ev := range s2.store.loadEvents(resp.ID) {
		if ev.Type == "state" && ev.State.Terminal() {
			terminal++
		}
	}
	if terminal != 1 {
		t.Fatalf("event log holds %d terminal state events, want exactly 1", terminal)
	}
}

// TestLeaseScanSkipsTerminal pins the live-record scan behind stealing and
// on-disk dedup: it returns exactly the non-terminal records (a peer-held
// one included — the caller decides on its lease), reports a corrupt record
// as skipped, and never re-reads a record it has seen terminal.
func TestLeaseScanSkipsTerminal(t *testing.T) {
	held := time.Now().Add(time.Hour).UnixMilli()
	cases := []struct {
		id   string
		rec  jobRecord // written as job.json unless raw is set
		raw  string
		live bool
	}{
		{id: "done", rec: jobRecord{State: StateDone, NodeID: DefaultNodeID, Epoch: 1}},
		{id: "failed", rec: jobRecord{State: StateFailed, NodeID: DefaultNodeID, Epoch: 2}},
		{id: "cancelled", rec: jobRecord{State: StateCancelled}},
		{id: "queued", rec: jobRecord{State: StateQueued}, live: true},
		{id: "checkpointed", rec: jobRecord{State: StateCheckpointed, NodeID: DefaultNodeID, Epoch: 3}, live: true},
		{id: "peer-held", rec: jobRecord{State: StateRunning, NodeID: "peer", Epoch: 4, LeaseUntilMS: held}, live: true},
		{id: "corrupt", raw: `{"id":"corrupt","state":`},
	}
	st, err := newStore(t.TempDir())
	if err != nil {
		t.Fatalf("newStore: %v", err)
	}
	var want []string
	for i, c := range cases {
		if c.raw != "" {
			if err := os.MkdirAll(st.jobDir(c.id), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(st.jobPath(c.id), []byte(c.raw), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		c.rec.ID, c.rec.Key, c.rec.CreatedMS = c.id, "k-"+c.id, int64(i+1)
		if err := st.saveJob(c.rec); err != nil {
			t.Fatalf("saveJob %s: %v", c.id, err)
		}
		if c.live {
			want = append(want, c.id)
		}
	}

	scan := func() error {
		recs, skipped, err := st.loadJobs(true)
		if err != nil {
			return err
		}
		var got []string
		for _, rec := range recs {
			got = append(got, rec.ID)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(skipped) != "[corrupt]" {
			return fmt.Errorf("live scan returned %v and skipped %v, want %v and [corrupt]", got, skipped, want)
		}
		return nil
	}
	// The steal loop and submits scan concurrently; the first scans also
	// record which jobs are terminal.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := scan(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	// A terminal record never changes again, so the scan does not re-read
	// one it has seen: garbage over it is neither returned nor skipped.
	if err := os.WriteFile(st.jobPath("done"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := scan(); err != nil {
		t.Fatalf("after overwriting a known-terminal record: %v", err)
	}
}

// FuzzJobRecord: every durable node scans and claims whatever job.json it
// finds, so arbitrary bytes there must never panic the live scan or
// claimJob. A record that decodes as non-terminal is live, is claimable by
// its owner (or by anyone when unowned), then fences out a peer, and
// survives a saveJob/loadJob round trip unchanged. Seeds, among them
// testdata/parent_job.json's bytes, live in testdata/fuzz/FuzzJobRecord.
func FuzzJobRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := newStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		// The job directory is named after the parent-format fixture's id,
		// so that seed decodes as a record of this job.
		const id = "old"
		if err := os.MkdirAll(st.jobDir(id), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(st.jobPath(id), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, lerr := st.loadJob(id)
		live := lerr == nil && !rec.State.Terminal()

		recs, skipped, err := st.loadJobs(true)
		if err != nil {
			t.Fatalf("live scan: %v", err)
		}
		if live != (len(recs) == 1) || (lerr != nil) != (len(skipped) == 1) {
			t.Fatalf("live scan: %d records, skipped %v; load err %v, state %q", len(recs), skipped, lerr, rec.State)
		}

		owner := rec.NodeID
		if owner == "" {
			owner = DefaultNodeID
		}
		claimed, cerr := st.claimJob(id, owner, time.Hour)
		switch {
		case lerr != nil:
			if cerr == nil {
				t.Fatalf("claimed an unreadable record (%v)", lerr)
			}
			return
		case !live:
			if !errors.Is(cerr, errJobTerminal) {
				t.Fatalf("claim of a %s record: %v, want errJobTerminal", rec.State, cerr)
			}
			return
		case cerr != nil:
			t.Fatalf("claim of a live %q record by %q: %v", rec.State, owner, cerr)
		}
		if claimed.NodeID != owner || claimed.Epoch != rec.Epoch+1 {
			t.Fatalf("claimed as %s@%d from %s@%d", claimed.NodeID, claimed.Epoch, rec.NodeID, rec.Epoch)
		}
		if _, err := st.claimJob(id, owner+"-peer", time.Hour); !errors.Is(err, errLeaseHeld) {
			t.Fatalf("peer claim of a freshly claimed record: %v, want errLeaseHeld", err)
		}

		want, err := json.Marshal(claimed)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.saveJob(claimed); err != nil {
			t.Fatalf("saveJob: %v", err)
		}
		back, err := st.loadJob(id)
		if err != nil {
			t.Fatalf("loadJob after saveJob: %v", err)
		}
		if got, _ := json.Marshal(back); !bytes.Equal(got, want) {
			t.Fatalf("record changed across saveJob/loadJob:\n got %s\nwant %s", got, want)
		}
	})
}

// specFields prints every field of a RunSpec; %+v of a RunSpec itself
// prints only its String().
type specFields experiments.RunSpec

// FuzzSubmitRequest: POST /jobs bodies are arbitrary bytes. Decoding and
// validating one must never panic; every spec it accepts must build a
// machine config (so it cannot fail later as a run); an accepted spec
// survives a JSON round trip as the same RunSpec, every field and so its
// SpecKey included; and an accepted budget stays within the server maxima.
// Seeds, one per TestValidation row plus a valid two-spec request and a
// scale whose square overflows, live in testdata/fuzz/FuzzSubmitRequest.
func FuzzSubmitRequest(f *testing.F) {
	servers := []*Server{
		{opt: Options{}.withDefaults()},
		{opt: Options{MaxMaxCycles: 1e6, MaxRunTimeout: time.Minute}.withDefaults()},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeSubmit(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, sr := range req.Specs {
			spec, err := sr.Spec()
			if err != nil {
				continue
			}
			if _, err := spec.Config(); err != nil {
				t.Fatalf("spec %d %+v accepted but Config fails: %v", i, sr, err)
			}
			raw, err := json.Marshal(sr)
			if err != nil {
				t.Fatalf("spec %d: marshal: %v", i, err)
			}
			var back SpecRequest
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatalf("spec %d: unmarshal %s: %v", i, raw, err)
			}
			again, err := back.Spec()
			if err != nil {
				t.Fatalf("spec %d: round trip %s rejected: %v", i, raw, err)
			}
			if again != spec {
				t.Fatalf("spec %d: round trip %s changed the spec:\n %+v\n %+v", i, raw, specFields(spec), specFields(again))
			}
		}
		for _, s := range servers {
			b, aerr := s.resolveBudget(req)
			if aerr != nil {
				continue
			}
			if b.RunTimeoutMS < 0 || b.DeadlineMS < 0 {
				t.Fatalf("negative budget accepted: %+v", b)
			}
			if max := s.opt.MaxMaxCycles; max > 0 && (b.MaxCycles == 0 || b.MaxCycles > max) {
				t.Fatalf("max_cycles %d exceeds the maximum %d", b.MaxCycles, max)
			}
			if max := s.opt.MaxRunTimeout.Milliseconds(); max > 0 && (b.RunTimeoutMS == 0 || b.RunTimeoutMS > max) {
				t.Fatalf("run_timeout_ms %d exceeds the maximum %d", b.RunTimeoutMS, max)
			}
		}
	})
}
