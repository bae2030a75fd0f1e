package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"mdacache/internal/experiments"
)

// Lease protocol. Every durable job carries three fencing fields in its
// job.json: the owning node, the wall-clock instant the ownership expires,
// and a monotonically increasing epoch. A node may write a job's state —
// job.json or the sweep checkpoint — only while the on-disk epoch equals the
// epoch it claimed under; any peer may claim (steal) a job whose lease has
// expired, bumping the epoch, which permanently fences the old owner out.
//
// Mutual exclusion between *live* processes comes from an exclusive flock on
// the job's claim.lock: every read-modify-write of the lease fields happens
// under it, so two nodes racing for an expired lease serialize and exactly
// one wins the epoch bump. flock is released by the kernel when the holder
// dies — a `kill -9` mid-claim cannot wedge the job — while the time-based
// lease covers the case the flock cannot: a node that is alive but stalled
// past its lease loses the CAS on epoch, not on the lock.
//
// The protocol keeps resumed results bit-identical: the thief resumes from
// the victim's last *fenced* checkpoint flush, and every flush the victim
// attempts after the steal is rejected before it touches the file, so the
// checkpoint only ever contains whole runs recorded by the current epoch
// holder. Runs themselves are deterministic per spec, so which node
// simulated each one cannot show up in the results.

// errLeaseHeld reports a claim attempt on a job whose lease is live and held
// by another node. Not an infrastructure failure — the claimant just loses.
var errLeaseHeld = errors.New("serve: lease held by another node")

// errFenced reports that this node's lease epoch is stale: the job was
// stolen. Any pending local state for the job must be abandoned.
var errFenced = errors.New("serve: lease fenced (job stolen by another node)")

// errJobTerminal reports a claim attempt on a job that already finished.
var errJobTerminal = errors.New("serve: job is terminal")

// expired reports whether the record's lease has lapsed (or was never held /
// was explicitly released by a draining owner).
func (rec *jobRecord) leaseExpired(now time.Time) bool {
	return rec.NodeID == "" || rec.LeaseUntilMS <= now.UnixMilli()
}

// withJobLock runs fn while holding the job's exclusive claim lock. The lock
// file lives beside job.json; the kernel drops the flock if the holder dies.
func (s *store) withJobLock(id string, fn func() error) error {
	if err := os.MkdirAll(s.jobDir(id), 0o755); err != nil {
		return fmt.Errorf("serve: job dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(s.jobDir(id), "claim.lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("serve: claim lock: %w", err)
	}
	defer f.Close()
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		return fmt.Errorf("serve: claim lock: %w", err)
	}
	defer syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
	return fn()
}

// claimJob takes ownership of the job for node: it succeeds when the job is
// unowned, its lease has expired, or node already owns it (a restart under
// the same identity). Every successful claim bumps the epoch, fencing any
// straggler that held the previous one. Returns the claimed record.
func (s *store) claimJob(id, node string, lease time.Duration) (jobRecord, error) {
	var rec jobRecord
	err := s.withJobLock(id, func() error {
		var err error
		rec, err = s.loadJob(id)
		if err != nil {
			return err
		}
		now := time.Now()
		switch {
		case rec.State.Terminal():
			return errJobTerminal
		case rec.NodeID != node && !rec.leaseExpired(now):
			return errLeaseHeld
		}
		rec.NodeID = node
		rec.Epoch++
		rec.LeaseUntilMS = now.Add(lease).UnixMilli()
		return s.saveJob(rec)
	})
	return rec, err
}

// renewJob extends node's lease on the job without changing the epoch. It
// fails with errFenced if the on-disk epoch moved past epoch (the job was
// stolen) — the caller must abandon the job.
func (s *store) renewJob(id, node string, epoch uint64, lease time.Duration) error {
	return s.withJobLock(id, func() error {
		rec, err := s.loadJob(id)
		if err != nil {
			return err
		}
		if rec.NodeID != node || rec.Epoch != epoch {
			return errFenced
		}
		if rec.State.Terminal() {
			return nil // nothing left to protect
		}
		rec.LeaseUntilMS = time.Now().Add(lease).UnixMilli()
		return s.saveJob(rec)
	})
}

// saveJobFenced writes rec only while rec.Epoch still matches the on-disk
// epoch; a stale owner gets errFenced and the file is untouched.
func (s *store) saveJobFenced(rec jobRecord) error {
	return s.withJobLock(rec.ID, func() error {
		disk, err := s.loadJob(rec.ID)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		if err == nil && (disk.Epoch != rec.Epoch || disk.NodeID != rec.NodeID) {
			return errFenced
		}
		return s.saveJob(rec)
	})
}

// writeJobFileFenced writes data to path (a file inside the job's directory,
// in practice the sweep checkpoint) iff node still holds epoch. The check and
// the write happen under the claim lock, so a steal cannot interleave between
// them: either the old owner's bytes land before the epoch bump (and the
// thief resumes from them) or they are refused. A refusal wraps
// experiments.ErrStateConflict so the sweep layer aborts instead of retrying.
func (s *store) writeJobFileFenced(id, node string, epoch uint64, path string, data []byte) error {
	return s.withJobLock(id, func() error {
		disk, err := s.loadJob(id)
		if err != nil {
			return err
		}
		if disk.NodeID != node || disk.Epoch != epoch {
			return fmt.Errorf("serve: job %s checkpoint write by %s@%d, disk at %s@%d: %w",
				id, node, epoch, disk.NodeID, disk.Epoch, experiments.ErrStateConflict)
		}
		return experiments.WriteFileAtomic(path, data)
	})
}

// saveJobKeepLease is the fenced write path for state updates that must not
// disturb the lease clock: it verifies node+epoch under the claim lock, then
// writes rec with the on-disk LeaseUntilMS (the renewal loop's latest
// extension) carried over. The first write of a brand-new record (no file
// yet) starts a fresh lease instead.
func (s *store) saveJobKeepLease(rec jobRecord, lease time.Duration) error {
	return s.withJobLock(rec.ID, func() error {
		disk, err := s.loadJob(rec.ID)
		if errors.Is(err, os.ErrNotExist) {
			rec.LeaseUntilMS = time.Now().Add(lease).UnixMilli()
			return s.saveJob(rec)
		}
		if err != nil {
			return err
		}
		if disk.NodeID != rec.NodeID || disk.Epoch != rec.Epoch {
			return errFenced
		}
		rec.LeaseUntilMS = disk.LeaseUntilMS
		return s.saveJob(rec)
	})
}

// releaseLease marks rec's lease as immediately stealable (a graceful drain
// handing its parked jobs to the fleet) while keeping node/epoch provenance.
// Fenced like every other post-claim write.
func (s *store) releaseLease(rec jobRecord) error {
	rec.LeaseUntilMS = 0
	return s.saveJobFenced(rec)
}
