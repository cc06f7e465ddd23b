package runtime

import (
	"sync"
	"sync/atomic"

	"tmcheck/internal/core"
)

// DSTMSTM is an executable DSTM: per-variable ownership records with
// deferred update, eager write-write conflict resolution by stealing (the
// aggressive policy the model checker proves obstruction free), and
// commit-time read validation.
//
// Simplification relative to hardware DSTM: the validate-and-commit
// sequence runs under a global commit mutex rather than a multi-word CAS;
// this preserves the algorithm's conflict structure (what aborts whom and
// when) while keeping the code short. Writes remain fine grained; reads
// take the commit mutex too, so they never straddle a commit (see Read).
type DSTMSTM struct {
	commitMu sync.Mutex
	vars     []dstmVar
	rec      *Recorder
	nextID   atomic.Int64
}

type dstmVar struct {
	mu      sync.Mutex
	value   int     // last committed value
	owner   *dstmTx // current writer, or nil
	version int64   // bumped on every commit that writes the variable
}

// NewDSTMSTM returns a DSTM over k variables recording into rec.
func NewDSTMSTM(k int, rec *Recorder) *DSTMSTM {
	return &DSTMSTM{vars: make([]dstmVar, k), rec: rec}
}

// Name implements STM.
func (s *DSTMSTM) Name() string { return "dstm" }

// Begin implements STM.
func (s *DSTMSTM) Begin(t core.Thread) Tx {
	tx := &dstmTx{stm: s, t: t, id: s.nextID.Add(1), writes: map[core.Var]int{}}
	tx.reads = map[core.Var]int64{}
	return tx
}

type dstmTx struct {
	stm     *DSTMSTM
	t       core.Thread
	id      int64
	aborted atomic.Bool // set by lock thieves
	reads   map[core.Var]int64
	writes  map[core.Var]int
	owned   []core.Var
	dead    bool
}

func (tx *dstmTx) abortNow() error {
	if !tx.dead {
		tx.dead = true
		tx.releaseOwnership()
		tx.stm.rec.Record(core.St(core.Abort(), tx.t))
	}
	return ErrAborted
}

func (tx *dstmTx) releaseOwnership() {
	for _, v := range tx.owned {
		slot := &tx.stm.vars[v]
		slot.mu.Lock()
		if slot.owner == tx {
			slot.owner = nil
		}
		slot.mu.Unlock()
	}
	tx.owned = nil
}

// validateReads checks that every variable read so far still carries the
// version it was read at. DSTM performs this validation on every new open
// — that, not just commit-time validation, is what makes it opaque: a
// transaction never acts on an inconsistent snapshot.
func (tx *dstmTx) validateReads() bool {
	for v, ver := range tx.reads {
		slot := &tx.stm.vars[v]
		slot.mu.Lock()
		stale := slot.version != ver
		slot.mu.Unlock()
		if stale {
			return false
		}
	}
	return true
}

// Read implements Tx: own writes read the buffered value; global reads
// validate the read set (DSTM validates on every open), then snapshot the
// committed value and remember its version for commit-time validation.
// Reading a variable owned by another writer is allowed — DSTM readers are
// invisible and see the old committed value.
func (tx *dstmTx) Read(v core.Var) (int, error) {
	if tx.dead || tx.aborted.Load() {
		return 0, tx.abortNow()
	}
	checkVar(v, len(tx.stm.vars))
	// Validate, read and record under the commit mutex: a commit records
	// its statement before publishing its writes, so a read that could
	// interleave with that window would validate against the old versions
	// yet be recorded after the commit — a non-opaque history.
	tx.stm.commitMu.Lock()
	defer tx.stm.commitMu.Unlock()
	if !tx.validateReads() {
		return 0, tx.abortNow()
	}
	if val, ok := tx.writes[v]; ok {
		tx.stm.rec.Record(core.St(core.Read(v), tx.t))
		return val, nil
	}
	slot := &tx.stm.vars[v]
	slot.mu.Lock()
	val := slot.value
	ver := slot.version
	tx.stm.rec.Record(core.St(core.Read(v), tx.t))
	slot.mu.Unlock()
	if _, seen := tx.reads[v]; !seen {
		tx.reads[v] = ver
	}
	return val, nil
}

// Write implements Tx: acquire ownership of the variable, aggressively
// aborting the current owner, then buffer the value.
func (tx *dstmTx) Write(v core.Var, val int) error {
	if tx.dead || tx.aborted.Load() {
		return tx.abortNow()
	}
	checkVar(v, len(tx.stm.vars))
	if !tx.validateReads() {
		return tx.abortNow()
	}
	if _, own := tx.writes[v]; !own {
		slot := &tx.stm.vars[v]
		slot.mu.Lock()
		if slot.owner != nil && slot.owner != tx {
			// Aggressive contention management: steal, aborting the owner.
			slot.owner.aborted.Store(true)
		}
		slot.owner = tx
		slot.mu.Unlock()
		tx.owned = append(tx.owned, v)
	}
	tx.writes[v] = val
	tx.stm.rec.Record(core.St(core.Write(v), tx.t))
	return nil
}

// Commit implements Tx: validate the read set (versions unchanged, no
// variable we read is owned by an active writer we did not abort), then
// publish the write buffer.
func (tx *dstmTx) Commit() error {
	if tx.dead || tx.aborted.Load() {
		return tx.abortNow()
	}
	tx.stm.commitMu.Lock()
	if tx.aborted.Load() {
		tx.stm.commitMu.Unlock()
		return tx.abortNow()
	}
	// Validate: every read variable still has the version we read, and any
	// current owner of a read variable is aborted (DSTM's validate aborts
	// owners of the read set).
	for v, ver := range tx.reads {
		slot := &tx.stm.vars[v]
		slot.mu.Lock()
		stale := slot.version != ver
		if !stale && slot.owner != nil && slot.owner != tx {
			slot.owner.aborted.Store(true)
			slot.owner = nil
		}
		slot.mu.Unlock()
		if stale {
			tx.stm.commitMu.Unlock()
			return tx.abortNow()
		}
	}
	// Publish.
	tx.stm.rec.Record(core.St(core.Commit(), tx.t))
	for v, val := range tx.writes {
		slot := &tx.stm.vars[v]
		slot.mu.Lock()
		slot.value = val
		slot.version++
		if slot.owner == tx {
			slot.owner = nil
		}
		slot.mu.Unlock()
	}
	tx.owned = nil
	tx.dead = true
	tx.stm.commitMu.Unlock()
	return nil
}

// Abort implements Tx.
func (tx *dstmTx) Abort() {
	if !tx.dead {
		tx.abortNow() //nolint:errcheck // the error is the point
	}
}
