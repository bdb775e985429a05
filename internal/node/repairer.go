package node

import (
	"bytes"
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"peerstripe/internal/core"
	"peerstripe/internal/erasure"
	"peerstripe/internal/ids"
	"peerstripe/internal/wire"
)

// Autonomous repair daemon: when the failure detector commits a death,
// every node holding a CAT replica of an affected file enqueues that
// file into a rate-limited, priority-ordered background queue and
// re-mints the lost blocks on the survivors through the live client
// path (Client.RepairCtx) — the §4.4 recovery flow with no operator in
// the loop. Repair is idempotent (scan, decode, store only what is
// missing), so the small duplication among a file's replica holders
// buys convergence without any coordination.

// DefaultRepairRate caps regenerated bytes per second when
// RepairConfig.Rate is zero.
const DefaultRepairRate = 32 << 20

// RepairConfig tunes the autonomous repair daemon.
type RepairConfig struct {
	// Code is the erasure code the ring's files are stored with;
	// required — repair decodes survivors and re-encodes with it.
	Code erasure.Code
	// Rate caps regenerated bytes per second (default DefaultRepairRate,
	// negative = unlimited), keeping repair traffic from starving the
	// foreground data path.
	Rate int64
	// MaxAttempts bounds repair attempts per queued file before it is
	// reported failed (default 5). A file re-damaged by a later death
	// re-enters the queue with a fresh budget.
	MaxAttempts int
	// RetryDelay spaces attempts on the same file (default 500ms),
	// giving a still-settling membership view time to converge.
	RetryDelay time.Duration
	// Client tunes the embedded repair client (zero value = defaults).
	Client Config
}

func (c RepairConfig) withDefaults() RepairConfig {
	if c.Rate == 0 {
		c.Rate = DefaultRepairRate
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.RetryDelay <= 0 {
		c.RetryDelay = 500 * time.Millisecond
	}
	return c
}

// RepairReport is the daemon's cumulative accounting — the live
// counterpart of the simulator's churn bookkeeping.
type RepairReport struct {
	// DeathsObserved counts committed deaths this node processed.
	DeathsObserved int
	// FilesQueued counts file enqueues (re-damage re-enqueues count).
	FilesQueued int
	// FilesRepaired counts repair passes that completed cleanly.
	FilesRepaired int
	// FilesFailed counts files given up on after MaxAttempts.
	FilesFailed int
	// BlocksRecreated counts blocks re-encoded and re-placed.
	BlocksRecreated int
	// BytesRecreated counts the bytes of those blocks.
	BytesRecreated int64
	// CATReplicasRecreated counts restored CAT copies.
	CATReplicasRecreated int
	// ChunksLost counts chunks found below the code's decode threshold
	// — data the code tolerance could not save.
	ChunksLost int
}

// repairJob is one queued file.
type repairJob struct {
	file string
	// priority is the lost-block count of the file's worst chunk under
	// the pre-death placement: the most degraded files repair first,
	// because they are the ones a further failure would destroy.
	priority  int
	attempts  int
	notBefore time.Time
	catData   []byte // local CAT replica bytes, to re-seed a lost CAT
}

const (
	repairQueued  = 1
	repairRunning = 2
)

type repairer struct {
	s      *Server
	cfg    RepairConfig
	cli    *Client
	ctx    context.Context
	cancel context.CancelFunc
	wake   chan struct{}

	mu     sync.Mutex
	queue  []repairJob
	state  map[string]int // file → repairQueued / repairRunning
	again  map[string]int // re-damaged while running: file → priority
	report RepairReport
}

func newRepairer(s *Server, cfg RepairConfig) (*repairer, error) {
	if cfg.Code == nil {
		return nil, errors.New("node: repair: erasure code required")
	}
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	r := &repairer{
		s:      s,
		cfg:    cfg,
		cli:    NewStaticClientCfg(nil, cfg.Code, cfg.Client),
		ctx:    ctx,
		cancel: cancel,
		wake:   make(chan struct{}, 1),
		state:  make(map[string]int),
		again:  make(map[string]int),
	}
	s.wg.Add(1)
	go r.loop()
	r.registerMetrics(s)
	return r, nil
}

// registerMetrics mirrors the daemon's cumulative report and queue
// depth into the node's registry as func-backed metrics, read under
// the repairer lock at snapshot time.
func (r *repairer) registerMetrics(s *Server) {
	s.reg.GaugeFunc("ps_repair_queue_depth", "Files queued for or undergoing repair.", func() int64 {
		return int64(r.queueDepth())
	})
	counter := func(name, help string, read func(RepairReport) int64) {
		s.reg.CounterFunc(name, help, func() int64 { return read(r.reportSnapshot()) })
	}
	counter("ps_repair_deaths_observed_total", "Committed deaths the daemon processed.",
		func(rep RepairReport) int64 { return int64(rep.DeathsObserved) })
	counter("ps_repair_files_queued_total", "File enqueues (re-damage re-enqueues count).",
		func(rep RepairReport) int64 { return int64(rep.FilesQueued) })
	counter("ps_repair_files_repaired_total", "Repair passes that completed cleanly.",
		func(rep RepairReport) int64 { return int64(rep.FilesRepaired) })
	counter("ps_repair_files_failed_total", "Files given up on after MaxAttempts.",
		func(rep RepairReport) int64 { return int64(rep.FilesFailed) })
	counter("ps_repair_blocks_recreated_total", "Blocks re-encoded and re-placed.",
		func(rep RepairReport) int64 { return int64(rep.BlocksRecreated) })
	counter("ps_repair_bytes_recreated_total", "Bytes of re-minted blocks.",
		func(rep RepairReport) int64 { return rep.BytesRecreated })
	counter("ps_repair_cat_replicas_recreated_total", "Restored CAT copies.",
		func(rep RepairReport) int64 { return int64(rep.CATReplicasRecreated) })
	counter("ps_repair_chunks_lost_total", "Chunks below the decode threshold — unrecoverable.",
		func(rep RepairReport) int64 { return int64(rep.ChunksLost) })
}

// closeClient stops in-flight repair RPCs and releases the embedded
// client's connections; called from Server.Close after stop is closed.
func (r *repairer) closeClient() {
	r.cancel()
	r.cli.Close()
}

// noteDeath scans this node's CAT replicas for files the dead member
// held blocks of (under the pre-death placement view) and enqueues
// them, most degraded first.
func (r *repairer) noteDeath(d *deathEvent) {
	s := r.s
	s.mu.Lock()
	cats := make(map[string][]byte)
	for name, b := range s.blocks {
		if file, _, ok := core.IsCATName(name); ok && len(b.data) > 0 {
			if _, seen := cats[file]; !seen {
				// A copy: the block's frame may go back to the pools
				// once the lock is let go.
				cats[file] = bytes.Clone(b.data)
			}
		}
	}
	s.mu.Unlock()

	r.mu.Lock()
	r.report.DeathsObserved++
	r.mu.Unlock()

	m := r.cfg.Code.EncodedBlocks()
	for file, data := range cats {
		cat, err := core.UnmarshalCAT(file, data)
		if err != nil {
			continue // a corrupt local replica; another holder will act
		}
		prio := 0
		for ci, row := range cat.Rows {
			if row.Empty() {
				continue
			}
			lost := 0
			for e := 0; e < m; e++ {
				owner, err := OwnerOf(d.prevRing, ids.FromName(core.BlockName(file, ci, e)))
				if err == nil && owner.ID == d.node.ID {
					lost++
				}
			}
			if lost > prio {
				prio = lost
			}
		}
		if prio == 0 {
			// No data block lost; a lost CAT replica alone still
			// degrades metadata redundancy.
			for rep := 0; rep <= CATReplicas; rep++ {
				owner, err := OwnerOf(d.prevRing, ids.FromName(core.ReplicaName(core.CATName(file), rep)))
				if err == nil && owner.ID == d.node.ID {
					prio = 1
					break
				}
			}
		}
		if prio == 0 {
			continue // this death did not touch the file
		}
		r.enqueue(file, prio, data)
	}
}

// enqueue adds (or re-prioritizes) one file in the repair queue.
func (r *repairer) enqueue(file string, prio int, catData []byte) {
	r.mu.Lock()
	switch r.state[file] {
	case repairRunning:
		// Re-damaged mid-repair: remember, re-run when the pass ends.
		if prio > r.again[file] {
			r.again[file] = prio
		}
	case repairQueued:
		for i := range r.queue {
			if r.queue[i].file == file {
				if prio > r.queue[i].priority {
					r.queue[i].priority = prio
					r.sortLocked()
				}
				break
			}
		}
	default:
		r.state[file] = repairQueued
		r.queue = append(r.queue, repairJob{file: file, priority: prio, catData: catData})
		r.report.FilesQueued++
		r.sortLocked()
	}
	r.mu.Unlock()
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// sortLocked keeps the queue priority-ordered, most degraded first;
// ties break by file name for determinism.
func (r *repairer) sortLocked() {
	sort.SliceStable(r.queue, func(i, j int) bool {
		if r.queue[i].priority != r.queue[j].priority {
			return r.queue[i].priority > r.queue[j].priority
		}
		return r.queue[i].file < r.queue[j].file
	})
}

// pop takes the highest-priority runnable job. When only backoff-held
// jobs remain it reports how long until the earliest becomes runnable.
func (r *repairer) pop() (repairJob, bool, time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	wait := time.Duration(0)
	for i := range r.queue {
		j := r.queue[i]
		if d := j.notBefore.Sub(now); d > 0 {
			if wait == 0 || d < wait {
				wait = d
			}
			continue
		}
		r.queue = append(r.queue[:i], r.queue[i+1:]...)
		r.state[j.file] = repairRunning
		return j, true, 0
	}
	if wait == 0 {
		wait = time.Hour // nothing pending; wake rearms the loop anyway
	}
	return repairJob{}, false, wait
}

func (r *repairer) loop() {
	defer r.s.wg.Done()
	for {
		j, ok, wait := r.pop()
		if !ok {
			select {
			case <-r.s.stop:
				return
			case <-r.wake:
			case <-time.After(wait):
			}
			continue
		}
		if !r.runJob(j) {
			return
		}
	}
}

// runJob runs one repair pass for a file against the current placement
// view; reports false when the server is shutting down.
func (r *repairer) runJob(j repairJob) bool {
	s := r.s
	s.mu.Lock()
	ring := append([]wire.NodeInfo(nil), s.ring...)
	s.mu.Unlock()
	r.cli.setRing(ring)

	// The dead member may have owned every reachable CAT replica; the
	// local copy this node holds is then the only one left. Re-seed it
	// at the current owner so the repair pass can load it.
	if _, err := r.cli.LoadCATCtx(r.ctx, j.file); errors.Is(err, ErrNotFound) && len(j.catData) > 0 {
		//nolint:errcheck // best effort: the pass below reports the real failure
		r.cli.storeBlock(r.ctx, core.ReplicaName(core.CATName(j.file), 0), j.catData)
	}

	st, err := r.cli.RepairCtx(r.ctx, j.file)
	if r.ctx.Err() != nil {
		return false
	}

	r.mu.Lock()
	r.report.BlocksRecreated += st.BlocksRecreated
	r.report.BytesRecreated += st.BytesRecreated
	r.report.CATReplicasRecreated += st.CATReplicasRecreated
	r.report.ChunksLost += st.ChunksLost
	requeue := repairJob{}
	if err != nil {
		j.attempts++
		if j.attempts < r.cfg.MaxAttempts {
			j.notBefore = time.Now().Add(r.cfg.RetryDelay)
			requeue = j
		} else {
			r.report.FilesFailed++
		}
	} else {
		r.report.FilesRepaired++
	}
	if requeue.file == "" {
		// The pass is over; anything that re-damaged the file meanwhile
		// starts a fresh job with a fresh attempt budget.
		if prio, dirty := r.again[j.file]; dirty {
			requeue = repairJob{file: j.file, priority: prio, catData: j.catData}
			r.report.FilesQueued++
		}
	}
	delete(r.again, j.file)
	if requeue.file != "" {
		r.queue = append(r.queue, requeue)
		r.state[j.file] = repairQueued
		r.sortLocked()
	} else {
		delete(r.state, j.file)
	}
	r.mu.Unlock()

	// Rate limit: meter the bytes this pass regenerated before taking
	// the next job.
	if r.cfg.Rate > 0 && st.BytesRecreated > 0 {
		d := time.Duration(float64(st.BytesRecreated) / float64(r.cfg.Rate) * float64(time.Second))
		select {
		case <-r.s.stop:
			return false
		case <-time.After(d):
		}
	}
	return true
}

// queueDepth counts files queued or being repaired right now.
func (r *repairer) queueDepth() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.state)
}

func (r *repairer) reportSnapshot() RepairReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.report
}

// RepairReport returns the repair daemon's cumulative accounting (zero
// when the daemon is not running).
func (s *Server) RepairReport() RepairReport {
	if s.rep == nil {
		return RepairReport{}
	}
	return s.rep.reportSnapshot()
}

// RepairQueueDepth returns how many files are queued for or undergoing
// repair (zero when the daemon is not running).
func (s *Server) RepairQueueDepth() int {
	if s.rep == nil {
		return 0
	}
	return s.rep.queueDepth()
}
