package sim

import (
	"peerstripe/internal/core"
	"peerstripe/internal/ids"
)

// FailureReport summarises the consequences of one node failure for the
// store (§4.4, §6.2).
type FailureReport struct {
	// BlocksLost counts encoded blocks that were on the failed node.
	BlocksLost int
	// BytesLost counts encoded bytes on the failed node.
	BytesLost int64
	// BytesRegenerated counts encoded bytes scheduled for re-creation
	// on surviving nodes.
	BytesRegenerated int64
	// BlocksRegenerated counts blocks scheduled for re-creation.
	BlocksRegenerated int
	// RegenFailed counts blocks whose re-creation found no space.
	RegenFailed int
	// ChunksUnrecoverable counts chunks that dropped below the decode
	// threshold (their data is gone).
	ChunksUnrecoverable int
	// DataUnrecoverable is the logical bytes in those chunks.
	DataUnrecoverable int64
	// FilesLost counts files newly made unavailable.
	FilesLost int
	// CATReplicasLost / CATReplicasRecreated track CAT replica churn.
	CATReplicasLost      int
	CATReplicasRecreated int
}

// FailNode fails the node in the pool and processes the loss of its
// blocks. When repair is true the §4.4 recovery runs immediately: a
// block whose chunk is still decodable is re-created — on the key's new
// owner for fixed-rate codes, or under a fresh name at a new location
// for rateless codes (the paper's adopted strategy). When repair is
// false losses only update availability (the Figure 10 experiment).
//
// Failing an already-failed node is idempotent: the loss was fully
// accounted the first time, so the repeat returns a zero FailureReport.
// Churn schedules replayed against a store (and the live repair daemon
// this simulates) deliver the same death more than once.
func (s *Store) FailNode(id ids.ID, repair bool) (FailureReport, error) {
	var rep FailureReport
	if s.failed[id] {
		return rep, nil
	}
	lost, err := s.Pool.Fail(id)
	if err != nil {
		return rep, err
	}
	if s.failed == nil {
		s.failed = make(map[ids.ID]bool)
	}
	s.failed[id] = true
	for name, size := range lost {
		s.processLoss(name, size, repair, &rep)
	}
	return rep, nil
}

// processLoss applies the loss of one block and optionally repairs it.
func (s *Store) processLoss(name string, size int64, repair bool, rep *FailureReport) {
	rep.BlocksLost++
	rep.BytesLost += size

	if file, _, isCAT := core.IsCATName(name); isCAT {
		fs, ok := s.files[file]
		if !ok {
			return
		}
		fs.catAlive--
		rep.CATReplicasLost++
		if repair {
			// §4.4: "in case of failure of a node, create new replicas";
			// even a fully lost CAT is re-creatable by chunk probing.
			if s.Pool.StoreBlock(core.ReplicaName(core.CATName(file), freshReplicaTag(fs)), size) != nil {
				fs.catAlive++
				rep.CATReplicasRecreated++
				rep.BytesRegenerated += size
				rep.BlocksRegenerated++
			}
		}
		return
	}

	file, chunk, _, ok := core.ParseBlockName(name)
	if !ok {
		return
	}
	fs, ok := s.files[file]
	if !ok || chunk >= len(fs.survivors) {
		return
	}
	fs.survivors[chunk]--

	spec := s.Cfg.Spec
	if fs.survivors[chunk] < spec.MinNeeded {
		// The chunk can no longer be decoded: its data is gone.
		rep.ChunksUnrecoverable++
		rep.DataUnrecoverable += fs.cat.Rows[chunk].Len()
		s.BytesLostRaw += fs.cat.Rows[chunk].Len()
		if !fs.unavail {
			fs.unavail = true
			s.FilesLost++
			rep.FilesLost++
		}
		return
	}
	if !repair {
		return
	}

	// Re-create the lost redundancy from the surviving blocks.
	if s.Cfg.Rateless {
		// Rateless: mint a brand-new encoded block; its fresh name maps
		// to an (almost surely) different node, sidestepping the
		// overloaded-successor problem (§4.4).
		const attempts = 4
		for a := 0; a < attempts; a++ {
			bn := core.BlockName(file, chunk, fs.nextECB[chunk])
			fs.nextECB[chunk]++
			if s.Pool.StoreBlock(bn, size) != nil {
				fs.survivors[chunk]++
				rep.BlocksRegenerated++
				rep.BytesRegenerated += size
				return
			}
		}
		rep.RegenFailed++
		return
	}
	// Fixed-rate: the same block name now maps to the failed node's
	// neighbor, which re-creates it (functionally equal content).
	if s.Pool.StoreBlock(name, size) != nil {
		fs.survivors[chunk]++
		rep.BlocksRegenerated++
		rep.BytesRegenerated += size
		return
	}
	rep.RegenFailed++
}

// freshReplicaTag picks an unused replica number for a re-created CAT.
func freshReplicaTag(fs *fileState) int {
	// Replica names only need uniqueness; reuse a counter derived from
	// total replicas ever created.
	fs.catReplicaSeq++
	return 100 + fs.catReplicaSeq
}

// ChurnSim drives the Table 3 experiment: nodes fail one by one without
// recovery, and each failure's repair work is delayed in proportion to
// the amount of data being regenerated (§6.2, "Effects of participant
// churn"). Blocks are vulnerable between loss and repair completion, so
// closely spaced failures can defeat the redundancy even when the code
// would tolerate them in isolation.
type ChurnSim struct {
	S *Store
	// RepairRate is the regeneration bandwidth in bytes per time unit.
	RepairRate float64
	// FailureInterval is the simulated time between consecutive node
	// failures.
	FailureInterval float64

	now       float64
	busyUntil float64
	queue     []pendingRepair

	// Totals across all failures.
	TotalLost        int64 // logical bytes made unrecoverable
	TotalRegenerated int64 // encoded bytes regenerated
	PerFailureRegen  []int64
}

type pendingRepair struct {
	readyAt float64
	file    string
	chunk   int
	size    int64
	isCAT   bool
	name    string
}

// NewChurnSim wraps a store in the delayed-repair failure model.
func NewChurnSim(s *Store, repairRate, failureInterval float64) *ChurnSim {
	return &ChurnSim{S: s, RepairRate: repairRate, FailureInterval: failureInterval}
}

// FailNext advances time by FailureInterval, completes repairs that
// became ready, then fails the given node, scheduling repairs for its
// recoverable blocks and charging losses for unrecoverable chunks.
func (c *ChurnSim) FailNext(id ids.ID) error {
	c.now += c.FailureInterval
	c.completeReady()

	lost, err := c.S.Pool.Fail(id)
	if err != nil {
		return err
	}
	var regenThisFailure int64
	spec := c.S.Cfg.Spec
	for name, size := range lost {
		if file, _, isCAT := core.IsCATName(name); isCAT {
			if fs, ok := c.S.files[file]; ok {
				fs.catAlive--
				c.schedule(pendingRepair{file: file, size: size, isCAT: true, name: name})
				regenThisFailure += size
			}
			continue
		}
		file, chunk, _, ok := core.ParseBlockName(name)
		if !ok {
			continue
		}
		fs, ok := c.S.files[file]
		if !ok || chunk >= len(fs.survivors) {
			continue
		}
		fs.survivors[chunk]--
		if fs.survivors[chunk] < spec.MinNeeded {
			c.TotalLost += fs.cat.Rows[chunk].Len()
			if !fs.unavail {
				fs.unavail = true
				c.S.FilesLost++
			}
			continue
		}
		c.schedule(pendingRepair{file: file, chunk: chunk, size: size, name: name})
		regenThisFailure += size
	}
	c.TotalRegenerated += regenThisFailure
	c.PerFailureRegen = append(c.PerFailureRegen, regenThisFailure)
	return nil
}

// schedule enqueues a repair behind the current backlog; its completion
// time grows with the size of the data being recovered.
func (c *ChurnSim) schedule(p pendingRepair) {
	start := c.busyUntil
	if start < c.now {
		start = c.now
	}
	dur := float64(p.size) / c.RepairRate
	c.busyUntil = start + dur
	p.readyAt = c.busyUntil
	c.queue = append(c.queue, p)
}

// completeReady applies all repairs whose completion time has passed.
func (c *ChurnSim) completeReady() {
	i := 0
	for ; i < len(c.queue) && c.queue[i].readyAt <= c.now; i++ {
		p := c.queue[i]
		fs, ok := c.S.files[p.file]
		if !ok {
			continue
		}
		if p.isCAT {
			if c.S.Pool.StoreBlock(core.ReplicaName(core.CATName(p.file), freshReplicaTag(fs)), p.size) != nil {
				fs.catAlive++
			}
			continue
		}
		if fs.unavail || p.chunk >= len(fs.survivors) {
			continue // chunk already lost; repair moot
		}
		var bn string
		if c.S.Cfg.Rateless {
			bn = core.BlockName(p.file, p.chunk, fs.nextECB[p.chunk])
			fs.nextECB[p.chunk]++
		} else {
			bn = p.name
		}
		if c.S.Pool.StoreBlock(bn, p.size) != nil {
			fs.survivors[p.chunk]++
		}
	}
	c.queue = c.queue[i:]
}

// Drain advances time until the repair queue is empty.
func (c *ChurnSim) Drain() {
	if len(c.queue) == 0 {
		return
	}
	c.now = c.queue[len(c.queue)-1].readyAt
	c.completeReady()
}

// Backlog returns the number of repairs still pending.
func (c *ChurnSim) Backlog() int { return len(c.queue) }

// Now returns the current simulated time.
func (c *ChurnSim) Now() float64 { return c.now }
