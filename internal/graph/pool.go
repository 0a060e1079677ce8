package graph

import "sync"

// Pool is a bounded set of persistent worker goroutines for the
// data-parallel dense kernels. A Pool with L lanes runs up to L pieces of
// work concurrently: L-1 on its worker goroutines plus one on the
// goroutine that calls Run.
//
// Determinism contract: kernels built on Pool assign each lane a fixed,
// index-derived slice of the output and never race on inputs, so results
// are bit-identical for every lane count (including the inline serial
// path used when the pool is nil or single-lane).
//
// A Pool is owned by exactly one computation at a time; Run must not be
// called concurrently with itself. Close releases the worker goroutines;
// a closed pool must not be reused.
type Pool struct {
	lanes int
	tasks chan func()
	once  sync.Once
}

// NewPool returns a pool with the given number of lanes. Lane counts <= 1
// return nil: the nil *Pool is a valid "serial" pool for every kernel.
func NewPool(lanes int) *Pool {
	if lanes <= 1 {
		return nil
	}
	p := &Pool{lanes: lanes, tasks: make(chan func())}
	for i := 1; i < lanes; i++ {
		go func() {
			for f := range p.tasks {
				f()
			}
		}()
	}
	return p
}

// Lanes returns the number of concurrent lanes; 1 for a nil pool.
func (p *Pool) Lanes() int {
	if p == nil {
		return 1
	}
	return p.lanes
}

// Close terminates the worker goroutines. Safe to call more than once and
// on a nil pool.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.once.Do(func() { close(p.tasks) })
}

// Run invokes fn(part) for every part in [0, parts) and returns when all
// have completed. Parts must not exceed Lanes(): each part is guaranteed
// its own lane, so parts may synchronize with one another through a
// Barrier. Part 0 runs on the calling goroutine.
func (p *Pool) Run(parts int, fn func(part int)) {
	if parts <= 0 {
		return
	}
	if p == nil || parts == 1 {
		for i := 0; i < parts; i++ {
			fn(i)
		}
		return
	}
	if parts > p.lanes {
		panic("graph: Pool.Run parts exceeds lanes")
	}
	var wg sync.WaitGroup
	wg.Add(parts - 1)
	for i := 1; i < parts; i++ {
		i := i
		p.tasks <- func() {
			defer wg.Done()
			fn(i)
		}
	}
	fn(0)
	wg.Wait()
}

// Barrier is a reusable synchronization barrier for a fixed number of
// parties, used by lane-parallel kernels to separate pivot phases.
type Barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	arrived int
	phase   uint64
}

// NewBarrier returns a barrier for the given number of parties.
func NewBarrier(parties int) *Barrier {
	b := &Barrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Wait blocks until all parties have called Wait for the current phase.
func (b *Barrier) Wait() {
	b.mu.Lock()
	b.arrived++
	if b.arrived == b.parties {
		b.arrived = 0
		b.phase++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	phase := b.phase
	for b.phase == phase {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// shardRange splits [0, n) into parts near-equal contiguous ranges and
// returns the half-open range of the given part.
func shardRange(n, parts, part int) (lo, hi int) {
	return part * n / parts, (part + 1) * n / parts
}

// laneCount bounds the number of lanes so each lane gets at least minPer
// of the work units; returns at least 1.
func laneCount(pool *Pool, work, minPer int) int {
	lanes := pool.Lanes()
	if minPer > 0 && lanes > work/minPer {
		lanes = work / minPer
	}
	if lanes < 1 {
		lanes = 1
	}
	return lanes
}
