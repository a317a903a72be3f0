package search

// MaxLanes is the number of independent lookups one Batch interleaves.
// Sixteen outstanding loads is enough to saturate the line-fill buffers
// of current cores without spilling the lane state out of registers and
// L1.
const MaxLanes = 16

// Batch runs up to MaxLanes independent bounded searches in lockstep:
// every round issues one halving step for every live lane before any
// lane advances again. Each lane's probe is an independent load, so the
// round's cache misses overlap — the memory-level parallelism a
// key-at-a-time MultiGet loop leaves on the table. Lanes may search
// different slices (different leaves, runs, or groups).
//
// A Batch is plain value state with no retained pointers, so callers
// declare one on the stack, Add lanes, Run, then read Pos/Found —
// zero allocations end to end. It is single-goroutine state; concurrent
// batches each use their own value.
type Batch struct {
	n    int
	keys [MaxLanes][]uint64
	key  [MaxLanes]uint64
	base [MaxLanes]int32
	len_ [MaxLanes]int32
	hi   [MaxLanes]int32
}

// Len reports how many lanes have been added.
//
//pieces:hotpath
func (b *Batch) Len() int { return b.n }

// Add stages one lower-bound search for key over keys[lo:hi] (clamped
// to the slice). It reports false when the batch is full.
//
//pieces:hotpath
func (b *Batch) Add(keys []uint64, key uint64, lo, hi int) bool {
	if b.n == MaxLanes {
		return false
	}
	lo, hi = clamp(lo, hi, len(keys))
	l := b.n
	b.keys[l] = keys
	b.key[l] = key
	b.base[l] = int32(lo)
	b.len_[l] = int32(hi - lo)
	b.hi[l] = int32(hi)
	b.n++
	return true
}

// lockstepCutoff is the window width at which Run stops interleaving
// and finishes each lane with the scalar branchless kernel. Wide-window
// halving steps land cache lines apart — those are the misses worth
// overlapping across lanes. Once a lane's window fits in a few lines
// the probes hit cache anyway, and the tight scalar loop (lane state in
// registers, no per-round bookkeeping) beats another lockstep round.
const lockstepCutoff = 64

// Run drives every lane to completion: lockstep halving rounds while
// any window is wider than lockstepCutoff — within one round each such
// lane performs exactly one branchless step, and the per-lane loads of
// a round have no data dependencies on each other, so the memory
// system overlaps their misses — then a scalar branchless finish per
// lane over the now cache-resident remainder.
//
//pieces:hotpath
func (b *Batch) Run() {
	var probes int32
	for {
		live := false
		for l := 0; l < b.n; l++ {
			n := b.len_[l]
			if n <= lockstepCutoff {
				continue
			}
			half := n >> 1
			probes++
			if b.keys[l][b.base[l]+half-1] < b.key[l] {
				b.base[l] += half
			}
			b.len_[l] = n - half
			if n-half > lockstepCutoff {
				live = true
			}
		}
		if !live {
			break
		}
	}
	for l := 0; l < b.n; l++ {
		pos, p := lowerBranchless(b.keys[l], b.key[l], int(b.base[l]), int(b.base[l]+b.len_[l]))
		b.base[l] = int32(pos)
		b.len_[l] = 0
		probes += p
	}
	note(KernelBatch, b.n, probes)
}

// Pos returns lane l's lower-bound position after Run: the first index
// in the lane's window with keys[i] >= key, or the window's hi bound.
//
//pieces:hotpath
func (b *Batch) Pos(l int) int { return int(b.base[l]) }

// Found reports whether lane l's key is present at Pos(l) inside the
// lane's window after Run.
//
//pieces:hotpath
func (b *Batch) Found(l int) bool {
	i := b.base[l]
	return i < b.hi[l] && b.keys[l][i] == b.key[l]
}
