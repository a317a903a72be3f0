// Package radix is the repository's one bulk sort of uint64 keys: a
// stable radix sort, one byte per pass, behind the dataset generators'
// SortedUnique and the Viper store's page scan. It costs two linear
// passes per byte the keys do not all share and a scratch copy of its
// input, where a comparison sort pays n·log n compares of unpredictable
// branches.
//
// A small input is sorted least significant byte first. A large one is
// split first on the most significant byte that varies, into 256
// buckets in key order, and each bucket is then sorted least significant
// byte first on its own: a pass over the whole of a large input scatters
// to 256 places spread across it, each on its own 4 KiB page, and runs
// at the speed of the TLB, where a bucket's passes stay inside the
// bucket, which for a spread-out key set sits in cache.
package radix

// splitMin is the smallest input split into buckets before its
// byte-by-byte passes. Each bucket's sort zeroes its own eight
// histograms and pays a 256-entry prefix sum per pass, which a small
// input, whole in cache, does not win back: BenchmarkSort (random keys
// with a payload, 2 cores) puts the split at 3× lsd's time at 4Ki keys
// (slower than slices.Sort) and 1.5× at 16Ki, level with it within
// noise at 64Ki, and ahead above that (0.7× at 128Ki, 0.4× at 1Mi).
const splitMin = 1 << 16

// Sort sorts keys ascending. A non-nil vals, as long as keys, is
// permuted alongside, and entries whose keys are equal keep the order
// they had: the sort is stable. A byte every key shares costs no pass,
// so sequential or narrow keys sort in fewer passes.
func Sort(keys, vals []uint64) {
	n := len(keys)
	if n < 2 {
		return
	}
	tmpK := make([]uint64, n)
	var tmpV []uint64
	if vals != nil {
		vals, tmpV = vals[:n], make([]uint64, n)
	}
	if n < splitMin {
		copy(tmpK, keys)
		copy(tmpV, vals)
		lsd(tmpK, tmpV, keys, vals, 8)
		return
	}
	split(keys, vals, tmpK, tmpV)
}

// split sorts keys (and vals alongside) on the most significant byte that
// varies into 256 buckets held in tmpK (and tmpV), then sorts each bucket
// back into keys on the bytes below that one; tmp is scratch.
func split(keys, vals, tmpK, tmpV []uint64) {
	n := len(keys)
	var counts [8][256]int
	histogram(keys, &counts)
	top := 7
	for top >= 0 && counts[top][byte(keys[0]>>(8*top))] == n {
		top--
	}
	if top < 0 {
		return // every key is equal
	}
	buckets := counts[top]
	scatter(keys, vals, tmpK, tmpV, top, &counts[top])
	lo := 0
	for _, m := range buckets {
		hi := lo + m
		if vals == nil {
			lsd(tmpK[lo:hi], nil, keys[lo:hi], nil, top)
		} else {
			lsd(tmpK[lo:hi], tmpV[lo:hi], keys[lo:hi], vals[lo:hi], top)
		}
		lo = hi
	}
}

// lsd sorts srcK (and srcV alongside) by its bytes below byte `below`,
// least significant first, and leaves the result in dstK (and dstV);
// src is scratch.
func lsd(srcK, srcV, dstK, dstV []uint64, below int) {
	n := len(srcK)
	if n < 2 {
		copy(dstK, srcK)
		copy(dstV, srcV)
		return
	}
	var counts [8][256]int
	histogram(srcK, &counts)
	var digits [8]int
	passes := 0
	for d := 0; d < below; d++ {
		if counts[d][byte(srcK[0]>>(8*d))] != n {
			digits[passes] = d
			passes++
		}
	}
	// Passes alternate between the two buffers: an even number, none
	// included, must start from dst to end there.
	if passes%2 == 0 {
		copy(dstK, srcK)
		copy(dstV, srcV)
		srcK, dstK = dstK, srcK
		srcV, dstV = dstV, srcV
	}
	for _, d := range digits[:passes] {
		scatter(srcK, srcV, dstK, dstV, d, &counts[d])
		srcK, dstK = dstK, srcK
		srcV, dstV = dstV, srcV
	}
}

// histogram counts, for each of the eight bytes, how many keys hold each
// value of it.
func histogram(keys []uint64, counts *[8][256]int) {
	for _, k := range keys {
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
}

// scatter is one stable counting pass on byte d: it moves every key of
// srcK (and its val) to dstK (and dstV) in the order of that byte. count
// is the byte's histogram; scatter uses it up.
func scatter(srcK, srcV, dstK, dstV []uint64, d int, count *[256]int) {
	shift := 8 * uint(d)
	sum := 0
	for b, m := range count {
		count[b], sum = sum, sum+m
	}
	if srcV == nil {
		for _, k := range srcK {
			b := byte(k >> shift)
			dstK[count[b]] = k
			count[b]++
		}
		return
	}
	for i, k := range srcK {
		b := byte(k >> shift)
		dstK[count[b]], dstV[count[b]] = k, srcV[i]
		count[b]++
	}
}
