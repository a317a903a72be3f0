package pgm

// bitsPerKey sizes a run's filter: ten bits a key, the budget an LSM
// store gives each table's Bloom filter, for about one false positive
// in a hundred probes.
const bitsPerKey = 10

// filter is a blocked Bloom filter over a run's keys. A key hashes to
// one 64-byte block and sets one bit in each of its eight words, so a
// probe reads one cache line. It never rules out a key it was built
// from. The reference DynamicPGMIndex has no filter: a learned model
// says where a key would be, not whether it is there.
type filter []uint64

// salts pick a key's bit in each word of its block: the top six bits of
// the key's hash times an odd constant (the split-block Bloom filter).
var salts = [8]uint64{
	0x47b6137b44974d91, 0x8824ad5ba2b7289d, 0x705495c72df1424b, 0x9efc49475c6bfb31,
	0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb, 0xc2b2ae3d27d4eb4f,
}

// newFilter builds the filter over keys, at least one block.
func newFilter(keys []uint64) filter {
	f := make(filter, 8*max((len(keys)*bitsPerKey+511)/512, 1))
	for _, k := range keys {
		blk, h := f.block(k)
		for i, s := range salts {
			blk[i] |= 1 << (h * s >> 58)
		}
	}
	return f
}

// mayContain reports whether key may be one the filter was built from.
//
//pieces:hotpath
func (f filter) mayContain(key uint64) bool {
	blk, h := f.block(key)
	for i, s := range salts {
		if blk[i]&(1<<(h*s>>58)) == 0 {
			return false
		}
	}
	return true
}

// block returns key's block and hash: the hash is murmur3's 64-bit
// finalizer, and its top 32 bits scale to a block index.
func (f filter) block(key uint64) (*[8]uint64, uint64) {
	h := key
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	b := (h >> 32) * uint64(len(f)/8) >> 32
	return (*[8]uint64)(f[8*b:]), h
}
