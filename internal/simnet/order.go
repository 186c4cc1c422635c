package simnet

import "math/bits"

// SortByInstant sorts rows in place into the order in which one event per
// row, at the row's instant and under a key reserved in row order, would
// dispatch, and returns for each position the index its row had before.
// Keys rise with the row index, so that order is the rows sorted stably by
// instant alone: rows on one instant need no key comparison. A schedule
// that drives many rows through one queued event (Reserve, AtUnixNano)
// visits them in this order.
//
// The sort takes O(n) time: a least-significant-digit radix sort over each
// instant's distance from the earliest, one byte per pass over as many
// bytes as the widest distance needs. Distances are taken in unsigned
// arithmetic, so instants spanning the whole int64 range sort correctly.
// The rows move once, along the cycles of the finished permutation; the
// scratch is two keys and two indices per row.
func SortByInstant[R any](rows []R, instant func(*R) int64) []int32 {
	n := len(rows)
	order := make([]int32, n)
	if n == 0 {
		return order
	}
	keys := make([]uint64, n)
	lo, hi := instant(&rows[0]), instant(&rows[0])
	for i := range rows {
		at := instant(&rows[i])
		keys[i] = uint64(at)
		lo, hi = min(lo, at), max(hi, at)
		order[i] = int32(i)
	}
	digits := (bits.Len64(uint64(hi)-uint64(lo)) + 7) / 8
	// The byte counts of every digit, from one pass: a permutation leaves
	// them unchanged, so they serve every later pass.
	var counts [8][256]int32
	for i, k := range keys {
		k -= uint64(lo)
		keys[i] = k
		for d := range counts[:digits] {
			counts[d][byte(k)]++
			k >>= 8
		}
	}
	var spareKeys []uint64
	var spare []int32
	if digits > 0 {
		spareKeys, spare = make([]uint64, n), make([]int32, n)
	}
	for d := 0; d < digits; d++ {
		c := &counts[d]
		shift := 8 * d
		sum := int32(0)
		for b, m := range c {
			c[b], sum = sum, sum+m
		}
		for i, k := range keys {
			b := byte(k >> shift)
			pos := c[b]
			c[b]++
			spareKeys[pos], spare[pos] = k, order[i]
		}
		keys, spareKeys = spareKeys, keys
		order, spare = spare, order
	}
	// Move each row to its position, one cycle of the permutation at a
	// time; keys is free to mark the positions already filled.
	clear(keys)
	for i := range rows {
		if keys[i] != 0 {
			continue
		}
		first := rows[i]
		j := i
		for {
			keys[j] = 1
			from := int(order[j])
			if from == i {
				rows[j] = first
				break
			}
			rows[j] = rows[from]
			j = from
		}
	}
	return order
}
