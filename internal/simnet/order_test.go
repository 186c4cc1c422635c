package simnet

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// orderRow is a row FuzzSortByInstant sorts: its instant, and the index
// it was added at.
type orderRow struct {
	at int64
	id int32
}

// FuzzSortByInstant holds SortByInstant to slices.SortStableFunc by
// instant: the same rows in the same order, ties in index order, and the
// returned indices naming where each row came from. Each input byte adds
// a row: a tie with the row before it, an instant near either end of the
// int64 range, or the next eight bytes as an instant, so distances from
// the earliest row span up to the whole range.
func FuzzSortByInstant(f *testing.F) {
	f.Add([]byte{})                             // no rows
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7, 8})    // one row
	f.Add([]byte{3, 9, 0, 0, 0, 0, 0, 0, 0, 0}) // two rows on one instant
	f.Add([]byte{2, 1})                         // MaxInt64 before MinInt64
	f.Add([]byte{0, 1})                         // 0 before MinInt64: the span is not the latest instant
	f.Add([]byte{3, 0, 1, 0, 0, 0, 0, 0, 0, 3}) // 256 before 0: a top byte of one bit
	f.Add([]byte{1, 2, 6, 5, 9, 0, 4})
	f.Add([]byte{3, 1, 0, 0, 0, 0, 0, 0, 128, 3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 7, 4, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	// Distances that differ only above their lowest bytes, and ones that
	// differ only in their lowest byte.
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 1, 0, 3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 3, 0, 0, 0, 0, 0, 1, 0, 0, 3, 1, 0, 0, 0, 0, 1, 0, 0, 3, 2, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var rows []orderRow
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			var at int64
			switch op % 4 {
			case 0:
				if len(rows) > 0 {
					at = rows[len(rows)-1].at
				}
			case 1:
				at = math.MinInt64 + int64(op/4)
			case 2:
				at = math.MaxInt64 - int64(op/4)
			case 3:
				var b [8]byte
				data = data[copy(b[:], data):]
				at = int64(binary.LittleEndian.Uint64(b[:]))
			}
			rows = append(rows, orderRow{at: at, id: int32(len(rows))})
		}
		want := slices.Clone(rows)
		slices.SortStableFunc(want, func(a, b orderRow) int { return cmp.Compare(a.at, b.at) })
		from := SortByInstant(rows, func(r *orderRow) int64 { return r.at })
		if !slices.Equal(rows, want) {
			t.Fatalf("sorted %v, stable sort by instant %v", rows, want)
		}
		if len(from) != len(rows) {
			t.Fatalf("%d indices for %d rows", len(from), len(rows))
		}
		for pos, r := range rows {
			if from[pos] != r.id {
				t.Fatalf("position %d holds row %d, indices say %d", pos, r.id, from[pos])
			}
		}
	})
}
