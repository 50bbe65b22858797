package lib

import (
	"reflect"
	"sync"
)

// Stats holds the field census cases.
type Stats struct {
	Written int // write-only: reported
	Folded  int // folded only into itself (agg.Folded += s.Folded): reported
	Inner       // Promoted is read through the embedded Inner
}

// Inner is embedded in Stats.
type Inner struct{ Promoted int }

// Report's Printed is read only by main printing a Report with fmt.
type Report struct{ Printed int }

// Tally's Seen is only compared by reflect.DeepEqual: reported.
type Tally struct{ Seen int }

// Key's fields are read only by comparing two Keys with ==.
type Key struct{ A, B int }

// Ledger's Granted feeds only Stats.Written, which nothing reads: reported.
type Ledger struct {
	sync.Mutex // Lock is a promoted method: the embedded field is read
	Granted    int
}

// Collect builds a Stats, folds it into agg and reports it.
func Collect(agg *Stats, l *Ledger, k, prev Key) (Report, bool) {
	l.Lock()
	defer l.Unlock()
	s := Stats{Written: l.Granted, Folded: 1, Inner: Inner{Promoted: 3}}
	agg.Folded += s.Folded
	l.Granted++
	same := k == prev && reflect.DeepEqual(Tally{Seen: 1}, Tally{Seen: 2})
	return Report{Printed: s.Promoted}, same
}
