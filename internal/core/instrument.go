package core

import (
	"slotsel/internal/job"
	"slotsel/internal/obs"
	"slotsel/internal/slots"
)

// ObservedFinder is implemented by algorithms outside this package whose
// search can thread an obs.Collector down into the scan layer (by passing
// it to Scan), so scan-level counters (slots examined, window sizes,
// visits) are attributed to the search. The algorithms shipped by this
// package need no such method — Scanner.Find dispatches on their type;
// other Algorithm implementations fall back to select-level
// instrumentation only.
type ObservedFinder interface {
	Algorithm

	// FindObserved is Find over the slots the cursor walks, with
	// scan-level instrumentation delivered to col. col == nil must behave
	// exactly like Find.
	FindObserved(cur slots.Cursor, req *job.Request, col obs.Collector) (*Window, error)
}

// FindObserved is the caller-owned search entry — what every shipped
// algorithm's Find forwards to with a nil collector: borrow a pooled
// Scanner, run Scanner.Find over the cursor — a caller's list.Cursor() or a
// published sequence's seq.Cursor() (a SelectDone event, a "select"
// span and the scan's counters go to col; nil = off, zero added work), and
// detach the result so the caller owns it after the scanner returns to the
// pool. The detach costs two small allocations per successful search;
// zero-allocation callers hold a Scanner and call its Find.
func FindObserved(alg Algorithm, cur slots.Cursor, req *job.Request, col obs.Collector) (*Window, error) {
	sc := AcquireScanner()
	defer ReleaseScanner(sc)
	w, err := sc.Find(alg, cur, req, col)
	if err != nil {
		return nil, err
	}
	return w.Detach(), nil
}
