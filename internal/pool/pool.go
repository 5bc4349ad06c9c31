// Package pool provides the bounded worker pool shared by the parallel
// experiment runner (internal/exp) and the conformance harness
// (internal/conform). Work items are indices into a caller-owned slice, so
// results land in deterministic positions regardless of completion order
// and aggregation can replay them in input order.
package pool

import (
	"sync"
	"sync/atomic"
)

// ForEach runs fn for every index in [0, n) on up to jobs concurrent
// workers. jobs <= 1 runs inline on the calling goroutine.
//
// The error contract is deterministic across schedules: if any invocation
// fails, ForEach returns the failure with the lowest index, regardless of
// which worker observed it first. (The serial path short-circuits at the
// first failing index, which is the same error the parallel path picks.)
func ForEach(jobs, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if jobs > n {
		jobs = n
	}
	if jobs <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
