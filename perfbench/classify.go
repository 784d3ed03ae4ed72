package main

import (
	"fmt"
	"net/http"
	"strings"

	"repro/internal/server"
)

// opClass is the single bucket every attempted operation lands in.
type opClass int

const (
	classHit          opClass = iota // 200 served from the result cache
	classDone                        // 202, then the job reached done
	classFailed                      // 202, then the job reached failed
	classCancelled                   // 202, then the job reached cancelled
	classShed                        // 429: admission gate shed the request
	classUnavailable                 // 503: queue full or draining
	classOtherStatus                 // any other status, or a status the workload does not expect
	classTransportErr                // the request never got a response
	classPollTimeout                 // 202, then no terminal state before the poll deadline
	numClasses
)

var classNames = [numClasses]string{
	"hit_200", "done", "failed", "cancelled", "shed_429", "unavailable_503",
	"other_status", "transport_error", "poll_timeout",
}

func (c opClass) String() string { return classNames[c] }

// classifySubmit buckets a POST's outcome. A 200 is a hit whatever the
// workload expects (the miss workloads' gate rejects any hit); a 202 on a
// workload that expects hits is other_status. done=false means the caller
// must poll the job to its terminal state.
func classifySubmit(status int, err error, wantHit bool) (c opClass, done bool) {
	switch {
	case err != nil:
		return classTransportErr, true
	case status == http.StatusOK:
		return classHit, true
	case status == http.StatusAccepted && !wantHit:
		return 0, false
	case status == http.StatusTooManyRequests:
		return classShed, true
	case status == http.StatusServiceUnavailable:
		return classUnavailable, true
	}
	return classOtherStatus, true
}

// classifyTerminal buckets a polled job by its last seen state; a state
// that is not terminal means the poll deadline passed first.
func classifyTerminal(state server.State) opClass {
	switch state {
	case server.StateDone:
		return classDone
	case server.StateFailed:
		return classFailed
	case server.StateCancelled:
		return classCancelled
	}
	return classPollTimeout
}

// tally counts operations per class.
type tally [numClasses]int

func (t *tally) add(o tally) {
	for i := range t {
		t[i] += o[i]
	}
}

func (t *tally) attempted() int {
	n := 0
	for _, v := range t {
		n += v
	}
	return n
}

func (t *tally) completed() int { return t[classHit] + t[classDone] }

// failed counts every attempted op that did not complete.
func (t *tally) failed() int { return t.attempted() - t.completed() }

// String lists the non-zero classes, "hit_200=10 done=3".
func (t *tally) String() string {
	var parts []string
	for i, v := range t {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", opClass(i), v))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}
