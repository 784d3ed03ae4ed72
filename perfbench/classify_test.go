package main

import (
	"errors"
	"net/http"
	"testing"

	"repro/internal/server"
)

func TestClassifySubmit(t *testing.T) {
	boom := errors.New("connection reset")
	cases := []struct {
		status   int
		err      error
		wantHit  bool
		want     opClass
		wantDone bool
	}{
		{http.StatusOK, nil, true, classHit, true},
		{http.StatusOK, nil, false, classHit, true}, // miss workloads' gate rejects it later
		{http.StatusAccepted, nil, false, 0, false},
		{http.StatusAccepted, nil, true, classOtherStatus, true},
		{http.StatusTooManyRequests, nil, false, classShed, true},
		{http.StatusServiceUnavailable, nil, true, classUnavailable, true},
		{http.StatusBadRequest, nil, false, classOtherStatus, true},
		{http.StatusInternalServerError, nil, false, classOtherStatus, true},
		{0, boom, false, classTransportErr, true},
		{http.StatusOK, boom, true, classTransportErr, true},
	}
	for _, c := range cases {
		got, done := classifySubmit(c.status, c.err, c.wantHit)
		if done != c.wantDone || (done && got != c.want) {
			t.Errorf("classifySubmit(%d, %v, %v) = %s, %v; want %s, %v",
				c.status, c.err, c.wantHit, got, done, c.want, c.wantDone)
		}
	}
}

func TestClassifyTerminal(t *testing.T) {
	cases := map[server.State]opClass{
		server.StateDone:      classDone,
		server.StateFailed:    classFailed,
		server.StateCancelled: classCancelled,
		server.StateQueued:    classPollTimeout,
		server.StateRunning:   classPollTimeout,
	}
	for state, want := range cases {
		if got := classifyTerminal(state); got != want {
			t.Errorf("classifyTerminal(%s) = %s, want %s", state, got, want)
		}
	}
}

func TestTallyPutsEveryOpInOneClass(t *testing.T) {
	var tl tally
	for c := opClass(0); c < numClasses; c++ {
		tl[c]++
	}
	if tl.attempted() != int(numClasses) || tl.completed() != 2 || tl.failed() != int(numClasses)-2 {
		t.Fatalf("attempted %d completed %d failed %d", tl.attempted(), tl.completed(), tl.failed())
	}
	if s := (&tally{}).String(); s != "none" {
		t.Errorf("empty tally prints %q", s)
	}
}
