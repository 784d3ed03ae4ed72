package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// daemon is an in-process capmand on a loopback listener, built with the
// configuration capman-serve uses when given no flags: workers =
// GOMAXPROCS, queue 64, cache 256, and tracing, exemplars, flight
// recording, invariants and telemetry all on. Its logs are discarded.
type daemon struct {
	srv   *server.Server
	http  *http.Server
	base  string
	serve chan error
}

func startDaemon() (*daemon, error) {
	logger, err := obs.NewLogger(io.Discard, slog.LevelInfo, obs.FormatText)
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{
		Logger: logger,
		Executor: server.ExecutorConfig{
			QueueDepth: 64,
			CacheSize:  256,
			Trace:      server.TraceConfig{Exemplars: true},
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background())
		return nil, err
	}
	d := &daemon{
		srv: srv,
		// capman-serve's default request limits.
		http: &http.Server{
			Handler:           srv.Handler(),
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       time.Minute,
			WriteTimeout:      time.Minute,
			MaxHeaderBytes:    1 << 20,
		},
		base:  "http://" + ln.Addr().String(),
		serve: make(chan error, 1),
	}
	go func() { d.serve <- d.http.Serve(ln) }()
	return d, nil
}

// stop drains the job engine, closes the listener and waits for the
// serving goroutine to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Drain(ctx)
	if serr := d.http.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-d.serve; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// client talks to one daemon over at most conns connections.
type client struct {
	base string
	hc   *http.Client
	tr   *http.Transport
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and reads the whole body into buf.
func (c *client) do(ctx context.Context, method, path string, body []byte, buf *bytes.Buffer) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// jobPath is the submit endpoint: POST /v1/jobs takes both kinds.
const jobPath = "/v1/jobs"

// jobRun is one submitted job followed to its end. Fields are exported
// because the client process reports them to the daemon process as JSON.
type jobRun struct {
	Class   opClass        `json:"class"`
	SendAt  time.Time      `json:"sendAt"` // when the POST went out
	PostEnd time.Time      `json:"postEnd"`
	Polls   [][2]time.Time `json:"polls"`   // every poll's send and response times
	View    server.View    `json:"view"`    // the terminal view, its outcome dropped once hashed
	OutHash string         `json:"outHash"` // canonical outcome hash when done
}

// runJob submits body, then polls the job every pollEvery until it is
// terminal or pollTimeout has passed since submission.
func (c *client) runJob(ctx context.Context, body []byte, pollEvery, pollTimeout time.Duration) (jobRun, error) {
	var (
		r   jobRun
		buf bytes.Buffer
	)
	r.SendAt = time.Now()
	status, err := c.do(ctx, http.MethodPost, jobPath, body, &buf)
	r.PostEnd = time.Now()
	if cl, done := classifySubmit(status, err, false); done {
		r.Class = cl
		return r, nil
	}
	var v server.View
	if err := json.Unmarshal(buf.Bytes(), &v); err != nil {
		return r, fmt.Errorf("decode submit view: %w", err)
	}
	deadline := r.SendAt.Add(pollTimeout)
	for {
		time.Sleep(pollEvery)
		t0 := time.Now()
		status, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+v.ID, nil, &buf)
		r.Polls = append(r.Polls, [2]time.Time{t0, time.Now()})
		switch {
		case err != nil:
			r.Class = classTransportErr
			return r, nil
		case status != http.StatusOK:
			r.Class = classOtherStatus
			return r, nil
		}
		r.View = server.View{}
		if err := json.Unmarshal(buf.Bytes(), &r.View); err != nil {
			return r, fmt.Errorf("decode job view: %w", err)
		}
		if r.View.State.Terminal() {
			r.Class = classifyTerminal(r.View.State)
			if r.Class == classDone {
				if r.OutHash, err = outcomeHash(r.View.Outcome); err != nil {
					return r, err
				}
			}
			// Keep the hash only: decoded outcomes held here would count
			// in heap_mb as if the daemon retained them.
			r.View.Outcome = nil
			return r, nil
		}
		if time.Now().After(deadline) {
			r.Class = classifyTerminal(r.View.State)
			return r, nil
		}
	}
}
