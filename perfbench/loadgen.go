package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// call is one request of an open-loop schedule.
type call struct {
	Due    time.Duration // send time, as an offset from the phase start
	Method string
	Path   string
	Body   []byte
	Class  string // reporting class, e.g. "map" or "simulate"
	Key    int    // the caller's index for this request
}

// reply is one completed call. Latency runs from the call's scheduled
// send time, not from when it was actually sent, so a stall charges
// its wait to every request queued behind it.
type reply struct {
	*call
	Latency time.Duration
	Status  int
	Body    []byte
	Err     error

	// Lag is how late the generator dispatched the call; Backlog is
	// how many dispatched calls were waiting for a connection right
	// after this one joined them.
	Lag     time.Duration
	Backlog int
}

// loadgen sends open-loop schedules over at most conns keep-alive
// connections. Calls that find every connection busy wait in the
// generator's queue; that queue is the backlog it reports.
type loadgen struct {
	client *http.Client
	base   string
	conns  int
}

// genConns is the generator's connection count: two, or nproc when the
// host has fewer CPUs. The open-loop traffic and the optimize client
// share them.
func genConns() int { return min(2, runtime.NumCPU()) }

func newLoadgen(base string, conns int) *loadgen {
	tr := &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &loadgen{
		client: &http.Client{Transport: tr, Timeout: 90 * time.Second},
		base:   base,
		conns:  conns,
	}
}

// do sends one request and reads the whole body.
func (g *loadgen) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, g.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// run plays calls (sorted by Due) open loop from now and returns the
// replies in completion order once every call has completed. Answers
// are checked only afterwards, so decoding them never holds up a
// connection or takes CPU from the server during the timed phase.
func (g *loadgen) run(ctx context.Context, calls []call) []*reply {
	type queued struct {
		c       *call
		lag     time.Duration
		backlog int
	}
	// Sized to the number of sends, so the dispatcher never blocks on
	// a slow server: the open loop keeps its schedule.
	queue := make(chan queued, len(calls))
	start := time.Now()
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		replies = make([]*reply, 0, len(calls))
	)
	for i := 0; i < g.conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range queue {
				st, body, err := g.do(ctx, q.c.Method, q.c.Path, q.c.Body)
				r := &reply{
					call:    q.c,
					Latency: time.Since(start) - q.c.Due,
					Status:  st,
					Body:    body,
					Err:     err,
					Lag:     q.lag,
					Backlog: q.backlog,
				}
				mu.Lock()
				replies = append(replies, r)
				mu.Unlock()
			}
		}()
	}
	for i := range calls {
		c := &calls[i]
		waitUntil(ctx, start.Add(c.Due))
		if ctx.Err() != nil {
			break
		}
		lag := time.Since(start) - c.Due
		queue <- queued{c: c, lag: lag, backlog: len(queue) + 1}
	}
	close(queue)
	wg.Wait()
	return replies
}

// spinWindow is how long before a due time the dispatcher stops
// sleeping and spins: Go timers on Linux wake up to about a millisecond
// late, which would add that much to every measured latency.
const spinWindow = 1500 * time.Microsecond

// waitUntil returns at t (or when ctx ends): it sleeps until spinWindow
// before t, then yields in a loop until t.
func waitUntil(ctx context.Context, t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		select {
		case <-ctx.Done():
			return
		case <-time.After(d):
		}
	}
	for time.Now().Before(t) && ctx.Err() == nil {
		runtime.Gosched()
	}
}

// schedule spaces n calls evenly at rate per second from time zero,
// returning their due times.
func schedule(rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

// get fetches path and returns the body of a 200.
func (g *loadgen) get(ctx context.Context, path string) ([]byte, error) {
	st, body, err := g.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	if st != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, st, body)
	}
	return body, nil
}
