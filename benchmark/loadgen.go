package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

var processEpoch = time.Now()

// nowNs is the one clock of a run: the load generator and every span read
// it, so their intervals nest without conversion.
func nowNs() int64 { return int64(time.Since(processEpoch)) }

// clients is C, the number of load-generator goroutines, each with one
// keep-alive HTTP/1.1 connection.
func clients() int {
	return max(2, min(runtime.NumCPU(), 4))
}

// sample is one plan as the client saw it.
type sample struct {
	seq int
	// start is the send time (closed loop) or the due time (open loop);
	// sent is when the request actually left.
	start, sent, end int64
	missing          int
	err              error
}

// loadgen drives one stack over C keep-alive connections.
type loadgen struct {
	url     string
	clients []*http.Client
}

func newLoadgen(url string, c int) *loadgen {
	lg := &loadgen{url: url + "/v1/plan"}
	for i := 0; i < c; i++ {
		lg.clients = append(lg.clients, &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
			},
		})
	}
	return lg
}

func (lg *loadgen) close() {
	for _, c := range lg.clients {
		c.CloseIdleConnections()
	}
}

// plan sends one request and checks the answer's shape: 200, every index
// in range and ascending. It returns how many indices were missing.
func (lg *loadgen) plan(c *http.Client, seq int, body []byte, planSize int) (int, error) {
	req, err := http.NewRequest(http.MethodPost, lg.url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(planHeader, strconv.Itoa(seq))
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("plan %d: status %d: %s", seq, resp.StatusCode, bytes.TrimSpace(data))
	}
	var pr struct {
		Missing []int `json:"missing"`
	}
	if err := json.Unmarshal(data, &pr); err != nil {
		return 0, fmt.Errorf("plan %d: %w", seq, err)
	}
	prev := -1
	for _, idx := range pr.Missing {
		if idx <= prev || idx >= planSize {
			return 0, fmt.Errorf("plan %d: missing index %d out of range or order", seq, idx)
		}
		prev = idx
	}
	return len(pr.Missing), nil
}

// closedLoop sends n requests: each client takes the next unsent one as
// soon as its previous plan returned. The preload pass sends each body
// once under negative sequence numbers, so its spans never join a window
// plan.
func (lg *loadgen) closedLoop(r *requests, planSize, n int, preload bool) []sample {
	samples := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range lg.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				s := &samples[i]
				var body int
				s.seq, body = i, r.bodyOf(i)
				if preload {
					s.seq, body = -1-i, i
				}
				s.start = nowNs()
				s.sent = s.start
				s.missing, s.err = lg.plan(c, s.seq, r.bodies[body], planSize)
				s.end = nowNs()
			}
		}()
	}
	wg.Wait()
	return samples
}

// openLoop sends request i at t0 + i/rate whatever happened to the ones
// before it, request i on connection i mod C. Latency runs from the due
// time, so a stall is charged to every plan it delayed.
func (lg *loadgen) openLoop(r *requests, planSize, n int, rate float64) []sample {
	samples := make([]sample, n)
	t0 := nowNs() + int64(5*time.Millisecond)
	var wg sync.WaitGroup
	for w, c := range lg.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += len(lg.clients) {
				s := &samples[i]
				s.seq = i
				s.start = t0 + int64(float64(i)/rate*1e9)
				if d := s.start - nowNs(); d > 0 {
					time.Sleep(time.Duration(d))
				}
				s.sent = nowNs()
				s.missing, s.err = lg.plan(c, s.seq, r.bodies[r.bodyOf(i)], planSize)
				s.end = nowNs()
			}
		}()
	}
	wg.Wait()
	return samples
}
