// Package lb implements the HTTP load balancer that fronts the web
// front-end cluster in the paper's architecture (Figure 2 places an
// "HTTP Load Balancer (HAProxy)" between clients and the web servers).
//
// It is a round-robin reverse proxy with active health checking: requests
// go only to backends whose health endpoint answered recently, and a
// backend that fails its check is taken out of rotation until it recovers
// — enough of HAProxy's behavior for the architecture to be complete and
// testable end to end.
//
//shhc:ctxapi
package lb

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"shhc/internal/metrics"
)

// Config configures the load balancer.
type Config struct {
	// Backends are the web front-end base URLs, e.g. "http://10.0.0.2:8080".
	Backends []string
	// HealthInterval is the probe period. Default 1s.
	HealthInterval time.Duration

	// healthTimeout replaces probeTimeout when nonzero. Only this
	// package's tests set it.
	healthTimeout time.Duration
}

// A probe is a GET of healthPath on each backend; any 2xx marks it healthy.
// Every backend is a webfront.Server, and /v1/stats is the endpoint that
// asks its hash cluster, so a front whose nodes are unreachable leaves the
// rotation. A probe that takes longer than probeTimeout (half the
// default interval) fails, so a round ends before the next one starts.
const (
	healthPath   = "/v1/stats"
	probeTimeout = 500 * time.Millisecond
)

func (c *Config) fill() error {
	if len(c.Backends) == 0 {
		return errors.New("lb: at least one backend is required")
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	c.healthTimeout = cmp.Or(c.healthTimeout, probeTimeout)
	return nil
}

type backend struct {
	rawURL  string
	proxy   *httputil.ReverseProxy
	healthy atomic.Bool
	served  atomic.Int64
}

// Balancer is a round-robin reverse proxy over web front-ends.
type Balancer struct {
	cfg      Config
	backends []*backend
	next     atomic.Uint64
	client   *http.Client

	httpSrv *http.Server
	// obs serves the balancer's own /metrics, /healthz and /readyz; every
	// other path is proxied.
	obs *http.ServeMux

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// New creates a balancer. All backends start unhealthy until the first
// probe round completes; call WaitHealthy (or serve traffic and accept a
// brief 503 window) after Start.
func New(cfg Config) (*Balancer, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	b := &Balancer{
		cfg:    cfg,
		client: &http.Client{Timeout: cfg.healthTimeout},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	for _, raw := range cfg.Backends {
		u, err := url.Parse(raw)
		if err != nil {
			return nil, fmt.Errorf("lb: backend %q: %w", raw, err)
		}
		if u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("lb: backend %q: need absolute URL", raw)
		}
		b.backends = append(b.backends, &backend{
			rawURL: raw,
			proxy:  httputil.NewSingleHostReverseProxy(u),
		})
	}
	b.obs = http.NewServeMux()
	metrics.Serve(b.obs, func(_ context.Context, w io.Writer) error {
		st := b.Stats()
		urls := make([]string, len(st))
		for i := range st {
			urls[i] = st[i].URL
		}
		return metrics.WritePrometheus(w, "shhc_lb", "backend", urls, st)
	}, func(context.Context) error {
		for _, be := range b.backends {
			if be.healthy.Load() {
				return nil
			}
		}
		return errors.New("lb: no healthy backends")
	})
	go b.healthLoop()
	return b, nil
}

// healthLoop probes every backend until Close. The first round runs
// immediately so healthy backends enter rotation fast.
func (b *Balancer) healthLoop() {
	defer close(b.done)
	ticker := time.NewTicker(b.cfg.HealthInterval)
	defer ticker.Stop()
	b.probeAll()
	for {
		select {
		case <-ticker.C:
			b.probeAll()
		case <-b.stop:
			return
		}
	}
}

func (b *Balancer) probeAll() {
	var wg sync.WaitGroup
	for _, be := range b.backends {
		be := be
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := b.client.Get(be.rawURL + healthPath)
			healthy := err == nil && resp.StatusCode >= 200 && resp.StatusCode < 300
			if resp != nil {
				resp.Body.Close()
			}
			be.healthy.Store(healthy)
		}()
	}
	wg.Wait()
}

// WaitHealthy blocks until at least one backend is healthy, the timeout
// elapses, or ctx is cancelled, reporting whether one became healthy.
func (b *Balancer) WaitHealthy(ctx context.Context, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	ticker := time.NewTicker(10 * time.Millisecond)
	defer ticker.Stop()
	for time.Now().Before(deadline) {
		for _, be := range b.backends {
			if be.healthy.Load() {
				return true
			}
		}
		select {
		case <-ctx.Done():
			return false
		case <-ticker.C:
		}
	}
	return false
}

// ServeHTTP proxies the request to the next healthy backend.
func (b *Balancer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/metrics", "/healthz", "/readyz":
		b.obs.ServeHTTP(w, r)
		return
	}
	// Try each backend at most once, starting from the round-robin point.
	n := len(b.backends)
	start := int(b.next.Add(1))
	for i := 0; i < n; i++ {
		be := b.backends[(start+i)%n]
		if !be.healthy.Load() {
			continue
		}
		be.served.Add(1)
		be.proxy.ServeHTTP(w, r)
		return
	}
	http.Error(w, "lb: no healthy backends", http.StatusServiceUnavailable)
}

// BackendStats describes one backend's state.
type BackendStats struct {
	URL     string
	Healthy bool
	Served  int64
}

// Stats returns a snapshot of all backends.
func (b *Balancer) Stats() []BackendStats {
	out := make([]BackendStats, 0, len(b.backends))
	for _, be := range b.backends {
		out = append(out, BackendStats{
			URL:     be.rawURL,
			Healthy: be.healthy.Load(),
			Served:  be.served.Load(),
		})
	}
	return out
}

// Listen binds addr and serves the balancer in the background.
func (b *Balancer) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("lb: listen %s: %w", addr, err)
	}
	b.httpSrv = &http.Server{Handler: b, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		_ = b.httpSrv.Serve(ln)
	}()
	return ln.Addr(), nil
}

// Close stops the health checker (waiting for it to exit) and the HTTP
// server, if one was started.
func (b *Balancer) Close() error {
	b.stopOnce.Do(func() { close(b.stop) })
	<-b.done
	if b.httpSrv != nil {
		return b.httpSrv.Close()
	}
	return nil
}
