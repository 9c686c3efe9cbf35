package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/serve"
	"repro/versioning"
)

// repoOptions are dsvd's flag defaults: MSR re-planning every 8 commits
// with an automatic budget, one maintenance worker, group commit without
// fsync, 64 MiB store cache, 5 s solver deadline and no ILP. The commit
// journal lives in dir, so the repository survives a restart.
//
// One departure from dsvd -data-dir: the objects live in the sharded
// in-memory backend (dsvd's backend without -data-dir), which Open
// rebuilds from the journal, not in the disk backend versioning.Open
// would pick. The disk backend fsyncs every object even with fsync off,
// so commit, set-up and restart times follow the host disk; see
// README.md for the figures that ruled it out.
func repoOptions(dir string) versioning.RepositoryOptions {
	return versioning.RepositoryOptions{
		Backend:      store.NewShardedMemBackend(0),
		Problem:      versioning.ProblemMSR,
		AutoFactor:   2,
		ReplanEvery:  8,
		CacheEntries: 256,
		DataDir:      dir,
		GroupCommit:  true,
		EngineOptions: versioning.EngineOptions{
			SolverTimeout: 5 * time.Second,
			DisableILP:    true,
		},
	}
}

// stack is one running instance of the serving stack: a durable
// repository, serve.Server on a loopback listener, and the handler that
// times every request.
type stack struct {
	dir     string
	repo    *versioning.Repository
	plain   *serve.Server // dsvd's configuration: tracer at sample rate 0
	traced  *serve.Server // traced runs only: every request traced
	tracer  *trace.Tracer // the traced server's tracer
	backend *countingBackend
	timer   *timingHandler
	hs      *http.Server
	served  chan error
	base    string
}

// startStack opens a fresh repository in dir and serves it on
// 127.0.0.1. A traced stack also builds a second Server over the same
// repository whose tracer records every request, and wraps the store
// backend in a counting decorator.
func startStack(dir string, traced bool) (*stack, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	opt := repoOptions(dir)
	s := &stack{dir: dir, timer: &timingHandler{byTrace: map[string]time.Duration{}}}
	if traced {
		s.backend = &countingBackend{b: opt.Backend}
		opt.Backend = s.backend
	}
	repo, err := versioning.Open("perf", opt)
	if err != nil {
		return nil, err
	}
	s.repo = repo
	s.plain = serve.New(repo, serve.Options{
		QueueWait:  100 * time.Millisecond,
		RetryAfter: time.Second,
		Tracer:     trace.New(trace.Options{}),
	})
	if traced {
		s.tracer = trace.New(trace.Options{Sample: 1, Recent: 1 << 15})
		s.traced = serve.New(repo, serve.Options{
			QueueWait:  100 * time.Millisecond,
			RetryAfter: time.Second,
			Tracer:     s.tracer,
		})
	}
	s.timer.plain, s.timer.traced = s.plain, s.traced
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		repo.Close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.timer}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// newClient returns a client with the library's default Options, or, for
// the traced ops of a traced run, one that talks to the traced Server,
// forces a trace on every request and reports trace IDs and wire sizes
// to rec.
func (s *stack) newClient(rec *clientHooks) *client.Client {
	if rec == nil {
		return client.New(s.base, client.Options{})
	}
	return client.New(s.base+tracedPrefix, client.Options{
		TraceSample: 1,
		OnTrace:     rec.onTrace,
		OnResponse:  rec.onResponse,
	})
}

// stopServing shuts the HTTP listener and both Servers down and waits for
// the serve loop to end. The repository stays open.
func (s *stack) stopServing() error {
	if s.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.hs = nil
	s.plain.Close()
	if s.traced != nil {
		s.traced.Close()
	}
	return err
}

// close stops serving and closes the repository.
func (s *stack) close() error {
	err := s.stopServing()
	if cerr := s.repo.Close(); err == nil {
		err = cerr
	}
	return err
}

// tracedPrefix routes a request to the traced Server: traced clients
// use it as their base URL path, so traced and untraced requests can
// interleave on one stack.
const tracedPrefix = "/traced"

// timingHandler serves plain requests with the plain Server, and
// requests under tracedPrefix with the traced Server, keeping the time
// each spent inside Server.ServeHTTP keyed by the trace ID the server put
// on the response.
type timingHandler struct {
	plain, traced *serve.Server
	mu            sync.Mutex
	byTrace       map[string]time.Duration
}

func (h *timingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rest, ok := strings.CutPrefix(r.URL.Path, tracedPrefix)
	if !ok || h.traced == nil {
		h.plain.ServeHTTP(w, r)
		return
	}
	r2 := r.Clone(r.Context())
	r2.URL.Path, r2.URL.RawPath = rest, ""
	start := time.Now()
	h.traced.ServeHTTP(w, r2)
	d := time.Since(start)
	if id := w.Header().Get(trace.HeaderTraceID); id != "" {
		h.mu.Lock()
		h.byTrace[id] = d
		h.mu.Unlock()
	}
}

func (h *timingHandler) handlerTime(id string) (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.byTrace[id]
	return d, ok
}

// clientHooks receives one client's trace IDs and response sizes. Each
// benchmark goroutine owns one client, so the last trace ID seen belongs
// to its last request.
type clientHooks struct {
	mu        sync.Mutex
	lastTrace string
	lastBytes int64
}

func (c *clientHooks) onTrace(_ string, id string) {
	c.mu.Lock()
	c.lastTrace = id
	c.mu.Unlock()
}

func (c *clientHooks) onResponse(_ string, n int64) {
	c.mu.Lock()
	c.lastBytes = n
	c.mu.Unlock()
}

// take returns and clears the last trace ID and response size.
func (c *clientHooks) take() (string, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, n := c.lastTrace, c.lastBytes
	c.lastTrace, c.lastBytes = "", 0
	return id, n
}

// countingBackend decorates the store backend with call counts, bytes
// and time, so the traced run can attribute store work without touching
// the store.
type countingBackend struct {
	b        store.Backend
	gets     atomic.Int64
	getNanos atomic.Int64
	puts     atomic.Int64
	putBytes atomic.Int64
}

func (c *countingBackend) Put(k store.Key, data []byte) error {
	c.puts.Add(1)
	c.putBytes.Add(int64(len(data)))
	return c.b.Put(k, data)
}

func (c *countingBackend) Get(k store.Key) ([]byte, error) {
	start := time.Now()
	b, err := c.b.Get(k)
	c.getNanos.Add(int64(time.Since(start)))
	c.gets.Add(1)
	return b, err
}

func (c *countingBackend) Delete(k store.Key) error              { return c.b.Delete(k) }
func (c *countingBackend) Len() int                              { return c.b.Len() }
func (c *countingBackend) Keys(fn func(k store.Key) error) error { return c.b.Keys(fn) }
func (c *countingBackend) Stats() store.BackendStats             { return c.b.Stats() }

// Flush, Close and PackStats forward the optional backend interfaces the
// store looks for.
func (c *countingBackend) Flush() error {
	if f, ok := c.b.(store.Flusher); ok {
		return f.Flush()
	}
	return nil
}

func (c *countingBackend) Close() error {
	if cl, ok := c.b.(store.Closer); ok {
		return cl.Close()
	}
	return nil
}

func (c *countingBackend) PackStats() store.PackStats {
	if p, ok := c.b.(store.PackStatser); ok {
		return p.PackStats()
	}
	return store.PackStats{}
}

// backendSnapshot is a point-in-time copy of the counters.
type backendSnapshot struct {
	gets, getNanos, puts, putBytes int64
}

func (c *countingBackend) snapshot() backendSnapshot {
	if c == nil {
		return backendSnapshot{}
	}
	return backendSnapshot{c.gets.Load(), c.getNanos.Load(), c.puts.Load(), c.putBytes.Load()}
}

func (a backendSnapshot) sub(b backendSnapshot) backendSnapshot {
	return backendSnapshot{a.gets - b.gets, a.getNanos - b.getNanos, a.puts - b.puts, a.putBytes - b.putBytes}
}
