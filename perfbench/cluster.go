package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/journal"
	"repro/internal/router"
	"repro/internal/service"
)

// nodeConfig is lphd's flag defaults (cache 128, memo 4096, workers =
// all CPUs, one job worker, tracing on with a 128-trace ring) with one
// exception: no Logger, so the per-request slog line is not written.
func nodeConfig(jnl *journal.Journal) service.Config {
	return service.Config{
		CacheSize:    128,
		MemoSize:     4096,
		DrainTimeout: 30 * time.Second,
		Journal:      jnl,
	}
}

// listener is one in-process HTTP server on a 127.0.0.1:0 listener.
type listener struct {
	srv  *http.Server
	addr string
	done chan struct{} // closed once Serve has returned
}

func serve(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		addr: ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns ErrServerClosed once stop runs
	}()
	return l, nil
}

// stop lets in-flight requests finish for up to two seconds, then
// closes every connection, and returns once Serve has exited.
func (l *listener) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if l.srv.Shutdown(ctx) != nil {
		_ = l.srv.Close()
	}
	<-l.done
}

// cluster is everything one set-up starts inside the benchmark's
// process: one lphd node, or for routed-mixed two journaled nodes
// behind an lphrouter. close releases all of it — listeners, router
// reconciler, job engines, journals and their temp dirs — and is safe
// to call more than once.
type cluster struct {
	front   string // base URL the load is sent to
	nodes   []*service.Server
	urls    []string // node base URLs, parallel to nodes
	router  string   // router base URL; "" when there is none
	client  *http.Client
	tmp     string   // base directory for temp dirs
	cleanup []func() // run in reverse order by close
}

// newClient returns a client with its own connection pool, so closing
// its idle connections releases everything it opened.
func newClient(timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 32,
			IdleConnTimeout:     30 * time.Second,
			DisableCompression:  true,
		},
	}
}

// onClose registers a release step; close runs them last-registered
// first, so a listener stops before the service behind it closes.
func (c *cluster) onClose(f func()) { c.cleanup = append(c.cleanup, f) }

func (c *cluster) close() {
	fs := c.cleanup
	c.cleanup = nil
	for i := len(fs) - 1; i >= 0; i-- {
		fs[i]()
	}
}

// tempDir makes a directory under the benchmark's scratch base and
// registers its removal.
func (c *cluster) tempDir(pattern string, log io.Writer) (string, error) {
	if err := os.MkdirAll(c.tmp, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(c.tmp, pattern)
	if err != nil {
		return "", err
	}
	c.onClose(func() { _ = os.RemoveAll(dir) })
	fmt.Fprintf(log, "lphbench: tempdir %s\n", dir)
	return dir, nil
}

// startCluster boots the in-process pool for a workload. On error
// everything already started is released before returning.
func startCluster(routed bool, tmp string, log io.Writer) (c *cluster, err error) {
	c = &cluster{client: newClient(60 * time.Second), tmp: tmp}
	defer func() {
		if err != nil {
			c.close()
			c = nil
		}
	}()
	c.onClose(c.client.CloseIdleConnections)
	n := 1
	if routed {
		n = 2
	}
	for i := 0; i < n; i++ {
		var jnl *journal.Journal
		if routed {
			dir, err := c.tempDir("journal-*", log)
			if err != nil {
				return nil, err
			}
			if jnl, err = journal.Open(dir, journal.Options{}); err != nil {
				return nil, err
			}
			c.onClose(func() { _ = jnl.Close() })
		}
		svc := service.New(nodeConfig(jnl))
		c.onClose(svc.Close)
		l, err := serve(svc.Handler())
		if err != nil {
			return nil, err
		}
		c.onClose(l.stop)
		fmt.Fprintf(log, "lphbench: node listening %s\n", l.addr)
		c.nodes = append(c.nodes, svc)
		c.urls = append(c.urls, "http://"+l.addr)
	}
	c.front = c.urls[0]
	if routed {
		// lphrouter's flag defaults: 500ms probes, 2s probe bound, miss
		// budget 3, 60s client timeout; no request log.
		rc := newClient(60 * time.Second)
		c.onClose(rc.CloseIdleConnections)
		addrs := make([]string, len(c.urls))
		for i, u := range c.urls {
			addrs[i] = u[len("http://"):]
		}
		rt := router.New(router.Config{Nodes: addrs, Client: rc})
		c.onClose(rt.Close)
		l, err := serve(rt.Handler())
		if err != nil {
			return nil, err
		}
		c.onClose(l.stop)
		fmt.Fprintf(log, "lphbench: router listening %s\n", l.addr)
		c.router = "http://" + l.addr
		c.front = c.router
	}
	return c, nil
}

// post sends one POST and returns the status and body.
func (c *cluster) post(ctx context.Context, url string, body []byte, idem string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if idem != "" {
		req.Header.Set("Idempotency-Key", idem)
	}
	return c.send(req)
}

// get sends one GET and returns the status and body.
func (c *cluster) get(ctx context.Context, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	return c.send(req)
}

func (c *cluster) send(req *http.Request) (int, []byte, error) {
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getJSON fetches a JSON document (stats, pool) into v.
func (c *cluster) getJSON(ctx context.Context, url string, v any) error {
	status, b, err := c.get(ctx, url)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, status)
	}
	return json.Unmarshal(b, v)
}
