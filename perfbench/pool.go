package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/server"
)

// replica is one in-process server.New behind a loopback listener.
type replica struct {
	addr     string
	storeDir string
	cancel   context.CancelFunc
	done     chan error
}

// startPool starts one replica per store directory ("" runs without a
// store).  Two or more form a sharded pool: every replica lists all
// addresses as Peers.  Only deployment settings are set; every sizing
// knob keeps the server's default.
func startPool(storeDirs ...string) ([]*replica, error) {
	n := len(storeDirs)
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll(listeners[:i])
			return nil, fmt.Errorf("pool: %w", err)
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	pool := make([]*replica, 0, n)
	for i, l := range listeners {
		cfg := server.Config{StoreDir: storeDirs[i]}
		if n > 1 {
			cfg.Peers, cfg.Self = addrs, addrs[i]
		}
		srv, err := server.New(cfg)
		if err != nil {
			closeAll(listeners[i:])
			stopPool(pool)
			return nil, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		r := &replica{addr: addrs[i], storeDir: cfg.StoreDir, cancel: cancel, done: make(chan error, 1)}
		go func(l net.Listener) { r.done <- srv.Serve(ctx, l) }(l)
		pool = append(pool, r)
	}
	return pool, nil
}

func closeAll(ls []net.Listener) {
	for _, l := range ls {
		l.Close()
	}
}

// stopPool drains every replica and waits until each has stopped.
func stopPool(pool []*replica) error {
	var first error
	for _, r := range pool {
		r.cancel()
		if err := <-r.done; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// newClient returns an HTTP client holding at most nproc connections
// per replica: all load comes from one process with that many
// connections.
func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		DisableCompression:  true,
	}}
}

// post sends body to addr+path and returns the whole response body and
// its X-Cache header.  Any status but 200 is an error.
func post(c *http.Client, addr, path string, body []byte) ([]byte, string, error) {
	resp, err := c.Post("http://"+addr+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("POST %s: status %d: %.200s", path, resp.StatusCode, out)
	}
	return out, resp.Header.Get("X-Cache"), nil
}

// scrape reads the unlabeled samples of a replica's /metrics.
func scrape(c *http.Client, addr string) (map[string]float64, error) {
	resp, err := c.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// scrapeSum adds up the counters of several replicas.
func scrapeSum(c *http.Client, pool []*replica) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, r := range pool {
		m, err := scrape(c, r.addr)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}
