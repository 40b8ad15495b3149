package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one bccd process. It runs with the production defaults:
// only -addr and a fresh -cache-dir are set, so its tracer, admission
// queue and store decorators are the deployed ones.
type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// startServer execs bccd, logging to log, and waits for /readyz to
// answer 200. The returned duration runs from the exec to that answer.
func startServer(ctx context.Context, c *http.Client, bin, workDir string, log *os.File) (*server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	cacheDir, err := os.MkdirTemp(workDir, "bccd-cache-")
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-cache-dir", cacheDir)
	cmd.Stdout, cmd.Stderr = log, log
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start bccd: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.exited)
	}()
	deadline := t0.Add(30 * time.Second)
	for {
		if r := get(ctx, c, s.base+"/readyz"); r.err == nil && r.code == http.StatusOK {
			return s, time.Since(t0), nil
		}
		if err := ctx.Err(); err != nil {
			s.stop()
			return nil, 0, err
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, errors.New("bccd not ready after 30s")
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("bccd exited before ready (see %s): %v", log.Name(), s.err)
		case <-time.After(250 * time.Microsecond):
		}
	}
}

// stop sends SIGTERM, which drains bccd, and waits for the process to
// end; a bccd still running after 10 s is killed.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// memMiB reads one memory field of the process's /proc status, such
// as VmRSS (resident set) or VmHWM (its high-water mark).
func (s *server) memMiB(field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// promSnapshot is one /metrics scrape: series (name plus labels) to
// value.
type promSnapshot map[string]float64

func (s *server) scrape(ctx context.Context, c *http.Client) (promSnapshot, error) {
	r := get(ctx, c, s.base+"/metrics")
	if r.err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", r.err)
	}
	if r.code != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: HTTP %d", r.code)
	}
	return parseProm(string(r.body))
}

func parseProm(text string) (promSnapshot, error) {
	snap := promSnapshot{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("bad metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad metrics line %q", line)
		}
		snap[line[:i]] = v
	}
	return snap, nil
}

// sum adds every series of the named metric, whatever its labels.
func (p promSnapshot) sum(name string) float64 {
	total := 0.0
	for series, v := range p {
		if base, _, _ := strings.Cut(series, "{"); base == name {
			total += v
		}
	}
	return total
}

// peaks is what the poller keeps: the peak queue depth and in-flight
// shard count from /metrics, and every resident-set sample.
type peaks struct {
	queueDepth, shardsInflight float64
	scrapes                    int
	rss                        []float64
	err                        error
}

// watch polls /metrics and the resident set every period until stop is
// called; stop returns what it saw once the poller has exited.
func (s *server) watch(ctx context.Context, c *http.Client, period time.Duration) (stop func() peaks) {
	ctx, cancel := context.WithCancel(ctx)
	var (
		wg sync.WaitGroup
		pk peaks
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
			if rss, err := s.memMiB("VmRSS"); err == nil {
				pk.rss = append(pk.rss, rss)
			}
			snap, err := s.scrape(ctx, c)
			if err != nil {
				if ctx.Err() == nil && pk.err == nil {
					pk.err = err
				}
				continue
			}
			pk.scrapes++
			pk.queueDepth = max(pk.queueDepth, snap.sum("bccd_queue_depth"))
			pk.shardsInflight = max(pk.shardsInflight, snap.sum("bccd_intracell_shards_inflight"))
		}
	}()
	return func() peaks {
		cancel()
		wg.Wait()
		return pk
	}
}
