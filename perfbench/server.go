package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one `penelope serve` child process with its own data
// directory, left at serve's defaults apart from the address and
// -data-dir.
type server struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	dataDir string
	exited  chan error
	stopped bool
	client  *http.Client
}

var listenRE = regexp.MustCompile(`listening .*\baddr=(\S+)`)

// startServer launches the binary on an ephemeral loopback port and
// returns once it logs its address. Its log goes to dataDir + ".log".
func startServer(binary, dataDir string, client *http.Client) (*server, error) {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(dataDir + ".log")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(binary, "serve", "-addr", "127.0.0.1:0", "-data-dir", dataDir)
	// Dies with the benchmark if the benchmark itself is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", binary, err)
	}
	s := &server{cmd: cmd, dataDir: dataDir, exited: make(chan error, 1), client: client}
	addr := make(chan string, 1)
	go func() {
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		found := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if m := listenRE.FindStringSubmatch(line); m != nil && !found {
				found = true
				addr <- m[1]
			}
		}
		s.exited <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
		return s, nil
	case err := <-s.exited:
		return nil, fmt.Errorf("server exited before listening (%v); see %s.log", err, dataDir)
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("server did not listen within 30s; see %s.log", dataDir)
	}
}

// waitReady polls /readyz until it answers 200.
func (s *server) waitReady() error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := s.client.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("server not ready within 30s")
}

// stop asks the server to drain (SIGTERM) and waits for it to exit,
// killing it if it has not within 20s.
func (s *server) stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// peakRSSMB reads the server's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// serverCounters are the cumulative server counters the workload guards
// and the per-layer metrics difference across the measured phase.
type serverCounters struct {
	CacheHits, CacheMisses uint64
	GCRuns                 float64
}

func (s *server) counters() (serverCounters, error) {
	var c serverCounters
	var m struct {
		Cache struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"cache"`
	}
	body, err := s.get("/metrics.json")
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(body, &m); err != nil {
		return c, fmt.Errorf("/metrics.json: %w", err)
	}
	c.CacheHits, c.CacheMisses = m.Cache.Hits, m.Cache.Misses
	prom, err := s.get("/metrics")
	if err != nil {
		return c, err
	}
	for _, line := range bytes.Split(prom, []byte("\n")) {
		if f := strings.Fields(string(line)); len(f) == 2 && f[0] == "penelope_gc_runs_total" {
			c.GCRuns, err = strconv.ParseFloat(f[1], 64)
			return c, err
		}
	}
	return c, errors.New("/metrics has no penelope_gc_runs_total")
}

func (s *server) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// fsType names the filesystem holding dir, for the run header.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
