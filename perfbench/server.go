package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fesia"
)

// server is a fesiaserve child process running its shipped defaults.
type server struct {
	cmd          *exec.Cmd
	exited       chan error // receives cmd.Wait's result once
	public, admn string     // base URLs
	client       *http.Client
	log          *os.File
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches fesiaserve on two free loopback ports and waits
// until it answers. Its log goes to the work directory.
func startServer(r *run) (*server, error) {
	pub, err := freePort()
	if err != nil {
		return nil, err
	}
	adm, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(r.work, fmt.Sprintf("fesiaserve-%s-seed%d.log", r.workload, r.seed)))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(r.server,
		"-addr", fmt.Sprintf("127.0.0.1:%d", pub),
		"-admin", fmt.Sprintf("127.0.0.1:%d", adm))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start fesiaserve: %w", err)
	}
	s := &server{
		cmd:    cmd,
		exited: make(chan error, 1),
		public: fmt.Sprintf("http://127.0.0.1:%d", pub),
		admn:   fmt.Sprintf("http://127.0.0.1:%d", adm),
		client: &http.Client{Timeout: time.Minute},
		log:    logf,
	}
	go func() { s.exited <- cmd.Wait() }()
	deadline := time.Now().Add(90 * time.Second)
	for {
		resp, err := s.client.Get(s.public + "/")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.exited:
			s.exited <- err
			s.stop()
			return nil, fmt.Errorf("fesiaserve exited before serving: %v", err)
		case <-time.After(50 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("fesiaserve did not start serving within 90s")
		}
	}
}

// stop shuts the server down with SIGTERM, kills it if it has not exited
// after 20 seconds, and waits for it either way.
func (s *server) stop() {
	defer s.log.Close()
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// get fetches u and fails on a non-200 status.
func (s *server) get(u string) ([]byte, error) {
	resp, err := s.client.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", u, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// swap loads a corpus snapshot file through /admin/swap and returns the
// time the swap took as the client saw it.
func (s *server) swap(path string) (time.Duration, error) {
	abs, err := filepath.Abs(path)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	resp, err := s.client.Post(s.admn+"/admin/swap?file="+url.QueryEscape(abs), "", nil)
	if err != nil {
		return 0, err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("swap: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return d, nil
}

// liveHeap forces a collection in the server (the heap profile's gc=1) and
// returns its live heap bytes from /debug/vars.
func (s *server) liveHeap() (uint64, error) {
	if _, err := s.get(s.admn + "/debug/pprof/heap?gc=1"); err != nil {
		return 0, err
	}
	body, err := s.get(s.admn + "/debug/vars")
	if err != nil {
		return 0, err
	}
	var v struct {
		Memstats struct{ HeapAlloc uint64 } `json:"memstats"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return 0, fmt.Errorf("decode /debug/vars: %w", err)
	}
	return v.Memstats.HeapAlloc, nil
}

// metrics scrapes /metrics into series name (with labels) → value.
func (s *server) metrics() (map[string]float64, error) {
	body, err := s.get(s.admn + "/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// loadCorpus builds lists into sets, writes them as a corpus snapshot in
// the work directory, and swaps the server onto it as repeatSetup says. It
// returns the median swap time in seconds.
func loadCorpus(r *run, srv *server, lists [][]uint32) (float64, error) {
	sets, err := fesia.BuildBatch(lists)
	if err != nil {
		return 0, err
	}
	path := filepath.Join(r.work, fmt.Sprintf("corpus-%s-seed%d.fesia", r.workload, r.seed))
	if err := fesia.WriteCorpusFile(path, sets); err != nil {
		return 0, err
	}
	defer os.Remove(path)
	_, setup, err := repeatSetup(r, "fesiaserve.admin.swap", func() (time.Duration, error) { return srv.swap(path) })
	return setup, err
}
