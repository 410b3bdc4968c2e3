package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"syscall"
	"time"

	"polyise/internal/bitset"
	"polyise/internal/checkpoint"
	"polyise/internal/enum"
	"polyise/internal/session"
)

// service is a polyised process serving on a loopback port. It runs with
// one P, so it has one execution slot and enumerates serially, and with a
// 64 MiB memory budget; everything else is the command's default.
type service struct {
	cmd    *exec.Cmd
	log    bytes.Buffer
	done   chan error
	base   string
	client *http.Client
}

func startService(bin string) (*service, error) {
	if bin == "" {
		return nil, errors.New("the stream workload needs -polyised, the path of a polyised binary")
	}
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, err
	}
	s := &service{
		base:   "http://" + addr,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		done:   make(chan error, 1),
	}
	s.cmd = exec.Command(bin, "-addr", addr, "-budget", "64MiB", "-drain-timeout", "10s")
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	s.cmd.Stdout, s.cmd.Stderr = &s.log, &s.log
	// The server must not outlive the benchmark, even if the benchmark dies.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start polyised: %w", err)
	}
	go func() { s.done <- s.cmd.Wait() }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/v1/stats")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err
			return nil, fmt.Errorf("polyised exited during start-up (%v): %s", err, s.log.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("polyised did not answer on %s within 10 s", addr)
		}
	}
}

// freeLoopbackAddr asks the kernel for an unused loopback port.
func freeLoopbackAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// close drains the server with SIGTERM, as an operator would, and waits
// for it to exit; a server that does not exit within 15 s is killed.
func (s *service) close() {
	s.client.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		<-s.done // already exited
		return
	}
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
}

// streamRow is one NDJSON record of the enumerate route: a cut, or the
// terminal record carrying done/error and the run's stats.
type streamRow struct {
	Nodes   []int `json:"nodes"`
	Inputs  []int `json:"inputs"`
	Outputs []int `json:"outputs"`

	Done  *bool  `json:"done"`
	Error string `json:"error"`
	Stats *struct {
		Valid      int    `json:"valid"`
		Candidates int    `json:"candidates"`
		Stop       string `json:"stop"`
	} `json:"stats"`
}

// runStream is one op of the stream workload: a client submits the block
// (a cache hit after the first time), streams its cuts from the enumerate
// route, and runs selection, RTL emission and the re-check on its own copy
// of the graph.
func (s *service) runStream(b *block) (sample, error) {
	var smp sample
	clk := startClock(&smp)
	id, n, err := s.submit(b.text)
	if err != nil {
		return smp, fmt.Errorf("submit: %w", err)
	}
	clk.lap(layerBuild)
	if want := session.GraphID(checkpoint.GraphDigest(b.g)).String(); id != want || n != b.g.N() {
		return smp, fmt.Errorf("submit: got graph %s with %d nodes, want %s with %d", id, n, want, b.g.N())
	}

	url := fmt.Sprintf("%s/v1/graphs/%s/enumerate?nin=%d&nout=%d", s.base, id, b.nin, b.nout)
	resp, err := s.client.Post(url, "", nil)
	if err != nil {
		return smp, fmt.Errorf("enumerate: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return smp, fmt.Errorf("enumerate: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var (
		cuts []enum.Cut
		last streamRow
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		smp.httpBytes += len(line) + 1
		var row streamRow
		if err := json.Unmarshal(line, &row); err != nil {
			return smp, fmt.Errorf("enumerate: row %d: %w", len(cuts), err)
		}
		if row.Done != nil {
			last = row
			break
		}
		if len(cuts) == 0 {
			smp.firstCut = time.Since(clk.last)
		}
		cuts = append(cuts, enum.Cut{
			Nodes:   bitset.FromMembers(b.g.N(), row.Nodes...),
			Inputs:  row.Inputs,
			Outputs: row.Outputs,
		})
	}
	if err := sc.Err(); err != nil {
		return smp, fmt.Errorf("enumerate: read: %w", err)
	}
	// Reading to EOF lets the client reuse the connection.
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return smp, fmt.Errorf("enumerate: read: %w", err)
	}
	clk.lap(layerEnum)
	switch {
	case last.Done == nil:
		return smp, fmt.Errorf("enumerate: stream ended without a terminal record")
	case !*last.Done || last.Error != "":
		return smp, fmt.Errorf("enumerate: run did not complete: %q", last.Error)
	case last.Stats == nil:
		return smp, fmt.Errorf("enumerate: terminal record without stats")
	}
	smp.stats = enum.Stats{Valid: last.Stats.Valid, Candidates: last.Stats.Candidates}

	if err := finishFlow(&smp, &clk, b.g, b, cuts); err != nil {
		return smp, err
	}
	return smp, nil
}

func (s *service) submit(text []byte) (id string, nodes int, err error) {
	resp, err := s.client.Post(s.base+"/v1/graphs", "text/plain", bytes.NewReader(text))
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", 0, err
	}
	if resp.StatusCode != http.StatusCreated {
		return "", 0, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
	}
	var out struct {
		ID    string `json:"id"`
		Nodes int    `json:"nodes"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return "", 0, err
	}
	return out.ID, out.Nodes, nil
}
