package main

// End-to-end crash-recovery proof over real processes and sockets: the
// process hosting site 2 is SIGKILLed mid-protocol — after the
// third-party transfer, before cycle collection — and restarted from
// its persistence directory; the 3-site cluster must still reclaim the
// distributed cycle.

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// buildNode compiles the causalgc-node binary into the test's temp dir.
func buildNode(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "causalgc-node")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// freePort reserves an ephemeral port and releases it for the test's
// processes to bind.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// proc wraps a running causalgc-node with line-scanned stdout.
type proc struct {
	t    *testing.T
	cmd  *exec.Cmd
	name string

	mu      sync.Mutex
	lines   []string
	exited  bool
	exitErr error
	done    chan error
}

func startNode(t *testing.T, name, bin string, args ...string) *proc {
	t.Helper()
	p := &proc{t: t, name: name, done: make(chan error, 1)}
	p.cmd = exec.Command(bin, args...)
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	p.cmd.Stderr = p.cmd.Stdout // interleave; errors surface in waitLine failures
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	go func() {
		// Drain to EOF before calling Wait: Wait closes the pipe, and
		// calling it concurrently with the scanner can discard the
		// process's final burst of output (the exec.Cmd.StdoutPipe
		// contract), losing exactly the lines waitLine asserts on.
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.lines = append(p.lines, line)
			p.mu.Unlock()
			t.Logf("[%s] %s", name, line)
		}
		p.done <- p.cmd.Wait()
	}()
	return p
}

// waitLine blocks until a stdout line contains every one of substrs.
func (p *proc) waitLine(timeout time.Duration, substrs ...string) bool {
	deadline := time.Now().Add(timeout)
	seen := 0
	has := func(line string) bool {
		for _, s := range substrs {
			if !strings.Contains(line, s) {
				return false
			}
		}
		return true
	}
	for time.Now().Before(deadline) {
		p.mu.Lock()
		for ; seen < len(p.lines); seen++ {
			if has(p.lines[seen]) {
				p.mu.Unlock()
				return true
			}
		}
		p.mu.Unlock()
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

// waitExit waits for the process to exit, caching the result so it can
// be asked more than once (e.g. a select loop and a deferred kill).
func (p *proc) waitExit(timeout time.Duration) (error, bool) {
	p.mu.Lock()
	if p.exited {
		err := p.exitErr
		p.mu.Unlock()
		return err, true
	}
	p.mu.Unlock()
	select {
	case err := <-p.done:
		p.mu.Lock()
		p.exited, p.exitErr = true, err
		p.mu.Unlock()
		return err, true
	case <-time.After(timeout):
		return nil, false
	}
}

func (p *proc) kill9() {
	p.cmd.Process.Signal(syscall.SIGKILL)
	if _, ok := p.waitExit(10 * time.Second); !ok {
		p.t.Errorf("%s did not exit after SIGKILL", p.name)
	}
}

func (p *proc) dump() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.lines, "\n")
}

// TestE2ECrashRecovery is the acceptance scenario. It builds the real
// binary and drives two OS processes:
//
//	A hosts sites 1 and 3 and runs the demo driver;
//	B hosts site 2 durably, builds the cycle (remote creates, a genuine
//	  third-party transfer c→b across three sites, the closing edge
//	  b→a), and is SIGKILLed right after — before cycle collection.
//
// B restarts from its persistence directory in serve mode; A's demo
// must still complete (sites 1 and 3 reclaim b and c), and B's status
// line must reach objects=1 (site 2 reclaimed a) with retained=0: every
// bundle site 2 sent, a's finalisation bundles included, acknowledged.
// A journals too, so its sites can come back in serve mode to answer
// bundles that reached them only after the demo process had exited.
func TestE2ECrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives real processes")
	}
	bin := buildNode(t)
	addrA, addrB := freePort(t), freePort(t)
	persistDir := filepath.Join(t.TempDir(), "site2-durability")
	persistA := filepath.Join(t.TempDir(), "sites13-durability")

	procA := startNode(t, "A", bin,
		"-sites", "1,3",
		"-listen", addrA,
		"-peers", "2="+addrB,
		"-demo", "-timeout", "90s",
		"-persist", persistA,
	)
	defer func() { procA.kill9() }()

	procB1 := startNode(t, "B1", bin,
		"-sites", "2",
		"-listen", addrB,
		"-peers", fmt.Sprintf("1=%s,3=%s", addrA, addrA),
		"-demo", "-timeout", "90s",
		"-persist", persistDir,
		"-snapshot-every", "4",
	)
	// The kill point: the third-party transfer has been issued, cycle
	// collection has not run.
	if !procB1.waitLine(30*time.Second, "built cycle") {
		procB1.kill9()
		t.Fatalf("B never built the cycle:\n%s", procB1.dump())
	}
	procB1.kill9()
	t.Log("SIGKILLed site-2 process after the third-party transfer")

	// Restart from the same persistence directory, serve mode, with the
	// metrics endpoint enabled.
	metricsAddr := freePort(t)
	procB2 := startNode(t, "B2", bin,
		"-sites", "2",
		"-listen", addrB,
		"-peers", fmt.Sprintf("1=%s,3=%s", addrA, addrA),
		"-persist", persistDir,
		"-snapshot-every", "4",
		"-metrics-addr", metricsAddr,
	)
	defer func() { procB2.kill9() }()
	if !procB2.waitLine(15*time.Second, "recovered from") {
		t.Fatalf("B2 did not recover:\n%s", procB2.dump())
	}

	// A's demo completes only when sites 1 and 3 are reclaimed down to
	// their roots — which requires site 2's recovered state to finish
	// the GGD episode across the cycle.
	err, exited := procA.waitExit(90 * time.Second)
	if !exited {
		t.Fatalf("driver never completed\nA:\n%s\nB2:\n%s", procA.dump(), procB2.dump())
	}
	if err != nil {
		t.Fatalf("driver process failed: %v\nA:\n%s\nB2:\n%s", err, procA.dump(), procB2.dump())
	}
	if !procA.waitLine(time.Second, "demo complete") {
		t.Fatalf("driver exited without completing the demo:\n%s", procA.dump())
	}

	// The demo process exits as soon as its own sites are reclaimed,
	// possibly before it acknowledged a's finalisation bundles: those stay
	// retained at site 2, as any bundle toward a peer that does not
	// answer does, until their target sites answer again. A restarted in
	// serve mode recovers b and c as tombstones, settles the bundles
	// site 2's refresh rounds re-ship, and acknowledges them.
	procA2 := startNode(t, "A2", bin,
		"-sites", "1,3",
		"-listen", addrA,
		"-peers", "2="+addrB,
		"-persist", persistA,
	)
	defer func() { procA2.kill9() }()

	// And site 2 itself reclaims a: its status line reaches objects=1,
	// and nothing stays retained.
	if !procB2.waitLine(30*time.Second, "status objects=1 ", " retained=0") {
		t.Fatalf("recovered site 2 never reclaimed the cycle head and drained its retained state:\n%s", procB2.dump())
	}

	// The metrics endpoint serves the same state over HTTP: site 2 is
	// back to its root alone, the WAL replayed on recovery, and GGD's
	// removal counter advanced during this node session.
	if !procB2.waitLine(5*time.Second, "metrics on") {
		t.Fatalf("B2 never announced its metrics endpoint:\n%s", procB2.dump())
	}
	resp, err := http.Get("http://" + metricsAddr + "/metrics")
	if err != nil {
		t.Fatalf("scrape B2 metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(body)
	for _, want := range []string{
		`causalgc_objects{site="s2"} 1`,
		`causalgc_wal_recovered_records{site="s2"}`,
		`causalgc_clusters_removed_total{site="s2"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("B2 /metrics missing %q:\n%s", want, metrics)
		}
	}
}
